#pragma once

/**
 * @file
 * The socket campaign coordinator: episode-range dispatch over binlog
 * frames, no shared filesystem required -- the one way a campaign spans
 * processes (within a process, SweepRunner's local threads share the
 * work).
 *
 * One single-threaded poll() process owns the campaign store, serves
 * pending *episode ranges* (default 16 episodes, fewer near the tail)
 * to connected workers, and stores their completed episode records. The
 * wire *is* the binlog store format (common/binlog): each direction
 * opens with the 8-byte CRBL header, then streams CRC32-checked frames,
 * so a capture of either direction is a valid .crbl file. Control
 * messages are Record frames named under the `coord|` prefix, never
 * stored:
 *
 *   worker -> coordinator
 *     coord|hello   {worker}  {proto}     identify (first record)
 *     <fp meta>                           ledger meta (Meta frame)
 *     coord|need    {fp}      {need}      declare a ledger's episode need
 *     coord|req     {}                    request a range; answered when
 *                                         a range or `fin` exists
 *     <episodes>                          completed records (Episode frames)
 *     coord|done    {fp} {start,count}    range finished
 *     coord|fetch   {fp}      {need}      request the fp's stored episodes
 *     coord|bye     {}                    clean close: no reconnect follows
 *
 *   coordinator -> worker
 *     coord|range   {fp} {start,count}    run episodes [start, start+count)
 *     coord|fin     {}                    campaign complete
 *     <episodes>                          fetch reply (Episode frames)
 *     coord|fetched {fp}                  fetch reply complete
 *
 * Exactly-once without two-phase commit: the have-bitmap of episode
 * indices (the gap-fill --resume uses) is the single source of truth. A
 * range whose worker drops is re-pooled at once, one outstanding longer
 * than rangeTimeoutSeconds is re-pooled by the clock, and only the
 * *still-missing* indices are dispatched again. A straggler's duplicate
 * episode is dropped: the first copy of every record is the one stored.
 *
 * A `req` that finds nothing to hand out -- every missing episode of the
 * worker's ledgers is in flight -- parks its connection, and the event
 * that frees work answers it: the episode that completes the worker's
 * ledgers sends its `fin`, a drop or a timeout that re-pools a range
 * sends that range, and so does a deeper `need`. The worker just blocks
 * in recv after each `req`.
 *
 * Core and shell. CoordCore is the whole range protocol: assignment,
 * gap-fill, timeout re-dispatch, `fin` scoping, fetch, the --once exit
 * and its rejoin windows, and the `worker|` telemetry. It takes events
 * (a connection opened, a record arrived on it, it closed, time passed)
 * that each carry their own `now`, and returns the frames to send, each
 * addressed to its connection: one worker's event can answer another's
 * parked request. It makes no socket call, reads no clock and never
 * publishes: it touches only the store's in-memory view (records(),
 * insert(), put()). Coordinator is the poll() shell around it: accept,
 * recv and the one send primitive (with its `connreset` chaos hook; a
 * failed send drops its connection at once, re-pooling its ranges like
 * any other drop), the steady clock, and the publishes -- the store is
 * loaded once at start() and written every 64 records, at every range
 * boundary and at least once a second, by the same ResultStore a local
 * campaign uses. So the protocol is tested on a virtual clock, with no
 * sockets and no sleeps (tests/test_coordinator.cpp).
 *
 * The coordinator listens on every interface, so every integer either
 * side reads off the wire (need, start, count) goes through
 * coordwire::wireInt, and the reader drops a frame with a malformed one.
 */

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/binlog.hpp"
#include "common/serialize.hpp"
#include "core/store_backend.hpp"

namespace create {

/** The control-record namespace of the coordinator wire protocol. */
namespace coordwire {

/** Name prefix of control records ("coord|"). */
extern const char* const kPrefix;

/** Build a control record `coord|<verb>`. */
JsonRecord control(const std::string& verb);

/** True when `rec` is a control record; optionally yields the verb. */
bool isControl(const JsonRecord& rec, std::string* verb = nullptr);

/** Largest episode count or episode index on the wire. */
constexpr int kMaxWireInt = 1 << 20;

/** Integer field `key` of a wire record, or -1 when it is missing, not
 *  a whole number, or outside [0, kMaxWireInt]. */
int wireInt(const JsonRecord& rec, const char* key);

} // namespace coordwire

/**
 * Blocking client side of the coordinator wire (the worker transport).
 * Owns one TCP connection plus the frame codec state for each
 * direction; send() failures (including injected `connreset` chaos)
 * leave the client disconnected and the caller reconnects with a fresh
 * handshake -- the protocol is designed so everything after hello can
 * simply be re-sent (declarations and episodes merge idempotently).
 */
class CoordClient
{
  public:
    CoordClient() = default;
    CoordClient(const CoordClient&) = delete;
    CoordClient& operator=(const CoordClient&) = delete;
    ~CoordClient();

    /**
     * Connect to host:port (io::connectRetry with `attempts` tries --
     * raise it to survive a coordinator restart) and queue the stream
     * header and the hello record ahead of the first send(). False with
     * `error` on give-up.
     */
    bool connect(const std::string& host, int port,
                 const std::string& workerId, int attempts,
                 std::string* error);

    bool connected() const { return fd_ >= 0; }

    /** Encode + send records as binlog frames. False on a dead/reset
     *  connection (the client closes itself; reconnect to continue). */
    bool send(const std::vector<JsonRecord>& recs, std::string* error);
    bool send(const JsonRecord& rec, std::string* error)
    {
        return send(std::vector<JsonRecord>{rec}, error);
    }

    /**
     * Block for the next record from the coordinator. False on EOF,
     * error, or a corrupt stream (error says which); the client closes
     * itself in every false case.
     */
    bool recv(JsonRecord& rec, std::string* error);

    void close();

  private:
    int fd_ = -1;
    binlog::FrameEncoder enc_;
    binlog::StreamDecoder dec_;
    std::string handshake_; //!< header + hello, until the first send()
};

/** Options of a coordinator (Coordinator::Options). */
struct CoordOptions
{
    std::string storePath;  //!< required: the campaign store
    StoreFormat storeFormat = StoreFormat::Binlog;
    int port = 0;           //!< 0 picks an ephemeral port
    int rangeEpisodes = 16; //!< dispatch quantum (adaptive down)
    /** Assignment timeout: a range not completed within this many
     *  seconds is re-dispatched. */
    double rangeTimeoutSeconds = 30.0;
    bool once = false; //!< exit once the campaign completes
    bool verbose = false;
};

/**
 * The coordinator's range protocol without I/O (see the file comment).
 * Every event carries its `now`, in seconds on any clock that never runs
 * backwards; the core reads none, so a test can drive it on a virtual
 * one. Each event appends the frames it sends to `out`, in send order,
 * and ends by answering every parked `req` it can. Not thread-safe: the
 * shell's one thread owns it.
 */
class CoordCore
{
  public:
    /** A frame to send: `rec` to connection `conn`. */
    struct Frame
    {
        int conn = -1;
        JsonRecord rec;
    };

    /** A campaign over `store`, already loaded, starting at `now`. */
    CoordCore(const CoordOptions& opt, ResultStore& store, double now);

    /** Connection `conn` opened (an id no open connection holds). */
    void open(int conn) { peers_[conn].id = conn; }

    /**
     * Handle one record `conn` sent: a `coord|` control verb, or a
     * record to store (its first copy is kept). True at a range boundary
     * (a `done`), where the shell lands the queued batch.
     */
    bool receive(int conn, JsonRecord&& rec, double now,
                 std::vector<Frame>& out);

    /** Connection `conn` closed (`why` goes to the verbose log): its
     *  outstanding ranges return to the pool. */
    void close(int conn, const char* why, double now, std::vector<Frame>& out);

    /**
     * Re-pool every range outstanding longer than the range timeout.
     * True when a CoordOptions::once campaign is over: every declared
     * fingerprint is complete, no connection is open, and the rejoin
     * window has passed.
     */
    bool tick(double now, std::vector<Frame>& out);

    /** Refresh the `worker|<id>` telemetry in the store (before each
     *  publish). */
    void putTelemetry();

    long long episodesIngested() const { return episodesIngested_; }
    long long rangesDispatched() const { return rangesDispatched_; }
    long long rangesRedispatched() const { return rangesRedispatched_; }

  private:
    /** One outstanding range assignment. */
    struct Assignment
    {
        int start = 0;
        int count = 0;
        int connId = -1;
        std::string worker;
        double since = 0.0; //!< dispatch time
    };

    /** Dispatch state of one declared fingerprint. */
    struct FpState
    {
        int need = 0;
        std::vector<char> have;
        int haveCount = 0;
        std::vector<Assignment> assigned;
        bool complete() const { return haveCount == need; }
    };

    /** Per-worker telemetry (keyed by the hello worker id). */
    struct WorkerStats
    {
        long long rangesAssigned = 0;
        long long rangesCompleted = 0;
        long long rangesRedispatched = 0;
        long long episodes = 0;
        double firstSeen = 0.0;
        double lastSeen = 0.0;
        std::vector<double> rangeWallMs;
    };

    /** The protocol state of one open connection. */
    struct Peer
    {
        int id = -1;
        bool bye = false;    //!< said goodbye: its close is not a reset
        bool parked = false; //!< its `req` waits for a range or `fin`
        std::string worker;  //!< empty until hello
        /** Fingerprints this connection declared: only these are
         *  dispatched to it (workers of one fleet can run differently
         *  scoped campaigns), and `fin` fires when *they* are complete,
         *  not the whole store. */
        std::set<std::string> declared;
    };

    void ingestRecord(Peer& peer, JsonRecord&& rec, double now);
    void declareNeed(const std::string& fp, int need);
    /** Answer `peer`'s `req` with a range or `fin`, or park it. */
    void dispatch(Peer& peer, double now, std::vector<Frame>& out);
    /** Dispatch to every parked peer: the end of each event. */
    void answerParked(double now, std::vector<Frame>& out);
    void serveFetch(int conn, const JsonRecord& rec, std::vector<Frame>& out);
    void expireAssignments(double now);
    /** Erase `a` from `st`, counted as re-dispatched when `charge`. */
    std::vector<Assignment>::iterator
    repool(FpState& st, std::vector<Assignment>::iterator a, bool charge);

    CoordOptions opt_;
    ResultStore& store_;
    std::map<int, Peer> peers_;
    std::map<std::string, FpState> fps_;
    std::vector<std::string> fpOrder_; //!< declaration order
    /** --once may not end before this: a worker that dropped without
     *  `bye`, or the fleet of a store this coordinator restarted on, may
     *  still be reconnecting. */
    double rejoinUntil_ = 0.0;
    std::map<std::string, WorkerStats> workers_;
    long long episodesIngested_ = 0;
    long long rangesDispatched_ = 0;
    long long rangesRedispatched_ = 0;
};

/** Single-threaded poll() coordinator process: the shell around
 *  CoordCore (see file comment). */
class Coordinator
{
  public:
    using Options = CoordOptions;

    explicit Coordinator(Options opt) : opt_(std::move(opt)) {}
    Coordinator(const Coordinator&) = delete;
    Coordinator& operator=(const Coordinator&) = delete;
    ~Coordinator();

    /** Bind + listen (SO_REUSEADDR: a restarted coordinator rebinds its
     *  port immediately) and load the store, refusing one a newer build
     *  wrote. False with `error`. */
    bool start(std::string* error);

    /** The bound port (after start()); useful with port 0. */
    int port() const { return port_; }

    /** Serve until stop() -- or, with Options::once, until CoordCore::tick
     *  says the campaign is over. Runs the poll loop on the calling
     *  thread. */
    void runLoop();

    /**
     * Ask runLoop() to finish within one poll tick (<= 100 ms). Safe
     * from another thread and from a signal handler: the flag is a
     * lock-free atomic.
     */
    void stop() { stopping_.store(true); }

    // Campaign counters (after start(); for tests and the tool's exit
    // summary).
    long long episodesIngested() const { return core_->episodesIngested(); }
    long long rangesDispatched() const { return core_->rangesDispatched(); }
    long long rangesRedispatched() const { return core_->rangesRedispatched(); }

  private:
    /** One connected worker: its socket and its codec state. */
    struct Conn
    {
        int fd = -1;
        binlog::StreamDecoder dec;
        binlog::FrameEncoder enc;
    };

    void acceptConns();
    void handleReadable(int id);
    void deliver(int id, JsonRecord&& rec);
    /** Close connection `id` and tell the core, which queues the frames
     *  its re-pooled ranges free; the caller sends them. */
    void dropConn(int id, const char* why);
    /** Send the core's queued frames, each to its connection. */
    void sendFrames();
    void flushStore();

    Options opt_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    int nextConnId_ = 0;
    std::map<int, Conn> conns_;             //!< by connection id
    std::unique_ptr<ResultStore> store_;    //!< opened by start()
    std::unique_ptr<CoordCore> core_;       //!< created by start()
    std::vector<CoordCore::Frame> frames_;  //!< the core's frames to send
    double lastFlush_ = 0.0;
};

} // namespace create
