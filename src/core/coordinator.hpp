#pragma once

/**
 * @file
 * The socket campaign coordinator: episode-range dispatch over binlog
 * frames, no shared filesystem required.
 *
 * One lightweight single-threaded poll() process owns the campaign
 * store, serves pending *episode ranges* (default ~16 episodes,
 * adaptive down near the tail) to connected workers, and ingests their
 * completed episode records -- turning N processes/machines into one
 * campaign without NFS. The wire protocol *is* the binlog store format
 * (common/binlog): each direction opens with the 8-byte CRBL header and
 * then streams self-delimiting CRC32-checked frames, so a worker sends
 * exactly the frames it would have appended to a local store, the
 * coordinator appends them to its own StoreBackend log, and crash
 * recovery falls out of the existing salvage path. A capture of either
 * direction is a valid .crbl file.
 *
 * Control messages are ordinary Record frames whose names live under
 * the `coord|` prefix (the store-key grammar treats them as opaque, and
 * they are never merged into the store):
 *
 *   worker -> coordinator
 *     coord|hello   {worker}  {proto}     identify (first record)
 *     <fp meta>                           ledger meta (Meta frame)
 *     coord|need    {fp}      {need}      declare a ledger's episode need
 *     coord|req     {}                    request a range
 *     <episodes>                          completed records (Episode frames)
 *     coord|done    {fp} {start,count}    range finished
 *     coord|fetch   {fp}      {need}      request the fp's stored episodes
 *     coord|bye     {}                    clean close: no reconnect follows
 *
 *   coordinator -> worker
 *     coord|range   {fp} {start,count}    run episodes [start, start+count)
 *     coord|wait    {}       {ms}         nothing dispatchable; poll later
 *     coord|fin     {}                    campaign complete
 *     <episodes>                          fetch reply (Episode frames)
 *     coord|fetched {fp}                  fetch reply complete
 *
 * Exactly-once without two-phase commit: the coordinator's have-bitmap
 * (episode-index gap-fill, the same primitive --resume uses) is the
 * single source of truth. A worker that dies mid-range simply stops; its
 * assignment times out after rangeTimeoutSeconds (or is re-pooled at
 * once when its connection drops) and the *still-missing* indices are
 * re-dispatched. Duplicate episodes (a straggler finishing a
 * re-dispatched range) are dropped: the first copy of every record is
 * the one stored, in either store format -- and episodes are
 * deterministic functions of (fingerprint, index) anyway.
 *
 * The coordinator is its store's only writer, through the same
 * ResultStore a local campaign uses (core/store_backend.hpp): it loads
 * the store once at start() and from then on every record arrives on
 * the wire, so flushes take no lock and never re-read the disk. It
 * refuses to start on a store a newer build wrote. This is the one way
 * a campaign spans processes; within a process, SweepRunner's local
 * threads share the work.
 *
 * The coordinator listens on every interface, so every integer either
 * side reads off the wire (need, start, count, ms) goes through
 * coordwire::wireInt, and the reader drops a frame with a malformed one
 * (a worker handed a malformed `wait` waits its 50 ms floor).
 */

#include <atomic>
#include <map>
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

/** Largest episode count, episode index or delay (ms) on the wire. */
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
     * raise it to survive a coordinator restart), send the stream
     * header and the hello record. False with `error` on give-up.
     */
    bool connect(const std::string& host, int port,
                 const std::string& workerId, int attempts,
                 std::string* error);

    bool connected() const { return fd_ >= 0; }

    /** Encode + send records as binlog frames. False on a dead/reset
     *  connection (the client closes itself; reconnect to continue). */
    bool send(const std::vector<JsonRecord>& recs, std::string* error);
    bool send(const JsonRecord& rec, std::string* error);

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
};

/** Single-threaded poll() coordinator process (see file comment). */
class Coordinator
{
  public:
    struct Options
    {
        std::string storePath;     //!< required: the campaign store
        StoreFormat storeFormat = StoreFormat::Binlog;
        int port = 0;              //!< 0 picks an ephemeral port
        int rangeEpisodes = 16;    //!< dispatch quantum (adaptive down)
        /** Assignment timeout: a range not completed within this many
         *  seconds is re-dispatched. */
        double rangeTimeoutSeconds = 30.0;
        bool once = false;   //!< exit once the campaign completes
        bool verbose = false;
        int flushEvery = 64; //!< ingested records per store flush
    };

    explicit Coordinator(Options opt);
    Coordinator(const Coordinator&) = delete;
    Coordinator& operator=(const Coordinator&) = delete;
    ~Coordinator();

    /** Bind + listen (SO_REUSEADDR: a restarted coordinator rebinds its
     *  port immediately) and load the store. False with `error`. */
    bool start(std::string* error);

    /** The bound port (after start()); useful with port 0. */
    int port() const { return port_; }

    /**
     * Serve until stop() (or, with Options::once, until every declared
     * fingerprint is complete and the last worker disconnected; a worker
     * whose connection dropped without `bye` -- a reset, not a clean
     * exit -- first gets a short grace to reconnect, and a coordinator
     * restarted on a store a fleet wrote gives that fleet a grace to
     * come back). Runs the poll loop on the calling thread.
     */
    void runLoop();

    /**
     * Ask runLoop() to finish within one poll tick (<= 100 ms). Safe
     * from another thread and from a signal handler: the flag is a
     * lock-free atomic.
     */
    void stop() { stopping_.store(true); }

    // Campaign counters (read after runLoop; for tests and the tool's
    // exit summary).
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
        double since = 0.0; //!< dispatch time (steady clock)
    };

    /** Dispatch state of one declared fingerprint. */
    struct FpState
    {
        int need = 0;
        std::vector<char> have;
        int haveCount = 0;
        bool complete = false;
        std::vector<Assignment> assigned;
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

    /** One connected worker. */
    struct Conn
    {
        int fd = -1;
        int id = -1;
        bool dead = false;  //!< send failed; reaped after processing
        bool bye = false;   //!< said goodbye: its close is not a reset
        std::string worker; //!< empty until hello
        /** Fingerprints this connection declared: only these are
         *  dispatched to it (workers of one fleet can run differently
         *  scoped campaigns), and `fin` fires when *they* are complete,
         *  not the whole store. */
        std::set<std::string> declared;
        binlog::StreamDecoder dec;
        binlog::FrameEncoder enc;
    };

    void acceptConns();
    void handleReadable(int fd);
    bool handleRecord(Conn& conn, JsonRecord&& rec);
    void handleControl(Conn& conn, const std::string& verb,
                       const JsonRecord& rec);
    void ingestRecord(Conn& conn, JsonRecord&& rec);
    void declareNeed(const std::string& fp, int need);
    void dispatch(Conn& conn);
    void serveFetch(Conn& conn, const JsonRecord& rec);
    bool sendRecord(Conn& conn, const JsonRecord& rec);
    void dropConn(std::size_t index, const char* why);
    void expireAssignments(double now);
    void completeFp(const std::string& fp, FpState& st);
    void flushStore();
    void writeWorkerTelemetry();
    bool allComplete() const;
    long long remainingUnassigned() const;
    int activeWorkers() const;

    Options opt_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    int nextConnId_ = 0;
    std::vector<Conn> conns_;
    std::map<std::string, FpState> fps_;
    std::vector<std::string> fpOrder_; //!< declaration order
    std::unique_ptr<ResultStore> store_; //!< opened by start()
    bool anyDeclared_ = false;
    double lastFlush_ = 0.0;
    /** --once may not exit before this: a worker that dropped without
     *  `bye`, or the fleet of a store this coordinator restarted on, may
     *  still be reconnecting. */
    double rejoinUntil_ = 0.0;
    std::map<std::string, WorkerStats> workers_;
    long long episodesIngested_ = 0;
    long long rangesDispatched_ = 0;
    long long rangesRedispatched_ = 0;
};

} // namespace create
