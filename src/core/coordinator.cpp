#include "core/coordinator.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/chaos.hpp"
#include "common/io_retry.hpp"
#include "common/store_keys.hpp"
#include "core/store_stats.hpp"

namespace create {

namespace {

// stop() runs in create-coordinator's signal handler, where only
// lock-free atomics may be touched.
static_assert(std::atomic<bool>::is_always_lock_free,
              "Coordinator::stop() must be async-signal-safe");

/** Steady-clock seconds: every timestamp the coordinator compares is
 *  its own, so wall-clock jumps must not expire assignments. */
double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/**
 * How long a --once coordinator stays up for a worker whose connection
 * dropped without `bye`. A live worker reconnects at once (its
 * connect retry starts without a sleep), so this only has to cover
 * scheduling delays; a worker that was killed costs this much at the
 * end of the campaign.
 */
constexpr double kRejoinGraceSeconds = 2.0;

/**
 * How long a --once coordinator restarted on a store that a fleet wrote
 * stays up for that fleet. A worker may be asleep in connectRetry's
 * backoff for up to io::kConnectBackoffCapMs when the restart starts
 * listening; without this window the first worker back could finish a
 * nearly complete campaign, say `bye`, and take the coordinator down
 * under the rest. Twice the cap leaves a margin.
 */
constexpr double kRestartRejoinSeconds =
    2.0 * io::kConnectBackoffCapMs / 1000.0;

/**
 * The one send primitive of the coordinator wire, shared by both sides
 * so the `connreset` chaos fault covers both directions: when it fires,
 * only a random prefix of the buffer reaches the wire and the
 * connection drops mid-frame -- the peer's StreamDecoder buffers the
 * torn frame, sees EOF, and the campaign must heal through
 * reconnect/re-dispatch.
 */
bool
wireSend(int fd, const char* data, std::size_t n, std::string* error)
{
    if (chaos::shouldConnReset()) {
        const auto keep = static_cast<std::size_t>(
            static_cast<double>(n) * chaos::connResetKeepFraction());
        std::string ignored;
        if (keep > 0)
            io::writeFull(fd, data, keep, &ignored);
        ::shutdown(fd, SHUT_RDWR);
        std::fprintf(stderr,
                     "[chaos] connreset after %zu of %zu bytes (pid %d)\n",
                     keep, n, static_cast<int>(::getpid()));
        if (error)
            *error = "injected connreset";
        return false;
    }
    return io::writeFull(fd, data, n, error);
}

} // namespace

namespace coordwire {

const char* const kPrefix = "coord|";

JsonRecord
control(const std::string& verb)
{
    JsonRecord rec;
    rec.name = std::string(kPrefix) + verb;
    return rec;
}

bool
isControl(const JsonRecord& rec, std::string* verb)
{
    const std::size_t n = std::char_traits<char>::length(kPrefix);
    if (rec.name.compare(0, n, kPrefix) != 0)
        return false;
    if (verb)
        *verb = rec.name.substr(n);
    return true;
}

int
wireInt(const JsonRecord& rec, const char* key)
{
    const double v = rec.number(key, -1.0);
    if (!(v >= 0.0 && v <= kMaxWireInt) || v != std::floor(v))
        return -1; // the negated range test rejects NaN too
    return static_cast<int>(v);
}

} // namespace coordwire

// ---------------------------------------------------------------- client

CoordClient::~CoordClient()
{
    close();
}

void
CoordClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    // Fresh codec state either way: a reconnected stream starts with a
    // new header and a new dictionary on both sides.
    enc_.reset();
    dec_.reset();
}

bool
CoordClient::connect(const std::string& host, int port,
                     const std::string& workerId, int attempts,
                     std::string* error)
{
    close();
    fd_ = io::connectRetry(host, port, attempts, error);
    if (fd_ < 0)
        return false;
    std::string out;
    binlog::FrameEncoder::encodeHeader(out);
    JsonRecord hello = coordwire::control("hello");
    hello.strings.emplace_back("worker", workerId);
    hello.numbers.emplace_back("proto", 1.0);
    enc_.encodeRecord(hello, out);
    if (!wireSend(fd_, out.data(), out.size(), error)) {
        close();
        return false;
    }
    return true;
}

bool
CoordClient::send(const std::vector<JsonRecord>& recs, std::string* error)
{
    if (fd_ < 0) {
        if (error)
            *error = "not connected";
        return false;
    }
    std::string out;
    for (const JsonRecord& rec : recs)
        enc_.encodeRecord(rec, out);
    if (out.empty())
        return true;
    if (!wireSend(fd_, out.data(), out.size(), error)) {
        close();
        return false;
    }
    return true;
}

bool
CoordClient::send(const JsonRecord& rec, std::string* error)
{
    std::vector<JsonRecord> one;
    one.push_back(rec);
    return send(one, error);
}

bool
CoordClient::recv(JsonRecord& rec, std::string* error)
{
    if (fd_ < 0) {
        if (error)
            *error = "not connected";
        return false;
    }
    for (;;) {
        if (dec_.pop(rec))
            return true;
        char buf[65536];
        ssize_t n;
        do
            n = ::read(fd_, buf, sizeof(buf));
        while (n < 0 && errno == EINTR);
        if (n == 0) {
            if (error)
                *error = "coordinator closed the connection";
            close();
            return false;
        }
        if (n < 0) {
            if (error)
                *error = std::string("read: ") + std::strerror(errno);
            close();
            return false;
        }
        if (!dec_.feed(buf, static_cast<std::size_t>(n))) {
            if (error)
                *error = "corrupt frame stream from coordinator";
            close();
            return false;
        }
    }
}

// ----------------------------------------------------------- coordinator

Coordinator::Coordinator(Options opt) : opt_(std::move(opt))
{
    if (opt_.rangeEpisodes < 1)
        opt_.rangeEpisodes = 1;
    if (opt_.rangeTimeoutSeconds <= 0.0)
        opt_.rangeTimeoutSeconds = 30.0;
    if (opt_.flushEvery < 1)
        opt_.flushEvery = 1;
}

Coordinator::~Coordinator()
{
    for (Conn& c : conns_)
        ::close(c.fd);
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

bool
Coordinator::start(std::string* error)
{
    if (opt_.storePath.empty()) {
        if (error)
            *error = "coordinator requires a store path";
        return false;
    }
    store_ = std::make_unique<ResultStore>(
        opt_.storePath, opt_.storeFormat, "coordinator", "coord");
    if (store_->open() == StoreOpen::FutureSchema) {
        char why[160];
        std::snprintf(why, sizeof(why),
                      " has schema %g (newer than this build's %d); "
                      "refusing to own it",
                      store_->schema(), kSweepStoreSchema);
        if (error)
            *error = "store " + opt_.storePath + why;
        return false;
    }
    // Worker telemetry in the store means an earlier incarnation had a
    // fleet, which may be reconnecting right now.
    const auto& view = store_->records();
    const auto w = view.upper_bound(sweepWorkerKey(""));
    if (w != view.end() && sweepWorkerId(w->first))
        rejoinUntil_ = nowSeconds() + kRestartRejoinSeconds;

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    // SO_REUSEADDR: a coordinator restarted after kill -9 must rebind
    // its port immediately (the chaos restart leg depends on it).
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        if (error)
            *error = "bind/listen port " + std::to_string(opt_.port) +
                     ": " + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) == 0)
        port_ = static_cast<int>(ntohs(addr.sin_port));
    ::fcntl(listenFd_, F_SETFL, O_NONBLOCK);
    lastFlush_ = nowSeconds();
    if (opt_.verbose)
        std::fprintf(stderr, "[coord] pid %d owns %s (%s)\n",
                     static_cast<int>(::getpid()), opt_.storePath.c_str(),
                     storeFormatName(store_->format()));
    return true;
}

void
Coordinator::runLoop()
{
    while (!stopping_.load()) {
        std::vector<pollfd> pfds;
        pfds.reserve(conns_.size() + 1);
        pfds.push_back(pollfd{listenFd_, POLLIN, 0});
        for (const Conn& c : conns_)
            pfds.push_back(pollfd{c.fd, POLLIN, 0});
        const int rc = ::poll(pfds.data(),
                              static_cast<nfds_t>(pfds.size()), 100);
        if (rc < 0 && errno != EINTR) {
            std::fprintf(stderr, "[coord] poll: %s\n",
                         std::strerror(errno));
            break;
        }
        if (rc > 0) {
            if (pfds[0].revents & POLLIN)
                acceptConns();
            // Process by fd: a drop mid-loop erases from conns_, so the
            // pollfd list (a snapshot) is the safe thing to walk.
            for (std::size_t p = 1; p < pfds.size(); ++p)
                if (pfds[p].revents & (POLLIN | POLLHUP | POLLERR))
                    handleReadable(pfds[p].fd);
        }
        const double now = nowSeconds();
        expireAssignments(now);
        if (store_->queued() > 0 && now - lastFlush_ >= 1.0)
            flushStore();
        if (opt_.once && anyDeclared_ && conns_.empty() && allComplete() &&
            now >= rejoinUntil_)
            break;
    }
    flushStore(); // final: telemetry + whatever is pending
}

void
Coordinator::acceptConns()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: drained
        }
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        // Our direction of the stream opens with the same header a
        // .crbl file does (a capture is a valid log).
        std::string hdr;
        binlog::FrameEncoder::encodeHeader(hdr);
        std::string err;
        if (!wireSend(fd, hdr.data(), hdr.size(), &err)) {
            ::close(fd);
            continue;
        }
        Conn c;
        c.fd = fd;
        c.id = nextConnId_++;
        conns_.push_back(std::move(c));
        if (opt_.verbose)
            std::fprintf(stderr, "[coord] conn %d accepted\n",
                         conns_.back().id);
    }
}

void
Coordinator::handleReadable(int fd)
{
    const auto it = std::find_if(conns_.begin(), conns_.end(),
                                 [fd](const Conn& c) { return c.fd == fd; });
    if (it == conns_.end())
        return;
    const auto idx = static_cast<std::size_t>(it - conns_.begin());
    char buf[65536];
    for (;;) {
        Conn& conn = conns_[idx];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            if (!conn.dec.feed(buf, static_cast<std::size_t>(n))) {
                dropConn(idx, "corrupt frame stream");
                return;
            }
            JsonRecord rec;
            while (!conn.dead && conn.dec.pop(rec))
                handleRecord(conn, std::move(rec));
            if (conn.dead) {
                dropConn(idx, "send failed");
                return;
            }
            continue;
        }
        if (n == 0) {
            dropConn(idx, "disconnected");
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        dropConn(idx, std::strerror(errno));
        return;
    }
}

bool
Coordinator::handleRecord(Conn& conn, JsonRecord&& rec)
{
    std::string verb;
    if (coordwire::isControl(rec, &verb))
        handleControl(conn, verb, rec);
    else
        ingestRecord(conn, std::move(rec));
    return !conn.dead;
}

void
Coordinator::handleControl(Conn& conn, const std::string& verb,
                           const JsonRecord& rec)
{
    const double now = nowSeconds();
    if (verb == "hello") {
        conn.worker = rec.text("worker");
        if (conn.worker.empty())
            conn.worker = "conn" + std::to_string(conn.id);
        WorkerStats& ws = workers_[conn.worker];
        if (ws.firstSeen == 0.0)
            ws.firstSeen = now;
        ws.lastSeen = now;
        if (opt_.verbose)
            std::fprintf(stderr, "[coord] conn %d is %s\n", conn.id,
                         conn.worker.c_str());
    } else if (verb == "need") {
        const std::string fp = rec.text("fp");
        const int need = coordwire::wireInt(rec, "need");
        if (fp.empty() || need < 1)
            return; // malformed: dropped
        conn.declared.insert(fp);
        declareNeed(fp, need);
    } else if (verb == "req") {
        dispatch(conn);
    } else if (verb == "done") {
        const auto it = fps_.find(rec.text("fp"));
        if (it != fps_.end()) {
            // A malformed field reads -1, which matches no assignment.
            const int start = coordwire::wireInt(rec, "start");
            const int count = coordwire::wireInt(rec, "count");
            auto& as = it->second.assigned;
            for (auto a = as.begin(); a != as.end(); ++a) {
                if (a->connId != conn.id || a->start != start ||
                    a->count != count)
                    continue;
                WorkerStats& ws = workers_[conn.worker.empty()
                                               ? "conn" +
                                                     std::to_string(conn.id)
                                               : conn.worker];
                ++ws.rangesCompleted;
                ws.lastSeen = now;
                ws.rangeWallMs.push_back((now - a->since) * 1000.0);
                as.erase(a);
                break;
            }
            // A `done` for an assignment we already expired is a
            // straggler finishing a re-dispatched range: its episodes
            // were dropped as duplicates, nothing else to do.
        }
        if (store_->queued() > 0)
            flushStore(); // range boundary: land the batch
    } else if (verb == "fetch") {
        serveFetch(conn, rec);
    } else if (verb == "bye") {
        conn.bye = true;
    }
    // Unknown verbs are ignored: newer workers degrade gracefully.
}

void
Coordinator::ingestRecord(Conn& conn, JsonRecord&& rec)
{
    std::string fp;
    const int idx = sweepEpisodeIndex(rec.name, &fp);
    if (idx >= 0) {
        const auto it = fps_.find(fp);
        bool fresh = false;
        if (it != fps_.end() && idx < it->second.need &&
            !it->second.have[static_cast<std::size_t>(idx)]) {
            it->second.have[static_cast<std::size_t>(idx)] = 1;
            ++it->second.haveCount;
            fresh = true;
        }
        ++episodesIngested_;
        if (!conn.worker.empty()) {
            WorkerStats& ws = workers_[conn.worker];
            ++ws.episodes;
            ws.lastSeen = nowSeconds();
        }
        if (fresh && it->second.haveCount == it->second.need)
            completeFp(fp, it->second);
    }
    // Episodes, ledger meta and anything else a worker would have
    // written locally: the first copy is stored. A straggler's duplicate
    // episode (bit-identical anyway: episodes are deterministic) or a
    // reconnect's re-declared meta would only bloat an append log.
    store_->insert(std::move(rec));
    if (store_->queued() >= static_cast<std::size_t>(opt_.flushEvery))
        flushStore();
}

void
Coordinator::declareNeed(const std::string& fp, int need)
{
    anyDeclared_ = true;
    const auto [it, inserted] = fps_.emplace(fp, FpState{});
    if (inserted)
        fpOrder_.push_back(fp);
    FpState& st = it->second;
    if (need > st.need) {
        st.need = need;
        st.have.resize(static_cast<std::size_t>(need), 0);
        st.complete = false;
    }
    // Seed the bitmap from the store: episodes from earlier campaigns
    // or a pre-restart incarnation of this coordinator count (the
    // gap-fill exactly-once primitive).
    for (int i = 0; i < st.need; ++i) {
        if (st.have[static_cast<std::size_t>(i)])
            continue;
        if (store_->records().count(sweepEpisodeKey(fp, i))) {
            st.have[static_cast<std::size_t>(i)] = 1;
            ++st.haveCount;
        }
    }
    if (st.haveCount == st.need && !st.complete)
        completeFp(fp, st);
    if (opt_.verbose)
        std::fprintf(stderr, "[coord] declared %s need=%d have=%d\n",
                     fp.c_str(), st.need, st.haveCount);
}

void
Coordinator::dispatch(Conn& conn)
{
    const double now = nowSeconds();
    expireAssignments(now);
    for (const std::string& fp : fpOrder_) {
        if (!conn.declared.count(fp))
            continue; // never hand a worker a ledger it cannot run
        FpState& st = fps_[fp];
        if (st.complete)
            continue;
        // First episode that is neither stored nor in flight.
        const auto inFlight = [&st](int i) {
            for (const Assignment& a : st.assigned)
                if (i >= a.start && i < a.start + a.count)
                    return true;
            return false;
        };
        int start = -1;
        for (int i = 0; i < st.need; ++i) {
            if (!st.have[static_cast<std::size_t>(i)] && !inFlight(i)) {
                start = i;
                break;
            }
        }
        if (start < 0)
            continue; // everything missing is in flight
        // Range size: the default quantum, shrunk near the tail so the
        // last episodes spread across the fleet instead of stranding on
        // one straggler.
        int chunk = opt_.rangeEpisodes;
        const int workers = std::max(1, activeWorkers());
        const long long fair =
            (remainingUnassigned() + workers - 1) / workers;
        if (fair < chunk)
            chunk = static_cast<int>(std::max(1LL, fair));
        int count = 0;
        for (int i = start; i < st.need && count < chunk; ++i) {
            if (st.have[static_cast<std::size_t>(i)] || inFlight(i))
                break;
            ++count;
        }
        Assignment a;
        a.start = start;
        a.count = count;
        a.connId = conn.id;
        a.worker = conn.worker;
        a.since = now;
        st.assigned.push_back(std::move(a));
        ++rangesDispatched_;
        if (!conn.worker.empty()) {
            WorkerStats& ws = workers_[conn.worker];
            ++ws.rangesAssigned;
            ws.lastSeen = now;
        }
        JsonRecord r = coordwire::control("range");
        r.strings.emplace_back("fp", fp);
        r.numbers.emplace_back("start", start);
        r.numbers.emplace_back("count", count);
        sendRecord(conn, r);
        if (opt_.verbose)
            std::fprintf(stderr, "[coord] %s <- %s [%d, %d)\n",
                         conn.worker.c_str(), fp.c_str(), start,
                         start + count);
        return;
    }
    // Fin is scoped to what *this* worker declared: its campaign can be
    // complete while a differently-scoped fleet keeps working.
    bool mineComplete = !conn.declared.empty();
    for (const std::string& fp : conn.declared) {
        const auto it = fps_.find(fp);
        mineComplete = mineComplete && it != fps_.end() &&
                       it->second.complete;
    }
    if (mineComplete) {
        sendRecord(conn, coordwire::control("fin"));
        return;
    }
    // Incomplete but nothing to hand out (everything missing is in
    // flight): tell the worker when to ask again.
    JsonRecord w = coordwire::control("wait");
    w.numbers.emplace_back(
        "ms",
        std::max(50.0, std::min(1000.0, opt_.rangeTimeoutSeconds * 250.0)));
    sendRecord(conn, w);
}

void
Coordinator::serveFetch(Conn& conn, const JsonRecord& rec)
{
    const std::string fp = rec.text("fp");
    // Never past the deepest need declared here: the scan runs inside
    // the single-threaded poll loop.
    const auto st = fps_.find(fp);
    const int need = std::min(coordwire::wireInt(rec, "need"),
                              st == fps_.end() ? 0 : st->second.need);
    if (need < 0)
        return; // malformed: dropped
    const auto& view = store_->records();
    std::string buf;
    for (int i = 0; i < need; ++i) {
        const auto it = view.find(sweepEpisodeKey(fp, i));
        if (it != view.end())
            conn.enc.encodeRecord(it->second, buf);
    }
    JsonRecord done = coordwire::control("fetched");
    done.strings.emplace_back("fp", fp);
    conn.enc.encodeRecord(done, buf);
    std::string err;
    if (!wireSend(conn.fd, buf.data(), buf.size(), &err))
        conn.dead = true;
}

bool
Coordinator::sendRecord(Conn& conn, const JsonRecord& rec)
{
    std::string buf;
    conn.enc.encodeRecord(rec, buf);
    std::string err;
    if (!wireSend(conn.fd, buf.data(), buf.size(), &err)) {
        conn.dead = true;
        return false;
    }
    return true;
}

void
Coordinator::dropConn(std::size_t index, const char* why)
{
    Conn& conn = conns_[index];
    // Fold its outstanding assignments back into the pool: the missing
    // indices re-dispatch to the next requester (exactly-once is the
    // have-bitmap, so a straggler's late duplicates stay harmless).
    for (auto& [fp, st] : fps_) {
        for (auto a = st.assigned.begin(); a != st.assigned.end();) {
            if (a->connId == conn.id) {
                if (st.complete) {
                    // The fp finished but this worker never got its
                    // `done` matched (e.g. it crashed right after the
                    // final episode landed): drop the stale assignment
                    // without charging a re-dispatch.
                    a = st.assigned.erase(a);
                    continue;
                }
                ++rangesRedispatched_;
                if (!a->worker.empty())
                    ++workers_[a->worker].rangesRedispatched;
                if (opt_.verbose)
                    std::fprintf(stderr,
                                 "[coord] re-pooling %s [%d, %d) from "
                                 "dropped %s\n",
                                 fp.c_str(), a->start, a->start + a->count,
                                 conn.worker.c_str());
                a = st.assigned.erase(a);
            } else {
                ++a;
            }
        }
    }
    // A drop without `bye` may be a reset the worker is about to heal
    // by reconnecting -- possibly to fetch a campaign that just
    // completed -- so --once must not exit under it at once.
    if (!conn.bye)
        rejoinUntil_ = nowSeconds() + kRejoinGraceSeconds;
    if (opt_.verbose)
        std::fprintf(stderr, "[coord] conn %d (%s) closed: %s\n", conn.id,
                     conn.worker.empty() ? "?" : conn.worker.c_str(), why);
    ::close(conn.fd);
    conns_.erase(conns_.begin() +
                 static_cast<std::ptrdiff_t>(index));
}

void
Coordinator::expireAssignments(double now)
{
    for (auto& [fp, st] : fps_) {
        if (st.complete)
            continue; // nothing left to re-dispatch; let `done` match
        for (auto a = st.assigned.begin(); a != st.assigned.end();) {
            if (now - a->since > opt_.rangeTimeoutSeconds) {
                std::fprintf(stderr,
                             "[coord] range %s [%d, %d) timed out on %s "
                             "(%.1fs); re-dispatching\n",
                             fp.c_str(), a->start, a->start + a->count,
                             a->worker.empty() ? "?" : a->worker.c_str(),
                             now - a->since);
                ++rangesRedispatched_;
                if (!a->worker.empty())
                    ++workers_[a->worker].rangesRedispatched;
                a = st.assigned.erase(a);
            } else {
                ++a;
            }
        }
    }
}

void
Coordinator::completeFp(const std::string& fp, FpState& st)
{
    st.complete = true;
    // Outstanding assignments stay: the finishing worker's `done` (which
    // follows its episodes on the wire, i.e. arrives right after the
    // ingest that completed the fp) must still match to credit its
    // telemetry. Schedulers skip complete fps, so they are inert.
    if (opt_.verbose)
        std::fprintf(stderr, "[coord] %s complete (%d episodes)\n",
                     fp.c_str(), st.need);
}

void
Coordinator::flushStore()
{
    writeWorkerTelemetry();
    store_->publish();
    lastFlush_ = nowSeconds();
}

void
Coordinator::writeWorkerTelemetry()
{
    // One `worker|<id>` record per fleet member, refreshed every flush.
    // Pure observability: readers surface them (sweep-stats shards
    // table) but never fold them into cells, so the bit-exact diff
    // gates are untouched.
    for (const auto& [id, ws] : workers_) {
        JsonRecord r;
        r.name = sweepWorkerKey(id);
        r.numbers.emplace_back("rangesAssigned",
                               static_cast<double>(ws.rangesAssigned));
        r.numbers.emplace_back("rangesCompleted",
                               static_cast<double>(ws.rangesCompleted));
        r.numbers.emplace_back(
            "rangesRedispatched",
            static_cast<double>(ws.rangesRedispatched));
        r.numbers.emplace_back("episodes",
                               static_cast<double>(ws.episodes));
        r.numbers.emplace_back("elapsed", ws.lastSeen - ws.firstSeen);
        if (!ws.rangeWallMs.empty()) {
            r.numbers.emplace_back("rangeP50Ms",
                                   percentile(ws.rangeWallMs, 50.0));
            r.numbers.emplace_back("rangeP95Ms",
                                   percentile(ws.rangeWallMs, 95.0));
        }
        store_->put(std::move(r));
    }
}

bool
Coordinator::allComplete() const
{
    for (const auto& [fp, st] : fps_)
        if (!st.complete)
            return false;
    return anyDeclared_;
}

long long
Coordinator::remainingUnassigned() const
{
    long long remaining = 0;
    for (const auto& [fp, st] : fps_) {
        if (st.complete)
            continue;
        long long inFlight = 0;
        for (const Assignment& a : st.assigned)
            inFlight += a.count;
        const long long missing = st.need - st.haveCount - inFlight;
        if (missing > 0)
            remaining += missing;
    }
    return remaining;
}

int
Coordinator::activeWorkers() const
{
    int n = 0;
    for (const Conn& c : conns_)
        if (!c.worker.empty())
            ++n;
    return n;
}

} // namespace create
