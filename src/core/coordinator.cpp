#include "core/coordinator.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/chaos.hpp"
#include "common/io_retry.hpp"
#include "common/store_keys.hpp"

namespace create {

namespace {

// stop() runs in create-coordinator's signal handler, where only
// lock-free atomics may be touched.
static_assert(std::atomic<bool>::is_always_lock_free,
              "Coordinator::stop() must be async-signal-safe");

/** Records stored per publish (besides every range boundary and at
 *  least once a second). */
constexpr std::size_t kFlushEvery = 64;

/** Steady-clock seconds: every timestamp the coordinator compares is
 *  its own, so wall-clock jumps must not expire assignments. */
double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

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
        if (keep > 0)
            io::writeFull(fd, data, keep);
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
    handshake_.clear();
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
    // The stream header and the hello go out with the first send(), so
    // a reset that cuts them fails that send like any other.
    binlog::FrameEncoder::encodeHeader(handshake_);
    JsonRecord hello = coordwire::control("hello");
    hello.strings.emplace_back("worker", workerId);
    hello.numbers.emplace_back("proto", 1.0);
    enc_.encodeRecord(hello, handshake_);
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
    out.swap(handshake_);
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
        if (n > 0 && dec_.feed(buf, static_cast<std::size_t>(n)))
            continue;
        if (error)
            *error = n == 0  ? "coordinator closed the connection"
                     : n < 0 ? std::string("read: ") + std::strerror(errno)
                             : "corrupt frame stream from coordinator";
        close();
        return false;
    }
}

// ----------------------------------------------------------- coordinator

Coordinator::~Coordinator()
{
    for (const auto& [id, c] : conns_)
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
    lastFlush_ = nowSeconds();
    core_ = std::make_unique<CoordCore>(opt_, *store_, lastFlush_);

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
        std::vector<int> ids; // the connection behind pfds[p + 1]
        pfds.reserve(conns_.size() + 1);
        pfds.push_back(pollfd{listenFd_, POLLIN, 0});
        for (const auto& [id, c] : conns_) {
            pfds.push_back(pollfd{c.fd, POLLIN, 0});
            ids.push_back(id);
        }
        const int rc = ::poll(pfds.data(),
                              static_cast<nfds_t>(pfds.size()), 100);
        if (rc < 0 && errno != EINTR) {
            std::fprintf(stderr, "[coord] poll: %s\n", std::strerror(errno));
            break;
        }
        if (rc > 0) {
            if (pfds[0].revents & POLLIN)
                acceptConns();
            // Process by id: a drop mid-loop erases from conns_, so the
            // pollfd list (a snapshot) is the safe thing to walk.
            for (std::size_t p = 1; p < pfds.size(); ++p)
                if (pfds[p].revents & (POLLIN | POLLHUP | POLLERR))
                    handleReadable(ids[p - 1]);
        }
        const double now = nowSeconds();
        const bool over = core_->tick(now, frames_);
        sendFrames();
        if (over)
            break;
        if (store_->queued() > 0 && now - lastFlush_ >= 1.0)
            flushStore();
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
        if (!wireSend(fd, hdr.data(), hdr.size(), nullptr)) {
            ::close(fd);
            continue;
        }
        const int id = nextConnId_++;
        conns_[id].fd = fd;
        core_->open(id);
        if (opt_.verbose)
            std::fprintf(stderr, "[coord] conn %d accepted\n", id);
    }
}

void
Coordinator::handleReadable(int id)
{
    char buf[65536];
    // A failed send drops the connection it went to, this one included,
    // so each pass looks the connection up again.
    for (auto it = conns_.find(id); it != conns_.end(); it = conns_.find(id)) {
        Conn& conn = it->second;
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        if (n <= 0 || !conn.dec.feed(buf, static_cast<std::size_t>(n))) {
            dropConn(id, n < 0    ? std::strerror(errno)
                         : n == 0 ? "disconnected"
                                  : "corrupt frame stream");
            return sendFrames();
        }
        JsonRecord rec;
        while (conns_.count(id) && conn.dec.pop(rec))
            deliver(id, std::move(rec));
    }
}

void
Coordinator::deliver(int id, JsonRecord&& rec)
{
    const bool boundary =
        core_->receive(id, std::move(rec), nowSeconds(), frames_);
    sendFrames();
    // A range boundary lands the batch; so does a full one.
    if (store_->queued() >= (boundary ? 1 : kFlushEvery))
        flushStore();
}

void
Coordinator::dropConn(int id, const char* why)
{
    const auto it = conns_.find(id);
    ::close(it->second.fd);
    conns_.erase(it);
    core_->close(id, why, nowSeconds(), frames_);
}

void
Coordinator::sendFrames()
{
    // Consecutive frames to one connection go out in one send. A failed
    // send drops its connection at once, and the frames that drop frees
    // join the end of the queue this loop is walking.
    std::string buf;
    for (std::size_t i = 0; i < frames_.size();) {
        const int id = frames_[i].conn;
        const auto it = conns_.find(id);
        buf.clear();
        for (; i < frames_.size() && frames_[i].conn == id; ++i)
            if (it != conns_.end())
                it->second.enc.encodeRecord(frames_[i].rec, buf);
        if (it != conns_.end() &&
            !wireSend(it->second.fd, buf.data(), buf.size(), nullptr))
            dropConn(id, "send failed");
    }
    frames_.clear();
}

void
Coordinator::flushStore()
{
    core_->putTelemetry();
    store_->publish();
    lastFlush_ = nowSeconds();
}

} // namespace create
