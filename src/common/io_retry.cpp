#include "common/io_retry.hpp"

#include <cerrno>
#include <cstring>
#include <ctime>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace create::io {

void sleepMs(int ms)
{
    if (ms <= 0)
        return;
    timespec req{};
    req.tv_sec = ms / 1000;
    req.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
    timespec rem{};
    while (::nanosleep(&req, &rem) != 0 && errno == EINTR)
        req = rem;
}

int openRetry(const char* path, int flags, unsigned mode)
{
    for (;;)
    {
        const int fd = ::open(path, flags, static_cast<mode_t>(mode));
        if (fd >= 0 || errno != EINTR)
            return fd;
    }
}

std::FILE* fopenRetry(const char* path, const char* mode)
{
    for (;;)
    {
        std::FILE* f = std::fopen(path, mode);
        if (f || errno != EINTR)
            return f;
    }
}

bool renameRetry(const char* from, const char* to, std::string* error)
{
    int lastErr = 0;
    for (int attempt = 0; attempt < kRetryAttempts; ++attempt)
    {
        if (attempt > 0)
            sleepMs(kRetryBaseMs << (attempt - 1));
        if (::rename(from, to) == 0)
            return true;
        lastErr = errno;
        if (lastErr == EINTR)
        {
            --attempt; // EINTR does not consume the backoff budget
            continue;
        }
    }
    if (error)
        *error = std::string("rename: ") + std::strerror(lastErr);
    return false;
}

bool writeFull(int fd, const void* buf, std::size_t n, std::string* error)
{
    const auto* p = static_cast<const char*>(buf);
    std::size_t sent = 0;
    int backoff = 0;
    while (sent < n)
    {
        // MSG_NOSIGNAL: a dead peer surfaces as EPIPE, not SIGPIPE.
        const ssize_t w = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
        if (w > 0)
        {
            sent += static_cast<std::size_t>(w);
            backoff = 0;
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) &&
            backoff < kRetryAttempts)
        {
            sleepMs(kRetryBaseMs << backoff++);
            continue;
        }
        if (error)
            *error = std::string("write: ") + std::strerror(errno) +
                     " (after " + std::to_string(sent) + " of " +
                     std::to_string(n) + " bytes)";
        return false;
    }
    return true;
}

int connectRetry(const std::string& host, int port, int attempts,
                 std::string* error)
{
    const std::string service = std::to_string(port);
    int lastErr = 0;
    std::string detail;
    for (int attempt = 0; attempt < attempts; ++attempt)
    {
        if (attempt > 0)
        {
            int ms = kRetryBaseMs << (attempt - 1 > 10 ? 10 : attempt - 1);
            if (ms > kConnectBackoffCapMs)
                ms = kConnectBackoffCapMs; // long budgets stay responsive
            sleepMs(ms);
        }
        addrinfo hints{};
        hints.ai_family = AF_UNSPEC;
        hints.ai_socktype = SOCK_STREAM;
        addrinfo* res = nullptr;
        const int gai = ::getaddrinfo(host.c_str(), service.c_str(),
                                      &hints, &res);
        if (gai != 0)
        {
            detail = std::string("resolve ") + host + ": " +
                     ::gai_strerror(gai);
            continue; // transient DNS blips retry too
        }
        for (addrinfo* ai = res; ai; ai = ai->ai_next)
        {
            const int fd = ::socket(ai->ai_family, ai->ai_socktype,
                                    ai->ai_protocol);
            if (fd < 0)
            {
                lastErr = errno;
                continue;
            }
            int rc;
            do
                rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
            while (rc != 0 && errno == EINTR);
            if (rc == 0)
            {
                const int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
                ::freeaddrinfo(res);
                return fd;
            }
            lastErr = errno;
            ::close(fd);
        }
        ::freeaddrinfo(res);
        detail = "connect " + host + ":" + service + ": " +
                 std::strerror(lastErr);
    }
    if (error)
        *error = detail + " (gave up after " + std::to_string(attempts) +
                 " attempts)";
    return -1;
}

FdCloser::~FdCloser()
{
    if (fd_ >= 0)
        ::close(fd_);
}

} // namespace create::io
