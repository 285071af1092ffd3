#pragma once

/**
 * @file
 * EINTR-safe, bounded-backoff wrappers for the store I/O syscalls.
 *
 * The campaign result store is rewritten after every flush batch, often
 * from signal-heavy environments (chaos harness, CI runners, profilers),
 * so every open/fopen/rename on the store path must tolerate EINTR, and
 * transient write failures (ENOSPC racing a log rotation, EIO blips on
 * network filesystems) get a bounded exponential backoff before the
 * caller escalates to a terminal error. The wrappers never mask a real
 * failure: after the retry budget they return the failure with errno
 * intact so the caller can fail the campaign loudly instead of silently
 * dropping a flush batch.
 *
 * The socket half (writeFull/connectRetry) extends the same discipline
 * to the campaign coordinator's wire: partial writes loop, EINTR never
 * counts against the budget, EAGAIN on a blocking socket (SO_SNDTIMEO)
 * gets the bounded backoff, and a give-up surfaces the errno detail
 * loudly instead of a silent short transfer. (Reads go through
 * binlog::StreamDecoder, which buffers whatever arrives.)
 */

#include <cstddef>
#include <cstdio>
#include <string>

namespace create::io {

/** Retry budget shared by the backoff wrappers: attempt k sleeps
 *  kRetryBaseMs << k before retrying, so 5 attempts span ~310 ms. */
constexpr int kRetryAttempts = 5;
constexpr int kRetryBaseMs = 10;

/** connectRetry's longest sleep between two attempts. */
constexpr int kConnectBackoffCapMs = 2000;

/** EINTR-safe sleep. */
void sleepMs(int ms);

/** open(2), retrying EINTR. Returns the fd, or -1 with errno set. */
int openRetry(const char* path, int flags, unsigned mode = 0644);

/** fopen(3), retrying EINTR. */
std::FILE* fopenRetry(const char* path, const char* mode);

/**
 * rename(2) with EINTR retry plus bounded exponential backoff on any
 * other failure. On terminal failure returns false and, when `error` is
 * non-null, fills it with the errno detail.
 */
bool renameRetry(const char* from, const char* to,
                 std::string* error = nullptr);

/**
 * write(2) all `n` bytes of `buf`. Partial writes loop; EINTR is free;
 * EAGAIN/EWOULDBLOCK consumes the bounded backoff budget. False on
 * give-up (EPIPE, ECONNRESET, exhausted backoff) with the errno detail
 * in `error`.
 */
bool writeFull(int fd, const void* buf, std::size_t n,
               std::string* error = nullptr);

/**
 * TCP-connect to host:port, retrying refusals/unreachables with
 * exponential backoff (base kRetryBaseMs, capped at kConnectBackoffCapMs
 * per sleep) for up to `attempts` tries — enough for a coordinator
 * restarting mid-campaign when callers raise the budget. Returns the
 * connected fd, or -1 with the resolver/errno detail in `error`.
 */
int connectRetry(const std::string& host, int port,
                 int attempts = kRetryAttempts,
                 std::string* error = nullptr);

/** Closes an fd on scope exit (and on the throw paths between locked
 *  store operations); -1 is a no-op. */
class FdCloser
{
  public:
    explicit FdCloser(int fd) : fd_(fd) {}
    FdCloser(const FdCloser&) = delete;
    FdCloser& operator=(const FdCloser&) = delete;
    ~FdCloser();

  private:
    int fd_;
};

} // namespace create::io
