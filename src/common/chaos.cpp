#include "common/chaos.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>

#include <fcntl.h>
#include <unistd.h>

#include "common/io_retry.hpp"

namespace create::chaos {
namespace {

double parseProb(const std::string& v)
{
    char* end = nullptr;
    const double p = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || (end && *end != '\0'))
        return 0.0;
    return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
}

std::mt19937_64& rng()
{
    static std::mt19937_64 gen = [] {
        if (const char* seed = std::getenv("CREATE_CHAOS_SEED"))
            return std::mt19937_64(std::strtoull(seed, nullptr, 10));
        // Default: per-process schedule so concurrent workers draw
        // different faults.
        return std::mt19937_64(0x9e3779b97f4a7c15ULL ^
                               static_cast<unsigned long long>(::getpid()));
    }();
    return gen;
}

std::mutex& rngMu()
{
    static std::mutex mu;
    return mu;
}

bool roll(double p)
{
    if (p <= 0.0)
        return false;
    std::lock_guard<std::mutex> lock(rngMu());
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng()) < p;
}

} // namespace

Config parseChaosSpec(const char* spec)
{
    Config cfg;
    if (!spec)
        return cfg;
    const std::string s(spec);
    std::size_t pos = 0;
    while (pos < s.size())
    {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string item = s.substr(pos, comma - pos);
        pos = comma + 1;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            continue;
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        if (key == "abort")
            cfg.abortBeforeFlush = parseProb(val);
        else if (key == "tear")
            cfg.tearWrite = parseProb(val);
        else if (key == "connreset")
            cfg.connReset = parseProb(val);
    }
    return cfg;
}

const Config& config()
{
    static const Config cfg = parseChaosSpec(std::getenv("CREATE_CHAOS"));
    return cfg;
}

void maybeAbortBeforeFlush()
{
    if (!roll(config().abortBeforeFlush))
        return;
    std::fprintf(stderr,
                 "[chaos] aborting worker %d before flush (abort=%g)\n",
                 static_cast<int>(::getpid()), config().abortBeforeFlush);
    std::fflush(stderr);
    ::_exit(137);
}

bool maybeTearWrite(const std::string& path)
{
    if (!roll(config().tearWrite))
        return false;
    const int fd = path.empty() ? -1 : io::openRetry(path.c_str(), O_RDWR);
    if (fd < 0)
        return false;
    io::FdCloser closeStore(fd);
    const off_t size = ::lseek(fd, 0, SEEK_END);
    double keepFraction = 0.0;
    {
        std::lock_guard<std::mutex> lock(rngMu());
        keepFraction =
            std::uniform_real_distribution<double>(0.05, 0.95)(rng());
    }
    const auto keep =
        static_cast<off_t>(static_cast<double>(size) * keepFraction);
    if (size <= 0 || ::ftruncate(fd, keep) != 0)
        return false;
    std::fprintf(stderr, "[chaos] tore store %s to %lld of %lld bytes\n",
                 path.c_str(), static_cast<long long>(keep),
                 static_cast<long long>(size));
    return true;
}

bool shouldConnReset()
{
    return roll(config().connReset);
}

double connResetKeepFraction()
{
    std::lock_guard<std::mutex> lock(rngMu());
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng());
}

} // namespace create::chaos
