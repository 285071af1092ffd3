#include "common/rng.hpp"

#include <cmath>
#include <cstddef>
#include <cstring>

namespace create {

namespace {

std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/**
 * Memo of Knuth's Poisson limit exp(-mean), direct-mapped on the exact
 * bits of `mean`. std::exp is a pure function, so a hit returns the very
 * double a fresh call would. Zero-initialized: key 0 is the bits of +0.0,
 * which no Knuth mean (always > 0) has, so an empty slot always misses.
 */
struct PoissonLimitMemo
{
    static constexpr std::size_t kSlots = 128;
    std::uint64_t keys[kSlots];
    double limits[kSlots];

    double limit(double mean)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &mean, sizeof bits);
        // Fibonacci hashing: the top 7 bits of the product pick one of 128
        // slots, mixing the low mantissa bits that tell nearby means apart.
        static_assert(kSlots == 128, "slot index takes the top 7 bits");
        const std::size_t slot = (bits * 0x9E3779B97F4A7C15ull) >> 57;
        if (keys[slot] != bits) {
            keys[slot] = bits;
            limits[slot] = std::exp(-mean);
        }
        return limits[slot];
    }
};

/** One memo per thread, so Rng stays free of shared state. The injector
 *  draws with few distinct means: one per (GEMM size, bit rate). */
thread_local PoissonLimitMemo tPoissonLimits;

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::below(std::uint64_t n)
{
    // Lemire's nearly-divisionless bounded sampling; bias is negligible for
    // the ranges used here but we reject to keep draws exact.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
        const std::uint64_t threshold = -n % n;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * n;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::rangeInclusive(std::int64_t lo, std::int64_t hi)
{
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = r * std::sin(theta);
    hasSpareNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's multiplication method.
        const double limit = tPoissonLimits.limit(mean);
        double prod = uniform();
        std::uint64_t k = 0;
        while (prod > limit) {
            prod *= uniform();
            ++k;
        }
        return k;
    }
    // Normal approximation with continuity correction.
    const double draw = normal(mean, std::sqrt(mean));
    return draw < 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

std::uint64_t
Rng::binomial(std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    const double np = static_cast<double>(n) * p;
    if (n <= 64) {
        // chance(p) per trial, as an integer compare (see the header).
        const auto threshold =
            static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
        std::uint64_t k = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            k += (next() >> 11) < threshold ? 1 : 0;
        return k;
    }
    if (np < 25.0) {
        // Poisson limit; accurate for the tiny BERs the injector uses.
        std::uint64_t k = poisson(np);
        return k > n ? n : k;
    }
    const double sigma = std::sqrt(np * (1.0 - p));
    const double draw = normal(np, sigma);
    if (draw < 0.0)
        return 0;
    const auto k = static_cast<std::uint64_t>(draw + 0.5);
    return k > n ? n : k;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xA3EC647659359ACDull);
}

} // namespace create
