#pragma once

/**
 * @file
 * Deterministic pseudo-random number generation for the whole repository.
 *
 * Every stochastic component (error injection, environment dynamics, weight
 * init, policy search) takes an explicit Rng so experiments are reproducible
 * bit-for-bit given a seed. The generator is xoshiro256** seeded through
 * splitmix64, which is fast and has no observable correlations at the sample
 * counts this project draws.
 */

#include <cstdint>

namespace create {

/** Counter-based deterministic RNG (xoshiro256** with splitmix64 seeding). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). n must be > 0. */
    std::uint64_t below(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t rangeInclusive(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller. */
    double normal();

    /** Normal with the given mean / stddev. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with success probability p. */
    bool chance(double p);

    /**
     * Number of successes out of n trials with probability p.
     *
     * This is the hot path of the fault injector, where n is a GEMM's
     * output count and p a bit error rate as low as 1e-10. Three branches:
     *  - n <= 64: n exact Bernoulli draws. Each is chance(p), i.e.
     *    uniform() < p with uniform() = j * 2^-53 for j = next() >> 11.
     *    Scaling by 2^53 is exact, so the test is the integer compare
     *    j < ceil(p * 2^53), with the threshold hoisted out of the loop:
     *    the same n draws and the same outcomes as chance(p).
     *  - np < 25: poisson(np), which below mean 30 is Knuth's method
     *    with a memoized limit (see poisson).
     *  - otherwise: a normal approximation with continuity correction.
     */
    std::uint64_t binomial(std::uint64_t n, double p);

    /**
     * Poisson draw with the given mean: Knuth's multiplication method
     * below mean 30, a normal approximation above. Knuth's limit
     * exp(-mean) comes from a small per-thread memo keyed on the exact
     * bits of `mean`; std::exp is a pure function, so a hit returns the
     * very double a fresh call would, and the draws are the same.
     */
    std::uint64_t poisson(double mean);

    /** Derive an independent child stream (for parallel-safe substreams). */
    Rng split();

  private:
    std::uint64_t s_[4];
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

} // namespace create
