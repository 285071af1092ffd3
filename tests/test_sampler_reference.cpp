/** @file
 *  The fault-injection sampler against a verbatim copy of its original
 *  implementation, kept here as the reference: Rng::binomial with
 *  Rng::poisson (one std::exp per Knuth draw, chance(p) per trial),
 *  Rng::sampleDistinct (a std::vector and a std::unordered_set per
 *  flipping bit) and BitFlipInjector::inject's loop over them. The
 *  production sampler must draw the same random numbers in the same
 *  order and flip the same bits: equal accumulators, positions and flip
 *  counts, and an equal Rng state afterwards. It must also make no heap
 *  allocation once a thread has warmed up, which the counting global
 *  operator new of alloc_counter.hpp checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "fault/error_model.hpp"
#include "fault/injector.hpp"

#include "alloc_counter.hpp"

namespace create {
namespace {

// --- reference: the original sampler, over Rng's public draws ------------

std::uint64_t
refPoisson(Rng& rng, double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's multiplication method.
        const double limit = std::exp(-mean);
        double prod = rng.uniform();
        std::uint64_t k = 0;
        while (prod > limit) {
            prod *= rng.uniform();
            ++k;
        }
        return k;
    }
    // Normal approximation with continuity correction.
    const double draw = rng.normal(mean, std::sqrt(mean));
    return draw < 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

std::uint64_t
refBinomial(Rng& rng, std::uint64_t n, double p)
{
    if (n == 0 || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    const double np = static_cast<double>(n) * p;
    if (n <= 64) {
        std::uint64_t k = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            k += rng.chance(p) ? 1 : 0;
        return k;
    }
    if (np < 25.0) {
        // Poisson limit; accurate for the tiny BERs the injector uses.
        std::uint64_t k = refPoisson(rng, np);
        return k > n ? n : k;
    }
    const double sigma = std::sqrt(np * (1.0 - p));
    const double draw = rng.normal(np, sigma);
    if (draw < 0.0)
        return 0;
    const auto k = static_cast<std::uint64_t>(draw + 0.5);
    return k > n ? n : k;
}

std::vector<std::uint64_t>
refSampleDistinct(Rng& rng, std::uint64_t n, std::uint64_t k)
{
    std::vector<std::uint64_t> out;
    out.reserve(k);
    if (k >= n) {
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back(i);
        return out;
    }
    // Rejection sampling is fine: injector draws k << n.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(k * 2);
    while (out.size() < k) {
        const std::uint64_t idx = rng.below(n);
        if (seen.insert(idx).second)
            out.push_back(idx);
    }
    return out;
}

std::uint64_t
refInject(std::int32_t* acc, std::size_t n, const std::vector<double>& bitRates,
          Rng& rng, std::vector<std::size_t>* positionsOut)
{
    std::uint64_t flips = 0;
    for (int bit = 0; bit < kAccumulatorBits &&
                      bit < static_cast<int>(bitRates.size()); ++bit) {
        const double p = bitRates[static_cast<std::size_t>(bit)];
        if (p <= 0.0)
            continue;
        const std::uint64_t k = refBinomial(rng, n, p);
        if (k == 0)
            continue;
        const auto positions = refSampleDistinct(rng, n, k);
        for (auto idx : positions) {
            acc[idx] = BitFlipInjector::flipBit(acc[idx], bit);
            if (positionsOut)
                positionsOut->push_back(static_cast<std::size_t>(idx));
        }
        flips += k;
    }
    return flips;
}

// --- the grid --------------------------------------------------------------

/** Output counts: both sides of the n <= 64 branch, the Mine controller's
 *  GEMMs (48, 144, 432, 9) and a large conv-sized buffer. */
const std::size_t kSizes[] = {1, 2, 9, 48, 64, 65, 144, 432, 896, 2688, 65536};

enum class RateKind
{
    Uniform,    //!< one BER for all bits, log-uniform over 1e-10..1e-1
    LogUniform, //!< per-bit rates, each log-uniform over 1e-10..1e-1
    Voltage,    //!< TimingErrorModel at 0.60-0.90 V
    Sparse,     //!< ~30% of bits at a random p in (0, 1), the rest 0
    Sat075,     //!< every bit at 0.75 (k reaches n for small n)
    Sat1,       //!< every bit at 1.0 (always k = n)
};

const RateKind kKinds[] = {RateKind::Uniform, RateKind::LogUniform,
                           RateKind::Voltage, RateKind::Sparse,
                           RateKind::Sat075,  RateKind::Sat1};

std::vector<double>
makeRates(RateKind kind, Rng& g)
{
    std::vector<double> rates(kAccumulatorBits, 0.0);
    switch (kind) {
      case RateKind::Uniform:
        rates.assign(kAccumulatorBits, std::pow(10.0, g.uniform(-10.0, -1.0)));
        break;
      case RateKind::LogUniform:
        for (auto& r : rates)
            r = std::pow(10.0, g.uniform(-10.0, -1.0));
        break;
      case RateKind::Voltage:
        rates = TimingErrorModel(g.uniform(0.60, 0.90)).bitRates();
        break;
      case RateKind::Sparse:
        for (auto& r : rates)
            if (g.chance(0.3))
                while (r <= 0.0)
                    r = g.uniform();
        break;
      case RateKind::Sat075:
        rates.assign(kAccumulatorBits, 0.75);
        break;
      case RateKind::Sat1:
        rates.assign(kAccumulatorBits, 1.0);
        break;
    }
    return rates;
}

struct GridResult
{
    int cases = 0;
    int mismatches = 0;
    std::uint64_t allocations = 0; //!< by production inject() calls
    std::string firstMismatch;
};

/**
 * Run every (size, rate kind, positionsOut) cell `reps` times, except the
 * 65536-element cells, which cost ~100x the rest and run once; take the
 * cases i with i % stride == offset. Each case seeds one production and
 * one reference Rng alike and makes 3 injects on each.
 */
GridResult
runGrid(std::uint64_t seed, int reps, int stride, int offset)
{
    GridResult res;
    // Warm-up: grow this thread's dedupe stamps to the largest size.
    {
        std::vector<std::int32_t> acc(65536, 0);
        Rng rng(seed);
        BitFlipInjector::inject(acc.data(), acc.size(),
                                std::vector<double>(kAccumulatorBits, 1e-3),
                                rng);
    }
    Rng g(seed);
    int cell = 0;
    for (const std::size_t n : kSizes)
        for (int rep = 0; rep < (n == 65536 ? 1 : reps); ++rep)
            for (const RateKind kind : kKinds)
                for (const bool withPositions : {false, true}) {
                    if (cell++ % stride != offset)
                        continue;
                    ++res.cases;
                    const auto rates = makeRates(kind, g);
                    std::vector<std::int32_t> accRef(n);
                    for (auto& a : accRef)
                        a = static_cast<std::int32_t>(g.below(1u << 24)) -
                            (1 << 23);
                    std::vector<std::int32_t> accProd = accRef;
                    const std::uint64_t caseSeed = g.next();
                    Rng ref(caseSeed), prod(caseSeed);
                    bool same = true;
                    for (int call = 0; call < 3; ++call) {
                        std::vector<std::size_t> posRef, posProd;
                        const auto flipsRef =
                            refInject(accRef.data(), n, rates, ref,
                                      withPositions ? &posRef : nullptr);
                        // Room for the expected positions, so any
                        // allocation counted below is inject()'s own.
                        posProd.reserve(posRef.size());
                        const std::uint64_t before = tAllocations;
                        const auto flipsProd =
                            BitFlipInjector::inject(
                                accProd.data(), n, rates, prod,
                                withPositions ? &posProd : nullptr)
                                .flips;
                        res.allocations += tAllocations - before;
                        same = same && flipsRef == flipsProd &&
                               posRef == posProd &&
                               std::memcmp(accRef.data(), accProd.data(),
                                           n * sizeof(std::int32_t)) == 0;
                    }
                    // The Rng state: one raw draw, then one normal, which
                    // also tells the spare-normal caches apart.
                    same = same && ref.next() == prod.next() &&
                           ref.normal() == prod.normal();
                    if (!same && res.mismatches++ == 0)
                        res.firstMismatch =
                            "n=" + std::to_string(n) +
                            " kind=" + std::to_string(static_cast<int>(kind)) +
                            " positions=" + std::to_string(withPositions) +
                            " seed=" + std::to_string(caseSeed);
                }
    return res;
}

/** Cases a grid of `reps` runs: 10 sizes x reps, plus the large size once,
 *  each with 6 rate kinds, with and without positionsOut. */
int
gridCases(int reps)
{
    return (10 * reps + 1) * 6 * 2;
}

TEST(SamplerReference, MatchesOriginalSamplerBitForBit)
{
    const GridResult res = runGrid(0x5A3D1E, 8, 1, 0);
    EXPECT_EQ(res.cases, gridCases(8));
    EXPECT_EQ(res.mismatches, 0) << "first: " << res.firstMismatch;
    EXPECT_EQ(res.allocations, 0u);
}

TEST(SamplerReference, MatchesOnFourThreads)
{
    // Four threads split the grid's cells. Each warms and uses its own
    // sampling scratch; they share nothing mutable.
    constexpr int kThreads = 4;
    std::vector<GridResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&results, t] {
            results[static_cast<std::size_t>(t)] =
                runGrid(0x7EAD5, 8, kThreads, t);
        });
    for (auto& th : threads)
        th.join();
    int cases = 0;
    for (const auto& res : results) {
        cases += res.cases;
        EXPECT_EQ(res.mismatches, 0) << "first: " << res.firstMismatch;
        EXPECT_EQ(res.allocations, 0u);
    }
    EXPECT_EQ(cases, gridCases(8));
}

} // namespace
} // namespace create
