/** @file Unit + property tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"

using namespace create;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(8);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng r(9);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(10);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowCoversAllValues)
{
    Rng r(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveHitsEndpoints)
{
    Rng r(12);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.rangeInclusive(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        lo |= v == 2;
        hi |= v == 5;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, NormalMoments)
{
    Rng r(13);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng r(14);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    EXPECT_FALSE(r.chance(-1.0));
    EXPECT_TRUE(r.chance(2.0));
}

TEST(Rng, PoissonMean)
{
    Rng r(15);
    for (double mean : {0.5, 3.0, 40.0}) {
        double sum = 0.0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(r.poisson(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05);
    }
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(18);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

/** Property: binomial sample means track n*p across regimes (exact,
 *  Poisson-approximated, and normal-approximated paths). */
class BinomialMean
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>>
{
};

TEST_P(BinomialMean, MatchesExpectation)
{
    const auto [n, p] = GetParam();
    Rng r(99 + n);
    double sum = 0.0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i)
        sum += static_cast<double>(r.binomial(n, p));
    const double expected = static_cast<double>(n) * p;
    const double sigma =
        std::sqrt(static_cast<double>(n) * p * (1.0 - p) /
                  static_cast<double>(trials));
    EXPECT_NEAR(sum / trials, expected, 6.0 * sigma + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMean,
    ::testing::Values(std::make_tuple(10ull, 0.3), std::make_tuple(64ull, 0.5),
                      std::make_tuple(1000ull, 1e-3),
                      std::make_tuple(100000ull, 1e-4),
                      std::make_tuple(1000000ull, 1e-6),
                      std::make_tuple(5000ull, 0.4),
                      std::make_tuple(100000ull, 0.01)));

TEST(Rng, BinomialEdgeCases)
{
    Rng r(20);
    EXPECT_EQ(r.binomial(0, 0.5), 0u);
    EXPECT_EQ(r.binomial(100, 0.0), 0u);
    EXPECT_EQ(r.binomial(100, 1.0), 100u);
}
