/** @file Tests for quantization and the fault models/injector. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "fault/error_model.hpp"
#include "fault/injector.hpp"
#include "quant/quant.hpp"

using namespace create;

// --- quantization ----------------------------------------------------------

TEST(Quant, MaxLevels)
{
    EXPECT_EQ(quantMaxLevel(QuantBits::Int8), 127);
    EXPECT_EQ(quantMaxLevel(QuantBits::Int4), 7);
}

TEST(Quant, RoundTripErrorBoundedByHalfScale)
{
    Rng rng(3);
    Tensor t({256});
    for (std::int64_t i = 0; i < t.numel(); ++i)
        t[i] = static_cast<float>(rng.uniform(-4.0, 4.0));
    const auto qp = QuantParams::fromAbsMax(4.0f, QuantBits::Int8);
    const auto q = quantize(t, qp);
    const Tensor back = dequantize(q, t.shape(), qp);
    for (std::int64_t i = 0; i < t.numel(); ++i)
        EXPECT_LE(std::fabs(back[i] - t[i]), qp.scale * 0.5f + 1e-6f);
}

TEST(Quant, SaturatesOutOfRange)
{
    Tensor t({2}, {100.0f, -100.0f});
    const auto qp = QuantParams::fromAbsMax(1.0f);
    const auto q = quantize(t, qp);
    EXPECT_EQ(q[0], 127);
    EXPECT_EQ(q[1], -127);
}

TEST(Quant, Int4UsesSevenLevels)
{
    Tensor t({1}, {7.0f});
    const auto qp = QuantParams::fromAbsMax(7.0f, QuantBits::Int4);
    EXPECT_FLOAT_EQ(qp.scale, 1.0f);
    EXPECT_EQ(quantize(t, qp)[0], 7);
}

TEST(Quant, DegenerateAbsMaxGuarded)
{
    const auto qp = QuantParams::fromAbsMax(0.0f);
    EXPECT_GT(qp.scale, 0.0f);
}

TEST(Quant, ObserverTracksMax)
{
    AbsMaxObserver obs;
    EXPECT_FALSE(obs.seeded());
    obs.observe(Tensor({2}, {1.0f, -3.0f}));
    obs.observe(Tensor({1}, {2.0f}));
    EXPECT_TRUE(obs.seeded());
    EXPECT_FLOAT_EQ(obs.absMax(), 3.0f);
    obs.reset();
    EXPECT_FALSE(obs.seeded());
}

// --- error models ------------------------------------------------------------

TEST(ErrorModel, UniformRatesEqualBer)
{
    UniformErrorModel m(1e-4);
    for (int b = 0; b < kAccumulatorBits; ++b)
        EXPECT_DOUBLE_EQ(m.bitRate(b), 1e-4);
    EXPECT_NEAR(m.meanBitRate(), 1e-4, 1e-12);
}

TEST(ErrorModel, TimingModelMeanMatchesBerCurve)
{
    for (double v : {0.85, 0.80, 0.75, 0.70, 0.65}) {
        TimingErrorModel m(v);
        EXPECT_NEAR(m.meanBitRate(), TimingErrorModel::berAtVoltage(v),
                    TimingErrorModel::berAtVoltage(v) * 0.05);
    }
}

TEST(ErrorModel, HigherBitsFailFirst)
{
    TimingErrorModel m(0.75);
    for (int b = 1; b < kAccumulatorBits; ++b)
        EXPECT_GE(m.bitRate(b), m.bitRate(b - 1));
    EXPECT_GT(m.bitRate(23), 100.0 * m.bitRate(0));
}

/** Property: BER grows monotonically as voltage drops (Fig. 1(b)). */
class BerMonotone : public ::testing::TestWithParam<double>
{
};

TEST_P(BerMonotone, LowerVoltageHigherBer)
{
    const double v = GetParam();
    EXPECT_GE(TimingErrorModel::berAtVoltage(v - 0.05),
              TimingErrorModel::berAtVoltage(v));
}

INSTANTIATE_TEST_SUITE_P(Voltages, BerMonotone,
                         ::testing::Values(0.90, 0.85, 0.80, 0.75, 0.70,
                                           0.65));

TEST(ErrorModel, NominalVoltageEffectivelyErrorFree)
{
    EXPECT_LE(TimingErrorModel::berAtVoltage(0.90), 1e-9);
    EXPECT_LE(TimingErrorModel::berAtVoltage(0.95), 1e-9);
}

TEST(ErrorModel, AnchorsInPaperRegime)
{
    // ~1e-7..1e-8 at 0.85 V; ~1e-4 at 0.75 V; >=1e-3 at 0.65 V.
    const double b85 = TimingErrorModel::berAtVoltage(0.85);
    EXPECT_GT(b85, 1e-9);
    EXPECT_LT(b85, 1e-6);
    EXPECT_NEAR(std::log10(TimingErrorModel::berAtVoltage(0.75)), -4.0, 1.0);
    EXPECT_GE(TimingErrorModel::berAtVoltage(0.65), 1e-3);
}

// --- injector ------------------------------------------------------------------

TEST(Injector, SignExtend24)
{
    EXPECT_EQ(BitFlipInjector::signExtend24(0x00800000), -8388608);
    EXPECT_EQ(BitFlipInjector::signExtend24(0x007FFFFF), 8388607);
    EXPECT_EQ(BitFlipInjector::signExtend24(5), 5);
    EXPECT_EQ(BitFlipInjector::signExtend24(-5), -5);
}

TEST(Injector, FlipBitIsInvolution)
{
    for (int bit = 0; bit < kAccumulatorBits; ++bit) {
        const std::int32_t v = 123456;
        EXPECT_EQ(BitFlipInjector::flipBit(BitFlipInjector::flipBit(v, bit),
                                           bit),
                  v);
    }
}

TEST(Injector, MsbFlipChangesSign)
{
    EXPECT_LT(BitFlipInjector::flipBit(100, 23), 0);
}

TEST(Injector, ZeroRateIsNoOp)
{
    std::vector<std::int32_t> acc(1000, 7);
    Rng rng(1);
    const std::vector<double> rates(kAccumulatorBits, 0.0);
    const auto stats =
        BitFlipInjector::inject(acc.data(), acc.size(), rates, rng);
    EXPECT_EQ(stats.flips, 0u);
    for (auto v : acc)
        EXPECT_EQ(v, 7);
}

TEST(Injector, RecordsPositions)
{
    std::vector<std::int32_t> acc(500, 1);
    Rng rng(2);
    std::vector<double> rates(kAccumulatorBits, 0.0);
    rates[23] = 0.1;
    std::vector<std::size_t> positions;
    const auto stats = BitFlipInjector::inject(acc.data(), acc.size(), rates,
                                               rng, &positions);
    EXPECT_EQ(stats.flips, positions.size());
    for (auto idx : positions) {
        EXPECT_LT(idx, acc.size());
        EXPECT_NE(acc[idx], 1);
    }
}

TEST(Injector, PositionsDistinctWithinOneBit)
{
    // One flipping bit, so positionsOut holds exactly its positions.
    for (std::uint64_t seed = 16; seed < 24; ++seed) {
        std::vector<std::int32_t> acc(100, 0);
        Rng rng(seed);
        std::vector<double> rates(kAccumulatorBits, 0.0);
        rates[9] = 0.3;
        std::vector<std::size_t> positions;
        const auto stats = BitFlipInjector::inject(acc.data(), acc.size(),
                                                   rates, rng, &positions);
        ASSERT_GT(stats.flips, 0u);
        ASSERT_LT(stats.flips, acc.size());
        const std::set<std::size_t> seen(positions.begin(), positions.end());
        EXPECT_EQ(seen.size(), stats.flips);
        EXPECT_EQ(positions.size(), stats.flips);
        for (auto idx : positions) {
            EXPECT_LT(idx, acc.size());
            EXPECT_EQ(acc[idx], BitFlipInjector::flipBit(0, 9));
        }
    }
}

TEST(Injector, SaturatedBitFlipsEveryElementOnce)
{
    // k >= n: every element, in order, exactly once.
    for (double p : {0.75, 1.0}) {
        std::vector<std::int32_t> acc(10, 3);
        Rng rng(17);
        std::vector<double> rates(kAccumulatorBits, 0.0);
        rates[4] = p;
        std::vector<std::size_t> positions;
        std::uint64_t flips = 0;
        // Draw until the bit saturates (always at p = 1).
        while (flips != acc.size()) {
            std::fill(acc.begin(), acc.end(), 3);
            positions.clear();
            flips = BitFlipInjector::inject(acc.data(), acc.size(), rates, rng,
                                            &positions)
                        .flips;
        }
        for (std::size_t i = 0; i < acc.size(); ++i) {
            EXPECT_EQ(positions[i], i);
            EXPECT_EQ(acc[i], BitFlipInjector::flipBit(3, 4));
        }
    }
}

/** Property: flip counts track n * 24 * BER for the uniform model. */
class InjectorRate : public ::testing::TestWithParam<double>
{
};

TEST_P(InjectorRate, FlipCountMatchesExpectation)
{
    const double ber = GetParam();
    const std::size_t n = 20000;
    const std::vector<double> rates(kAccumulatorBits, ber);
    Rng rng(42);
    std::uint64_t total = 0;
    const int trials = 50;
    for (int trial = 0; trial < trials; ++trial) {
        std::vector<std::int32_t> acc(n, 0);
        total +=
            BitFlipInjector::inject(acc.data(), acc.size(), rates, rng).flips;
    }
    const double expected =
        static_cast<double>(n) * kAccumulatorBits * ber * trials;
    EXPECT_NEAR(static_cast<double>(total), expected,
                6.0 * std::sqrt(expected) + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Bers, InjectorRate,
                         ::testing::Values(1e-5, 1e-4, 1e-3, 1e-2));

TEST(Injector, ResultStaysWithin24Bits)
{
    std::vector<std::int32_t> acc(2000, 8000000);
    Rng rng(3);
    std::vector<double> rates(kAccumulatorBits, 0.05);
    BitFlipInjector::inject(acc.data(), acc.size(), rates, rng);
    for (auto v : acc) {
        EXPECT_LE(v, 8388607);
        EXPECT_GE(v, -8388608);
    }
}
