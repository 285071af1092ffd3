#pragma once

/**
 * @file
 * Bit-flip injector for INT32/24-bit accumulator arrays (paper Sec. 3.2).
 *
 * The injector emulates voltage-underscaling timing errors as random bit
 * flips in GEMM/conv accumulation results, exactly as the paper's dynamic
 * PyTorch-based framework does, but at the tensor-runtime level: for each
 * bit position it samples the number of affected elements k from
 * Binomial(n, p) and flips k distinct, uniformly chosen elements. This
 * makes injection O(flips) instead of O(elements x bits), which is what
 * makes >100-episode sweeps at BER 1e-8 tractable.
 *
 * The count comes from Rng::binomial's three branches: exact per-trial
 * draws for n <= 64 (as integer compares against a hoisted threshold),
 * Knuth's Poisson method for np < 25, and a normal approximation above.
 * The Knuth limit exp(-np) comes from Rng's per-thread memo, which
 * returns the very double std::exp does. The positions are
 * rejection-sampled with Rng::below, a repeat within one bit being
 * redrawn; k >= n flips every element in order with no draws. The
 * dedupe runs on a per-thread array of epoch stamps (one epoch per bit,
 * so it is never cleared), which accepts and rejects exactly what a set
 * of the bit's earlier positions would. Once a thread has warmed up,
 * injection makes no heap allocation, and the random stream, the flipped
 * bits and the order of positionsOut depend only on the inputs and the
 * Rng.
 */

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "fault/error_model.hpp"

namespace create {

/** Statistics from one injection pass. */
struct InjectionStats
{
    std::uint64_t flips = 0; //!< total bits flipped
};

/** Flips bits in 24-bit accumulators according to an ErrorModel. */
class BitFlipInjector
{
  public:
    /**
     * Inject into `n` accumulators in place.
     *
     * Accumulators are stored as int32 but represent kAccumulatorBits-wide
     * two's-complement hardware registers: a flip of bit 23 changes the
     * sign, and results are sign-extended back to int32.
     */
    static InjectionStats inject(std::int32_t* acc, std::size_t n,
                                 const std::vector<double>& bitRates, Rng& rng,
                                 std::vector<std::size_t>* positionsOut =
                                     nullptr);

    /** Flip one specific bit of one accumulator (used by targeted studies). */
    static std::int32_t flipBit(std::int32_t acc, int bit);

    /** Sign-extend a 24-bit two's-complement value held in an int32. */
    static std::int32_t signExtend24(std::int32_t v);
};

} // namespace create
