#include "fault/injector.hpp"

#include <algorithm>

namespace create {

namespace {

/**
 * Per-thread dedupe scratch, grown on first use and reused by every later
 * inject() on the thread. It holds no result state: the stamps only dedupe
 * positions within one bit.
 */
struct InjectScratch
{
    /** stamps[i] == epoch iff index i was already drawn for the current
     *  bit. Never cleared: each bit bumps the epoch instead. */
    std::vector<std::uint32_t> stamps;
    std::uint32_t epoch = 0;

    /** Open a fresh dedupe epoch over [0, n). */
    std::uint32_t nextEpoch(std::size_t n)
    {
        if (stamps.size() < n)
            stamps.resize(n, 0); // 0 is never a live epoch
        if (++epoch == 0) {
            std::fill(stamps.begin(), stamps.end(), 0u);
            epoch = 1;
        }
        return epoch;
    }

    static InjectScratch& tls()
    {
        thread_local InjectScratch scratch;
        return scratch;
    }
};

} // namespace

std::int32_t
BitFlipInjector::signExtend24(std::int32_t v)
{
    const std::uint32_t masked = static_cast<std::uint32_t>(v) & 0x00FFFFFFu;
    if (masked & 0x00800000u)
        return static_cast<std::int32_t>(masked | 0xFF000000u);
    return static_cast<std::int32_t>(masked);
}

std::int32_t
BitFlipInjector::flipBit(std::int32_t acc, int bit)
{
    const std::uint32_t flipped =
        static_cast<std::uint32_t>(acc) ^ (1u << static_cast<unsigned>(bit));
    return signExtend24(static_cast<std::int32_t>(flipped));
}

InjectionStats
BitFlipInjector::inject(std::int32_t* acc, std::size_t n,
                        const std::vector<double>& bitRates, Rng& rng,
                        std::vector<std::size_t>* positionsOut)
{
    InjectScratch& scratch = InjectScratch::tls();
    InjectionStats stats;
    for (int bit = 0; bit < kAccumulatorBits &&
                      bit < static_cast<int>(bitRates.size()); ++bit) {
        const double p = bitRates[static_cast<std::size_t>(bit)];
        if (p <= 0.0)
            continue;
        const std::uint64_t k = rng.binomial(n, p);
        if (k == 0)
            continue;
        stats.flips += k;
        const auto flip = [&](std::size_t idx) {
            acc[idx] = flipBit(acc[idx], bit);
            if (positionsOut)
                positionsOut->push_back(idx);
        };
        if (k >= n) {
            for (std::size_t idx = 0; idx < n; ++idx)
                flip(idx);
            continue;
        }
        // Positions may repeat across bits (one element can take multiple
        // flips); within one bit they are distinct, like hardware where a
        // given path either violates timing for an element or not.
        // Rejection sampling: a repeat draw is discarded and redrawn.
        const std::uint32_t epoch = scratch.nextEpoch(n);
        for (std::uint64_t drawn = 0; drawn < k;) {
            const auto idx = static_cast<std::size_t>(rng.below(n));
            if (scratch.stamps[idx] == epoch)
                continue;
            scratch.stamps[idx] = epoch;
            flip(idx);
            ++drawn;
        }
    }
    return stats;
}

} // namespace create
