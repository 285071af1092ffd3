/** @file Portable scalar kernels: the any-architecture floor of the
 *  dispatch hierarchy, and the semantic definition every SIMD variant is
 *  measured against (bit-identical, enforced by the golden suite). Its
 *  intGemm reads the same packed K-pair weights as the SIMD tiers, one
 *  row and eight columns at a time. */

#include "hw/simd_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "hw/kernel_dispatch.hpp"

namespace create::simd::detail {

std::int32_t*
pairScratch(std::size_t count)
{
    thread_local std::vector<std::int32_t> scratch;
    if (scratch.size() < count)
        scratch.resize(count);
    return scratch.data();
}

void
intGemmScalar(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    // Each (row, 8-column block) keeps its partial sums in registers for
    // the whole K loop; a ragged last block pads its sums past n with
    // zeros and never stores them (the packed weight is zero there).
    constexpr std::int64_t kNr = 8;
    const std::int64_t pairs = (k + 1) / 2;
    const std::int64_t stride = 2 * packedCols(n);
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t* xrow = xq + i * k;
        std::int32_t* crow = acc + i * n;
        for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
            const std::int64_t cols = std::min(kNr, n - j0);
            std::int32_t a[kNr] = {};
            std::copy(crow + j0, crow + j0 + cols, a);
            for (std::int64_t q = 0; q < pairs; ++q) {
                const std::int32_t x0 = xrow[2 * q];
                const std::int32_t x1 = 2 * q + 1 < k ? xrow[2 * q + 1] : 0;
                const std::int8_t* w = wp + q * stride + 2 * j0;
                for (std::int64_t c = 0; c < kNr; ++c)
                    a[c] += x0 * w[2 * c] + x1 * w[2 * c + 1];
            }
            std::copy(a, a + cols, crow + j0);
        }
    }
}

void
quantizeScalar(const float* src, std::int64_t n, float invScale, int lim,
               std::int8_t* out)
{
    for (std::int64_t i = 0; i < n; ++i) {
        float v = src[i] * invScale;
        v = std::nearbyint(v);
        if (v > static_cast<float>(lim))
            v = static_cast<float>(lim);
        if (v < static_cast<float>(-lim))
            v = static_cast<float>(-lim);
        out[i] = static_cast<std::int8_t>(v);
    }
}

float
absMaxScalar(const float* src, std::int64_t n)
{
    float m = 0.0f;
    for (std::int64_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(src[i]));
    return m;
}

} // namespace create::simd::detail
