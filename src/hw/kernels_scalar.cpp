/** @file Portable scalar kernels: the any-architecture floor of the
 *  dispatch hierarchy, and the semantic definition every SIMD variant is
 *  measured against (bit-identical, enforced by the golden suite). Its
 *  intGemm reads the same packed K-pair weights as the SIMD tiers, one
 *  row and eight columns at a time. Its FP32 matmul and attention core
 *  are the loops every SIMD tier's FP32 half reproduces bit for bit. */

#include "hw/simd_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
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

void
matmulF32Scalar(const float* pa, std::int64_t m, std::int64_t k,
                const float* pb, std::int64_t n, float* pc)
{
    // Register-blocked per (row, K-tile, column-block): 8 partial sums
    // live in registers instead of the accumulator row being stored and
    // reloaded once per k. Each output element still accumulates in
    // strictly ascending k order, so results are bit-identical to the
    // naive i-k-j kernel.
    constexpr std::int64_t kNr = 8;
    constexpr std::int64_t kKc = 256;
    for (std::int64_t i = 0; i < m; ++i) {
        const float* arow = pa + i * k;
        float* crow = pc + i * n;
        for (std::int64_t k0 = 0; k0 < k; k0 += kKc) {
            const std::int64_t kEnd = std::min(k, k0 + kKc);
            std::int64_t j0 = 0;
            for (; j0 + kNr <= n; j0 += kNr) {
                float a0 = crow[j0 + 0], a1 = crow[j0 + 1];
                float a2 = crow[j0 + 2], a3 = crow[j0 + 3];
                float a4 = crow[j0 + 4], a5 = crow[j0 + 5];
                float a6 = crow[j0 + 6], a7 = crow[j0 + 7];
                for (std::int64_t kk = k0; kk < kEnd; ++kk) {
                    const float av = arow[kk];
                    if (av == 0.0f)
                        continue;
                    const float* brow = pb + kk * n + j0;
                    a0 += av * brow[0];
                    a1 += av * brow[1];
                    a2 += av * brow[2];
                    a3 += av * brow[3];
                    a4 += av * brow[4];
                    a5 += av * brow[5];
                    a6 += av * brow[6];
                    a7 += av * brow[7];
                }
                crow[j0 + 0] = a0;
                crow[j0 + 1] = a1;
                crow[j0 + 2] = a2;
                crow[j0 + 3] = a3;
                crow[j0 + 4] = a4;
                crow[j0 + 5] = a5;
                crow[j0 + 6] = a6;
                crow[j0 + 7] = a7;
            }
            for (; j0 < n; ++j0) { // ragged column tail
                float acc = crow[j0];
                for (std::int64_t kk = k0; kk < kEnd; ++kk) {
                    const float av = arow[kk];
                    if (av != 0.0f)
                        acc += av * pb[kk * n + j0];
                }
                crow[j0] = acc;
            }
        }
    }
}

void
attentionScalar(const float* q, const float* k, const float* v,
                std::int64_t t, std::int64_t dim, std::int64_t heads,
                float* out, AttentionScratch& ws)
{
    const std::int64_t hd = dim / heads;
    const float invSqrt = 1.0f / std::sqrt(static_cast<float>(hd));

    // Per-head score/context math runs on contiguous row-major slabs
    // instead of strided per-element walks:
    //  - ws.k holds K_h transposed (hd x t), so the score rows build as
    //    d-ordered rank-1 updates that vectorize across keys,
    //  - ws.v holds V_h (t x hd), so context rows build as j-ordered
    //    axpy updates that vectorize across head channels.
    // Every output element accumulates in the same ascending d / j order
    // as the naive triple loop, so results are bit-identical (the
    // golden-reference attention test asserts this).
    const std::size_t slab = static_cast<std::size_t>(t * hd);
    ws.k.resize(slab);
    ws.v.resize(slab);
    ws.scores.resize(static_cast<std::size_t>(t * t));
    for (std::int64_t h = 0; h < heads; ++h) {
        const std::int64_t c0 = h * hd;
        for (std::int64_t j = 0; j < t; ++j) {
            const float* krow = k + j * dim + c0;
            const float* vrow = v + j * dim + c0;
            for (std::int64_t d = 0; d < hd; ++d)
                ws.k[static_cast<std::size_t>(d * t + j)] = krow[d];
            std::copy(vrow, vrow + hd,
                      ws.v.begin() + static_cast<std::ptrdiff_t>(j * hd));
        }
        for (std::int64_t i = 0; i < t; ++i) {
            // scores(i, :) = (q_h row i) @ K_h^T * invSqrt
            float* srow = ws.scores.data() + i * t;
            std::fill(srow, srow + t, 0.0f);
            const float* qrow = q + i * dim + c0;
            for (std::int64_t d = 0; d < hd; ++d) {
                const float qv = qrow[d];
                const float* kt = ws.k.data() + d * t;
                for (std::int64_t j = 0; j < t; ++j)
                    srow[j] += qv * kt[j];
            }
            for (std::int64_t j = 0; j < t; ++j)
                srow[j] *= invSqrt;
            // Row softmax (same operation sequence as ops::softmaxRows).
            float mx = -1e30f;
            for (std::int64_t j = 0; j < t; ++j)
                mx = std::max(mx, srow[j]);
            float sum = 0.0f;
            for (std::int64_t j = 0; j < t; ++j) {
                const float e = std::exp(srow[j] - mx);
                srow[j] = e;
                sum += e;
            }
            const float inv = 1.0f / sum;
            for (std::int64_t j = 0; j < t; ++j)
                srow[j] *= inv;
            // out(i, head slice) = attn(i, :) @ V_h
            float* crow = out + i * dim + c0;
            std::fill(crow, crow + hd, 0.0f);
            for (std::int64_t j = 0; j < t; ++j) {
                const float av = srow[j];
                const float* vrow = ws.v.data() + j * hd;
                for (std::int64_t d = 0; d < hd; ++d)
                    crow[d] += av * vrow[d];
            }
        }
    }
}

} // namespace create::simd::detail
