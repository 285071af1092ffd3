#pragma once

/** @file The FP32 half of the SIMD tiers (SSE2, AVX2, AVX-512): one
 *  register-blocked matmul template, and the attention core built on it.
 *  Each tier supplies a lane trait written with its own intrinsics; the
 *  templates here walk rows, columns and heads over it. Like
 *  simd_gemm_common.hpp, everything has internal linkage, so every kernel
 *  TU instantiates its own copy under its own -m flags.
 *
 *  Exactness: float addition is not associative, so no output element is
 *  ever split across lanes or reordered. A vector holds kW *different*
 *  output columns, and each lane repeats the scalar loop's arithmetic for
 *  its element: terms in ascending k, each a rounded multiply (`mul`)
 *  followed by a separately rounded add (`add` / `addIf`). create_core
 *  compiles with -ffp-contract=off, so GCC cannot fuse the pair into an
 *  FMA (it would, from intrinsics, under -mavx512f). Results are
 *  therefore bit-identical to the scalar tier's loops.
 *
 *  Lane trait F:
 *    V, M, kW, kMaxVecs   vector of kW floats; per-row lane mask; columns
 *                         tiles hold up to kMaxVecs vectors per row
 *    zero(), set1(x), load(p), store(p, v), add(a, b), mul(a, b)
 *    Tail tail(n)         describes a vector with n < kW valid lanes
 *    loadTail(p, t), storeTail(p, v, t)
 *                         touch only those lanes (never past them)
 *    nonzero(x)           lanes where the broadcast x != 0 (NaN counts as
 *                         nonzero, like the scalar `av == 0.0f` test)
 *    addIf(acc, m, x)     acc + x in m's lanes, acc elsewhere
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/row_blocks.hpp"
#include "hw/kernel_dispatch.hpp"

namespace create::simd::detail {
namespace {

/**
 * c(R rows, `cols` columns) (+)= a(R x k) @ b(k x cols) on one register
 * tile of R rows x P vectors; only the last vector may be partial. Row r
 * of a starts at a + r * lda, row kk of b at b + kk * ldb, row r of c at
 * c + r * ldc. kFromZero starts the sums at 0 instead of loading c;
 * kSkipZero drops every term whose a entry is 0 (matmulAccum's rule).
 * Row and vector loops fully unroll (`#pragma GCC unroll`), which keeps
 * the accumulators in registers.
 */
template <class F, bool kSkipZero, bool kFromZero, int R, int P>
inline void
f32Tile(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
        float* c, std::int64_t ldc, std::int64_t k, std::int64_t cols)
{
    using V = typename F::V;
    constexpr std::int64_t kW = F::kW;
    const std::int64_t last = cols - (P - 1) * kW; // lanes of vector P - 1
    const bool ragged = last < kW;
    const auto tail = F::tail(static_cast<int>(ragged ? last : 0));
    V acc[R][P];
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 8
        for (int p = 0; p < P; ++p) {
            const float* src = c + r * ldc + p * kW;
            if constexpr (kFromZero)
                acc[r][p] = F::zero();
            else
                acc[r][p] = p == P - 1 && ragged ? F::loadTail(src, tail)
                                                 : F::load(src);
        }
    for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* brow = b + kk * ldb;
        V bv[P];
        #pragma GCC unroll 8
        for (int p = 0; p < P; ++p)
            bv[p] = p == P - 1 && ragged ? F::loadTail(brow + p * kW, tail)
                                         : F::load(brow + p * kW);
        #pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            const V x = F::set1(a[r * lda + kk]);
            if constexpr (kSkipZero) {
                const auto keep = F::nonzero(x);
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    acc[r][p] = F::addIf(acc[r][p], keep, F::mul(x, bv[p]));
            } else {
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    acc[r][p] = F::add(acc[r][p], F::mul(x, bv[p]));
            }
        }
    }
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 8
        for (int p = 0; p < P; ++p) {
            float* dst = c + r * ldc + p * kW;
            if (p == P - 1 && ragged)
                F::storeTail(dst, acc[r][p], tail);
            else
                F::store(dst, acc[r][p]);
        }
}

/** R rows across all n columns, in tiles of up to F::kMaxVecs vectors. */
template <class F, bool kSkipZero, bool kFromZero, int R>
inline void
f32Rows(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
        float* c, std::int64_t ldc, std::int64_t k, std::int64_t n)
{
    constexpr std::int64_t kW = F::kW;
    constexpr std::int64_t kTile = F::kMaxVecs * kW;
    static_assert(F::kMaxVecs >= 1 && F::kMaxVecs <= 4, "tile width");
    for (std::int64_t j0 = 0; j0 < n; j0 += kTile) {
        const std::int64_t cols = std::min(kTile, n - j0);
        const float* bt = b + j0;
        float* ct = c + j0;
        switch ((cols + kW - 1) / kW) {
          case 1:
            f32Tile<F, kSkipZero, kFromZero, R, 1>(a, lda, bt, ldb, ct, ldc,
                                                   k, cols);
            break;
          case 2:
            if constexpr (F::kMaxVecs >= 2)
                f32Tile<F, kSkipZero, kFromZero, R, 2>(a, lda, bt, ldb, ct,
                                                       ldc, k, cols);
            break;
          case 3:
            if constexpr (F::kMaxVecs >= 3)
                f32Tile<F, kSkipZero, kFromZero, R, 3>(a, lda, bt, ldb, ct,
                                                       ldc, k, cols);
            break;
          default:
            if constexpr (F::kMaxVecs >= 4)
                f32Tile<F, kSkipZero, kFromZero, R, 4>(a, lda, bt, ldb, ct,
                                                       ldc, k, cols);
            break;
        }
    }
}

/** Whether any of the R rows (length k, stride lda) at a holds a zero. */
template <int R>
inline bool
anyZero(const float* a, std::int64_t lda, std::int64_t k)
{
    int zeros = 0; // a branch-free count, so the loop vectorizes
    for (int r = 0; r < R; ++r)
        for (std::int64_t kk = 0; kk < k; ++kk)
            zeros += a[r * lda + kk] == 0.0f;
    return zeros != 0;
}

/**
 * R rows of f32Gemm. With kSkipZero, a block whose a rows hold no zero
 * has nothing to skip, so it runs the plain tile: adding every term is
 * then exactly what the skipping tile does, without its per-row masks.
 */
template <class F, bool kSkipZero, bool kFromZero, int R>
inline void
f32Block(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
         float* c, std::int64_t ldc, std::int64_t k, std::int64_t n)
{
    if constexpr (kSkipZero)
        if (anyZero<R>(a, lda, k))
            return f32Rows<F, true, kFromZero, R>(a, lda, b, ldb, c, ldc, k,
                                                  n);
    f32Rows<F, false, kFromZero, R>(a, lda, b, ldb, c, ldc, k, n);
}

/**
 * c(m x n) (+)= a(m x k) @ b(k x n) over strided row-major operands (see
 * f32Tile for the flags). Rows go in blocks of 4 -- of 8 when one vector
 * covers n, so a narrow product still keeps 8 accumulators in flight --
 * then one block of 3, 2 or 1: every row shares each b load with the
 * rest of its block, and each element's terms still arrive in ascending
 * k.
 */
template <class F, bool kSkipZero, bool kFromZero>
inline void
f32Gemm(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
        float* c, std::int64_t ldc, std::int64_t m, std::int64_t k,
        std::int64_t n)
{
    forRowBlocks<true>(
        m,
        [&](std::int64_t i, auto rows) {
            f32Block<F, kSkipZero, kFromZero, decltype(rows)::value>(
                a + i * lda, lda, b, ldb, c + i * ldc, ldc, k, n);
        },
        n <= F::kW);
}

/** KernelTable::matmulF32 on lane trait F. */
template <class F>
inline void
matmulF32(const float* a, std::int64_t m, std::int64_t k, const float* b,
          std::int64_t n, float* c)
{
    f32Gemm<F, /*kSkipZero=*/true, /*kFromZero=*/false>(a, k, b, n, c, n, m,
                                                         k, n);
}

/** `row[0, n) *= s`, n a whole number of vectors. */
template <class F>
inline void
scaleRow(float* row, std::int64_t n, float s)
{
    const typename F::V vs = F::set1(s);
    for (std::int64_t j = 0; j < n; j += F::kW)
        F::store(row + j, F::mul(F::load(row + j), vs));
}

/**
 * KernelTable::attention on lane trait F. K is transposed once per call
 * into scratch.k (dim x tp, the key count padded to whole vectors), so
 * each head's scores are one f32Gemm from zero: scores (t x tp) = Q_h @
 * K_h^T, with the query rows read in place from q. The padding keys are
 * zero and their scores are never read. Each row is then scaled, put
 * through the scalar softmax (std::max, std::exp per element, ascending
 * sum), and the context rows come from a second f32Gemm from zero,
 * p (t x t) @ V_h, reading V_h in place from v and writing the head's
 * columns of out.
 */
template <class F>
inline void
attention(const float* q, const float* k, const float* v, std::int64_t t,
          std::int64_t dim, std::int64_t heads, float* out,
          AttentionScratch& scratch)
{
    constexpr std::int64_t kW = F::kW;
    const std::int64_t hd = dim / heads;
    const std::int64_t tp = (t + kW - 1) / kW * kW;
    const float invSqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    scratch.k.resize(static_cast<std::size_t>(dim * tp));
    scratch.scores.resize(static_cast<std::size_t>(t * tp));
    float* kt = scratch.k.data();
    float* scores = scratch.scores.data();
    if (tp > 0)
        for (std::int64_t d = 0; d < dim; ++d) // zero the padding keys
            F::store(kt + d * tp + tp - kW, F::zero());
    for (std::int64_t j = 0; j < t; ++j) {
        const float* krow = k + j * dim;
        for (std::int64_t d = 0; d < dim; ++d)
            kt[d * tp + j] = krow[d];
    }
    for (std::int64_t h = 0; h < heads; ++h) {
        const std::int64_t c0 = h * hd;
        f32Gemm<F, false, true>(q + c0, dim, kt + c0 * tp, tp, scores, tp, t,
                                hd, tp);
        for (std::int64_t i = 0; i < t; ++i) {
            float* srow = scores + i * tp;
            scaleRow<F>(srow, tp, invSqrt);
            float mx = -1e30f;
            for (std::int64_t j = 0; j < t; ++j)
                mx = std::max(mx, srow[j]);
            float sum = 0.0f;
            for (std::int64_t j = 0; j < t; ++j) {
                const float e = std::exp(srow[j] - mx);
                srow[j] = e;
                sum += e;
            }
            scaleRow<F>(srow, tp, 1.0f / sum);
        }
        f32Gemm<F, false, true>(scores, tp, v + c0, dim, out + c0, dim, t, t,
                                hd);
    }
}

} // namespace
} // namespace create::simd::detail
