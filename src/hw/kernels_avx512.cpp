/** @file AVX-512 VNNI kernels: 32-column vpdpwssd int-GEMM with 4-row
 *  register blocking, 16-wide quantization, 16-wide absmax.
 *
 *  This TU is compiled with -mavx512{f,bw,vl,vnni} (attached per-file by
 *  CMake); without compiler support the functions degrade to delegating
 *  wrappers and avx512KernelsCompiled() reports false.
 *
 *  GEMM scheme: the same paired-K formulation as the SSE2/AVX2 kernels,
 *  but expressed with the VNNI word dot-product. Weights of rows kk/kk+1
 *  are interleaved bytewise (vpunpck[lh]bw on 128-bit halves keeps the
 *  natural column order), widened to int16 with vpmovsxbw, and fed to
 *  vpdpwssd against the broadcast activation pair -- each int32 lane
 *  accumulates x[kk]*w[kk][j] + x[kk+1]*w[kk+1][j] exactly, with no
 *  permuted-accumulator dance. We deliberately use the signed word form
 *  (vpdpwssd) rather than the byte form (vpdpbusd): vpdpbusd requires an
 *  unsigned operand, which would need a per-weight-matrix column-sum
 *  compensation term to undo the +128 bias -- correct but no longer the
 *  same arithmetic as the golden kernel. vpdpwssd keeps every variant
 *  bit-identical by construction at half the byte-form's peak, which this
 *  pipeline cannot reach anyway (it is load-bound on the weight stream,
 *  not multiply-bound).
 *
 *  Row blocking: as in the AVX2 kernel, quads of rows share each widened
 *  weight load, which is what makes multi-row calls cheaper per row than
 *  repeated single-row calls.
 */

#include "hw/simd_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define CREATE_HAVE_AVX512_KERNELS 1
#include <immintrin.h>

#include "hw/simd_gemm_common.hpp"
#endif

namespace create::simd::detail {

#if defined(CREATE_HAVE_AVX512_KERNELS)

namespace {

/** Widened int16 pairs (w[kk][j], w[kk+1][j]) for 16 columns, natural
 *  column order: lane j of the result holds the pair for column j0+j. */
inline __m512i
widenPair16(const std::int8_t* w0p, const std::int8_t* w1p)
{
    const __m128i w0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w0p));
    const __m128i w1 =
        w1p ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(w1p))
            : _mm_setzero_si128();
    const __m256i inter = _mm256_set_m128i(_mm_unpackhi_epi8(w0, w1),
                                           _mm_unpacklo_epi8(w0, w1));
    return _mm512_cvtepi8_epi16(inter);
}

} // namespace

bool
avx512KernelsCompiled()
{
    return true;
}

void
intGemmAvx512(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wq, std::int64_t n, std::int32_t* acc)
{
    std::int64_t i = 0;
    for (; i + 4 <= m; i += 4) { // 4-row quads share every weight load
        const std::int8_t* x0 = xq + (i + 0) * k;
        const std::int8_t* x1 = xq + (i + 1) * k;
        const std::int8_t* x2 = xq + (i + 2) * k;
        const std::int8_t* x3 = xq + (i + 3) * k;
        std::int32_t* c0 = acc + (i + 0) * n;
        std::int32_t* c1 = acc + (i + 1) * n;
        std::int32_t* c2 = acc + (i + 2) * n;
        std::int32_t* c3 = acc + (i + 3) * n;
        std::int64_t j0 = 0;
        for (; j0 + 32 <= n; j0 += 32) { // 32 cols x 4 rows: 8 accumulators
            __m512i a0L = _mm512_loadu_si512(c0 + j0);
            __m512i a0H = _mm512_loadu_si512(c0 + j0 + 16);
            __m512i a1L = _mm512_loadu_si512(c1 + j0);
            __m512i a1H = _mm512_loadu_si512(c1 + j0 + 16);
            __m512i a2L = _mm512_loadu_si512(c2 + j0);
            __m512i a2H = _mm512_loadu_si512(c2 + j0 + 16);
            __m512i a3L = _mm512_loadu_si512(c3 + j0);
            __m512i a3H = _mm512_loadu_si512(c3 + j0 + 16);
            for (std::int64_t kk = 0; kk < k; kk += 2) {
                const std::int32_t p0 = xPairI32(x0, kk, k);
                const std::int32_t p1 = xPairI32(x1, kk, k);
                const std::int32_t p2 = xPairI32(x2, kk, k);
                const std::int32_t p3 = xPairI32(x3, kk, k);
                if ((p0 | p1 | p2 | p3) == 0)
                    continue;
                const std::int8_t* w0p = wq + kk * n + j0;
                const std::int8_t* w1p =
                    kk + 1 < k ? wq + (kk + 1) * n + j0 : nullptr;
                const __m512i wL = widenPair16(w0p, w1p);
                const __m512i wH =
                    widenPair16(w0p + 16, w1p ? w1p + 16 : nullptr);
                const __m512i xp0 = _mm512_set1_epi32(p0);
                const __m512i xp1 = _mm512_set1_epi32(p1);
                const __m512i xp2 = _mm512_set1_epi32(p2);
                const __m512i xp3 = _mm512_set1_epi32(p3);
                a0L = _mm512_dpwssd_epi32(a0L, wL, xp0);
                a0H = _mm512_dpwssd_epi32(a0H, wH, xp0);
                a1L = _mm512_dpwssd_epi32(a1L, wL, xp1);
                a1H = _mm512_dpwssd_epi32(a1H, wH, xp1);
                a2L = _mm512_dpwssd_epi32(a2L, wL, xp2);
                a2H = _mm512_dpwssd_epi32(a2H, wH, xp2);
                a3L = _mm512_dpwssd_epi32(a3L, wL, xp3);
                a3H = _mm512_dpwssd_epi32(a3H, wH, xp3);
            }
            _mm512_storeu_si512(c0 + j0, a0L);
            _mm512_storeu_si512(c0 + j0 + 16, a0H);
            _mm512_storeu_si512(c1 + j0, a1L);
            _mm512_storeu_si512(c1 + j0 + 16, a1H);
            _mm512_storeu_si512(c2 + j0, a2L);
            _mm512_storeu_si512(c2 + j0 + 16, a2H);
            _mm512_storeu_si512(c3 + j0, a3L);
            _mm512_storeu_si512(c3 + j0 + 16, a3H);
        }
        for (; j0 + 16 <= n; j0 += 16) { // 16-col block
            __m512i a0 = _mm512_loadu_si512(c0 + j0);
            __m512i a1 = _mm512_loadu_si512(c1 + j0);
            __m512i a2 = _mm512_loadu_si512(c2 + j0);
            __m512i a3 = _mm512_loadu_si512(c3 + j0);
            for (std::int64_t kk = 0; kk < k; kk += 2) {
                const std::int32_t p0 = xPairI32(x0, kk, k);
                const std::int32_t p1 = xPairI32(x1, kk, k);
                const std::int32_t p2 = xPairI32(x2, kk, k);
                const std::int32_t p3 = xPairI32(x3, kk, k);
                if ((p0 | p1 | p2 | p3) == 0)
                    continue;
                const __m512i w = widenPair16(
                    wq + kk * n + j0,
                    kk + 1 < k ? wq + (kk + 1) * n + j0 : nullptr);
                a0 = _mm512_dpwssd_epi32(a0, w, _mm512_set1_epi32(p0));
                a1 = _mm512_dpwssd_epi32(a1, w, _mm512_set1_epi32(p1));
                a2 = _mm512_dpwssd_epi32(a2, w, _mm512_set1_epi32(p2));
                a3 = _mm512_dpwssd_epi32(a3, w, _mm512_set1_epi32(p3));
            }
            _mm512_storeu_si512(c0 + j0, a0);
            _mm512_storeu_si512(c1 + j0, a1);
            _mm512_storeu_si512(c2 + j0, a2);
            _mm512_storeu_si512(c3 + j0, a3);
        }
        if (j0 < n) {
            gemmRowTailColsSse2(x0, k, wq, n, c0, j0);
            gemmRowTailColsSse2(x1, k, wq, n, c1, j0);
            gemmRowTailColsSse2(x2, k, wq, n, c2, j0);
            gemmRowTailColsSse2(x3, k, wq, n, c3, j0);
        }
    }
    for (; i < m; ++i) { // single-row remainder
        const std::int8_t* xrow = xq + i * k;
        std::int32_t* crow = acc + i * n;
        std::int64_t j0 = 0;
        for (; j0 + 32 <= n; j0 += 32) {
            __m512i aL = _mm512_loadu_si512(crow + j0);
            __m512i aH = _mm512_loadu_si512(crow + j0 + 16);
            for (std::int64_t kk = 0; kk < k; kk += 2) {
                const std::int32_t pair = xPairI32(xrow, kk, k);
                if (pair == 0)
                    continue;
                const std::int8_t* w0p = wq + kk * n + j0;
                const std::int8_t* w1p =
                    kk + 1 < k ? wq + (kk + 1) * n + j0 : nullptr;
                const __m512i xp = _mm512_set1_epi32(pair);
                aL = _mm512_dpwssd_epi32(aL, widenPair16(w0p, w1p), xp);
                aH = _mm512_dpwssd_epi32(
                    aH, widenPair16(w0p + 16, w1p ? w1p + 16 : nullptr), xp);
            }
            _mm512_storeu_si512(crow + j0, aL);
            _mm512_storeu_si512(crow + j0 + 16, aH);
        }
        for (; j0 + 16 <= n; j0 += 16) {
            __m512i a = _mm512_loadu_si512(crow + j0);
            for (std::int64_t kk = 0; kk < k; kk += 2) {
                const std::int32_t pair = xPairI32(xrow, kk, k);
                if (pair == 0)
                    continue;
                a = _mm512_dpwssd_epi32(
                    a,
                    widenPair16(wq + kk * n + j0,
                                kk + 1 < k ? wq + (kk + 1) * n + j0
                                           : nullptr),
                    _mm512_set1_epi32(pair));
            }
            _mm512_storeu_si512(crow + j0, a);
        }
        if (j0 < n)
            gemmRowTailColsSse2(xrow, k, wq, n, crow, j0);
    }
}

void
quantizeAvx512(const float* src, std::int64_t n, float invScale, int lim,
               std::int8_t* out)
{
    // Same clamp-then-cvtps2dq scheme as the SSE2 golden kernel (see the
    // bit-identity argument there), sixteen lanes at a time; the
    // saturating narrow (vpmovsdb) is a no-op after the +/-lim clamp.
    const __m512 vinv = _mm512_set1_ps(invScale);
    const __m512 vlim = _mm512_set1_ps(static_cast<float>(lim));
    const __m512 vnlim = _mm512_set1_ps(static_cast<float>(-lim));
    std::int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 v = _mm512_mul_ps(_mm512_loadu_ps(src + i), vinv);
        v = _mm512_min_ps(_mm512_max_ps(v, vnlim), vlim);
        const __m512i q = _mm512_cvtps_epi32(v);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                         _mm512_cvtsepi32_epi8(q));
    }
    if (i < n)
        quantizeSse2(src + i, n - i, invScale, lim, out + i);
}

float
absMaxAvx512(const float* src, std::int64_t n)
{
    __m512 vmax = _mm512_setzero_ps();
    std::int64_t i = 0;
    for (; i + 16 <= n; i += 16)
        vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_loadu_ps(src + i)));
    float m = _mm512_reduce_max_ps(vmax);
    const float tail = absMaxScalar(src + i, n - i);
    return tail > m ? tail : m;
}

#else // compiler cannot target AVX-512 VNNI: delegate

bool
avx512KernelsCompiled()
{
    return false;
}

void
intGemmAvx512(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wq, std::int64_t n, std::int32_t* acc)
{
    intGemmAvx2(xq, m, k, wq, n, acc);
}

void
quantizeAvx512(const float* src, std::int64_t n, float invScale, int lim,
               std::int8_t* out)
{
    quantizeAvx2(src, n, invScale, lim, out);
}

float
absMaxAvx512(const float* src, std::int64_t n)
{
    return absMaxAvx2(src, n);
}

#endif

} // namespace create::simd::detail
