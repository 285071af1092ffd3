/** @file AVX2 kernels: paired-K vpmaddwd int-GEMM on packed weights,
 *  8-wide quantization, 8-wide absmax.
 *
 *  This TU is compiled with -mavx2 (attached per-file by CMake); when the
 *  compiler cannot target AVX2 the functions degrade to delegating
 *  wrappers and avx2KernelsCompiled() reports false so the dispatcher
 *  never registers the tier.
 *
 *  GEMM scheme: the SSE2 golden kernel's at twice the width. One vpmovsxbw
 *  of 16 packed bytes yields the int16 pairs (w[2q][j], w[2q+1][j]) of 8
 *  consecutive columns in natural order, and vpmaddwd against the
 *  broadcast activation pair sums each column's two terms in an int32
 *  lane. Tiles are 4 rows x 16 columns (8 accumulators of the 16 ymm
 *  registers); see simd_gemm_common.hpp for the row blocking.
 */

#include "hw/simd_kernels.hpp"

#if defined(__AVX2__)
#include <immintrin.h>

#include "hw/simd_gemm_common.hpp"
#endif

namespace create::simd::detail {

#if defined(__AVX2__)

namespace {

/** R rows x P vectors of 8 columns (see gemmRows for the contract). */
struct Avx2Tile
{
    static constexpr std::int64_t kV = 8;
    static constexpr bool kEightRows = false;

    template <int R, int P>
    static void run(const std::int32_t* xw, std::int64_t pairs,
                    const std::int8_t* wp, std::int64_t stride,
                    std::int32_t* c, std::int64_t ldc, std::int64_t cols)
    {
        raggedTile<R, P * kV>(c, ldc, cols, [&](std::int32_t* t,
                                                std::int64_t ldt) {
            __m256i a[R][P];
            #pragma GCC unroll 8
            for (int r = 0; r < R; ++r)
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    a[r][p] = _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(t + r * ldt + 8 * p));
            for (std::int64_t q = 0; q < pairs; ++q) {
                __m256i wv[P];
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    wv[p] = _mm256_cvtepi8_epi16(
                        _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                            wp + q * stride + 16 * p)));
                #pragma GCC unroll 8
                for (int r = 0; r < R; ++r) {
                    const __m256i xp = _mm256_set1_epi32(xw[r * pairs + q]);
                    #pragma GCC unroll 8
                    for (int p = 0; p < P; ++p)
                        a[r][p] = _mm256_add_epi32(
                            a[r][p], _mm256_madd_epi16(wv[p], xp));
                }
            }
            #pragma GCC unroll 8
            for (int r = 0; r < R; ++r)
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(t + r * ldt + 8 * p),
                        a[r][p]);
        });
    }
};

} // namespace

bool
avx2KernelsCompiled()
{
    return true;
}

void
intGemmAvx2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
            const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    gemmPacked<Avx2Tile>(widenPairsSse2(xq, m, k), m, k, wp, n, acc);
}

void
quantizeAvx2(const float* src, std::int64_t n, float invScale, int lim,
             std::int8_t* out)
{
    // Same clamp-then-cvtps2dq scheme as the SSE2 golden kernel (see the
    // bit-identity argument there), eight lanes at a time.
    const __m256 vinv = _mm256_set1_ps(invScale);
    const __m256 vlim = _mm256_set1_ps(static_cast<float>(lim));
    const __m256 vnlim = _mm256_set1_ps(static_cast<float>(-lim));
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv);
        v = _mm256_min_ps(_mm256_max_ps(v, vnlim), vlim);
        const __m256i q = _mm256_cvtps_epi32(v);
        const __m128i p16 = _mm_packs_epi32(
            _mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        const __m128i p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i), p8);
    }
    if (i < n)
        quantizeSse2(src + i, n - i, invScale, lim, out + i);
}

float
absMaxAvx2(const float* src, std::int64_t n)
{
    const __m256 vsign = _mm256_set1_ps(-0.0f);
    __m256 vmax = _mm256_setzero_ps();
    std::int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        vmax = _mm256_max_ps(
            vmax, _mm256_andnot_ps(vsign, _mm256_loadu_ps(src + i)));
    float lanes[8];
    _mm256_storeu_ps(lanes, vmax);
    float m = lanes[0];
    for (int l = 1; l < 8; ++l)
        m = lanes[l] > m ? lanes[l] : m;
    const float tail = absMaxScalar(src + i, n - i);
    return tail > m ? tail : m;
}

#else // compiler cannot target AVX2: delegate (tier stays unregistered)

bool
avx2KernelsCompiled()
{
    return false;
}

void
intGemmAvx2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
            const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    intGemmSse2(xq, m, k, wp, n, acc);
}

void
quantizeAvx2(const float* src, std::int64_t n, float invScale, int lim,
             std::int8_t* out)
{
    quantizeSse2(src, n, invScale, lim, out);
}

float
absMaxAvx2(const float* src, std::int64_t n)
{
    return absMaxSse2(src, n);
}

#endif

} // namespace create::simd::detail
