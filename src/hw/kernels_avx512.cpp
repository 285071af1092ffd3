/** @file AVX-512 VNNI kernels: vpdpwssd int-GEMM on packed weights,
 *  16-wide quantization, 16-wide absmax.
 *
 *  This TU is compiled with -mavx512{f,bw,vl,vnni} (attached per-file by
 *  CMake); without compiler support the functions degrade to delegating
 *  wrappers and avx512KernelsCompiled() reports false.
 *
 *  GEMM scheme: the same paired-K formulation as the SSE2/AVX2 kernels,
 *  expressed with the VNNI word dot-product. One vpmovsxbw of 32 packed
 *  bytes yields the int16 pairs (w[2q][j], w[2q+1][j]) of a 16-column
 *  panel in natural column order, and vpdpwssd against the broadcast
 *  activation pair accumulates x[2q]*w[2q][j] + x[2q+1]*w[2q+1][j] in
 *  each int32 lane exactly. We deliberately use the signed word form
 *  (vpdpwssd) rather than the byte form (vpdpbusd): vpdpbusd requires an
 *  unsigned operand, which would need a per-weight-matrix column-sum
 *  compensation term to undo the +128 bias -- correct but no longer the
 *  same arithmetic as the golden kernel. vpdpwssd keeps every variant
 *  bit-identical by construction.
 *
 *  Activations are widened once per call, one vpmovsxbw per 32 bytes.
 *  Tiles are 4 rows x 32 columns, or 8 rows x 16 columns when one panel
 *  covers N (8 accumulators either way, of the 32 zmm registers); the
 *  last panel loads and stores its accumulators under a column mask. See
 *  simd_gemm_common.hpp for the row blocking.
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

/**
 * acc + vpdpwssd(a, b). Inline asm, not _mm512_dpwssd_epi32: GCC 12
 * copies each tile accumulator out and back around every use of the
 * intrinsic (its result is tied to its first operand), two extra moves
 * per multiply-add that cost ~30% on the planner's 14x64x192 GEMM.
 */
inline __m512i
dpwssd(__m512i acc, __m512i a, __m512i b)
{
    __asm__("vpdpwssd %2, %1, %0" : "+v"(acc) : "v"(a), "v"(b));
    return acc;
}

/** R rows x P panels of 16 columns (see gemmRows for the contract). */
struct Avx512Tile
{
    static constexpr std::int64_t kV = 16;
    static constexpr bool kEightRows = true;

    template <int R, int P>
    static void run(const std::int32_t* xw, std::int64_t pairs,
                    const std::int8_t* wp, std::int64_t stride,
                    std::int32_t* c, std::int64_t ldc, std::int64_t cols)
    {
        __mmask16 mask[P];
        #pragma GCC unroll 8
        for (int p = 0; p < P; ++p) {
            const std::int64_t left = cols - 16 * p;
            mask[p] = left >= 16 ? __mmask16(0xFFFF)
                                 : __mmask16((1u << left) - 1u);
        }
        __m512i a[R][P];
        #pragma GCC unroll 8
        for (int r = 0; r < R; ++r)
            #pragma GCC unroll 8
            for (int p = 0; p < P; ++p)
                a[r][p] = _mm512_maskz_loadu_epi32(mask[p],
                                                   c + r * ldc + 16 * p);
        for (std::int64_t q = 0; q < pairs; ++q) {
            __m512i wv[P];
            #pragma GCC unroll 8
            for (int p = 0; p < P; ++p)
                wv[p] = _mm512_cvtepi8_epi16(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                        wp + q * stride + 32 * p)));
            #pragma GCC unroll 8
            for (int r = 0; r < R; ++r) {
                const __m512i xp = _mm512_set1_epi32(xw[r * pairs + q]);
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    a[r][p] = dpwssd(a[r][p], wv[p], xp);
            }
        }
        #pragma GCC unroll 8
        for (int r = 0; r < R; ++r)
            #pragma GCC unroll 8
            for (int p = 0; p < P; ++p)
                _mm512_mask_storeu_epi32(c + r * ldc + 16 * p, mask[p],
                                         a[r][p]);
    }
};

/** widenPairsSse2's contract, one masked vpmovsxbw per 32 bytes. */
const std::int32_t*
widenPairs(const std::int8_t* xq, std::int64_t m, std::int64_t k)
{
    const std::int64_t pairs = (k + 1) / 2;
    std::int32_t* out = pairScratch(static_cast<std::size_t>(m * pairs));
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t* x = xq + i * k;
        std::int32_t* d = out + i * pairs;
        for (std::int64_t q = 0; q < pairs; q += 16) {
            const std::int64_t bytes = std::min<std::int64_t>(32, k - 2 * q);
            const std::int64_t slots = std::min<std::int64_t>(16, pairs - q);
            const __mmask32 load =
                bytes == 32 ? ~0u : (1u << bytes) - 1u; // odd K: high half 0
            const __mmask16 store = __mmask16((1u << slots) - 1u);
            _mm512_mask_storeu_epi32(
                d + q, store,
                _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(load, x + 2 * q)));
        }
    }
    return out;
}

} // namespace

bool
avx512KernelsCompiled()
{
    return true;
}

void
intGemmAvx512(const std::int8_t* xq, std::int64_t m, std::int64_t k,
              const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    gemmPacked<Avx512Tile>(widenPairs(xq, m, k), m, k, wp, n, acc);
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
              const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    intGemmAvx2(xq, m, k, wp, n, acc);
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
