/** @file SSE2 kernels -- the golden reference SIMD tier.
 *
 *  Always built on x86-64 (SSE2 is part of the base ABI), and the
 *  variant the CI `CREATE_FORCE_ISA=sse2` legs pin so the fallback stays
 *  exercised on AVX-capable runners.
 *
 *  GEMM scheme: the packed weight holds, per K pair, the byte pairs
 *  (w[2q][j], w[2q+1][j]) of consecutive columns, so one 16-byte load
 *  covers 8 columns; unpacking it with itself and shifting right by 8
 *  sign-extends the pairs to int16, and pmaddwd against the broadcast
 *  activation pair (x[2q], x[2q+1]) yields each column's two-term sum in
 *  an int32 lane. Tiles are 4 rows x 8 columns (8 accumulators of the 16
 *  xmm registers); see simd_gemm_common.hpp for the row blocking.
 *
 *  FP32 half: simd_f32_common.hpp over 4-lane vectors, tiles of up to
 *  4 rows x 8 columns. SSE2 has no masked loads, so a ragged last vector
 *  moves its 1-3 valid floats with movss/movq; the zero skip selects
 *  with and/andnot/or. */

#include "hw/simd_kernels.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>

#include "hw/simd_f32_common.hpp"
#include "hw/simd_gemm_common.hpp"
#endif

#include <cstring>

namespace create::simd::detail {

#if defined(__SSE2__)

namespace {

/** int8 lanes of `v` (low half, or high half) sign-extended to int16. */
inline __m128i
widenLo(__m128i v)
{
    return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}

inline __m128i
widenHi(__m128i v)
{
    return _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
}

/** R rows x P vectors of 4 columns (see gemmRows for the contract). */
struct Sse2Tile
{
    static constexpr std::int64_t kV = 4;
    static constexpr bool kEightRows = false;

    template <int R, int P>
    static void run(const std::int32_t* xw, std::int64_t pairs,
                    const std::int8_t* wp, std::int64_t stride,
                    std::int32_t* c, std::int64_t ldc, std::int64_t cols)
    {
        raggedTile<R, P * kV>(c, ldc, cols, [&](std::int32_t* t,
                                                std::int64_t ldt) {
            __m128i a[R][P];
            #pragma GCC unroll 8
            for (int r = 0; r < R; ++r)
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    a[r][p] = _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(t + r * ldt + 4 * p));
            for (std::int64_t q = 0; q < pairs; ++q) {
                const auto* w =
                    reinterpret_cast<const __m128i*>(wp + q * stride);
                __m128i wv[P];
                if constexpr (P == 2) {
                    const __m128i b = _mm_loadu_si128(w);
                    wv[0] = widenLo(b);
                    wv[1] = widenHi(b);
                } else {
                    wv[0] = widenLo(_mm_loadl_epi64(w));
                }
                #pragma GCC unroll 8
                for (int r = 0; r < R; ++r) {
                    const __m128i xp = _mm_set1_epi32(xw[r * pairs + q]);
                    #pragma GCC unroll 8
                    for (int p = 0; p < P; ++p)
                        a[r][p] = _mm_add_epi32(a[r][p],
                                                _mm_madd_epi16(wv[p], xp));
                }
            }
            #pragma GCC unroll 8
            for (int r = 0; r < R; ++r)
                #pragma GCC unroll 8
                for (int p = 0; p < P; ++p)
                    _mm_storeu_si128(
                        reinterpret_cast<__m128i*>(t + r * ldt + 4 * p),
                        a[r][p]);
        });
    }
};

/** 4-lane FP32 trait for simd_f32_common.hpp. */
struct Sse2F32
{
    using V = __m128;
    using M = __m128;
    using Tail = int;
    static constexpr std::int64_t kW = 4;
    static constexpr int kMaxVecs = 2;

    static V zero() { return _mm_setzero_ps(); }
    static V set1(float x) { return _mm_set1_ps(x); }
    static V load(const float* p) { return _mm_loadu_ps(p); }
    static void store(float* p, V v) { _mm_storeu_ps(p, v); }
    static V add(V a, V b) { return _mm_add_ps(a, b); }
    static V mul(V a, V b) { return _mm_mul_ps(a, b); }
    static Tail tail(int n) { return n; }

    // movq moves two floats through the unaligned __m128i_u type; the
    // movsd forms would dereference p as a (misaligned) double.
    static V loadTail(const float* p, Tail n)
    {
        if (n == 1)
            return _mm_load_ss(p);
        const V lo = _mm_castsi128_ps(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
        return n == 2 ? lo : _mm_movelh_ps(lo, _mm_load_ss(p + 2));
    }

    static void storeTail(float* p, V v, Tail n)
    {
        if (n == 1) {
            _mm_store_ss(p, v);
            return;
        }
        _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_castps_si128(v));
        if (n == 3)
            _mm_store_ss(p + 2, _mm_movehl_ps(v, v));
    }

    static M nonzero(V x) { return _mm_cmpneq_ps(x, _mm_setzero_ps()); }

    static V addIf(V acc, M m, V x)
    {
        return _mm_or_ps(_mm_and_ps(m, _mm_add_ps(acc, x)),
                         _mm_andnot_ps(m, acc));
    }
};

} // namespace

bool
sse2KernelsCompiled()
{
    return true;
}

const std::int32_t*
widenPairsSse2(const std::int8_t* xq, std::int64_t m, std::int64_t k)
{
    const std::int64_t pairs = (k + 1) / 2;
    std::int32_t* out = pairScratch(static_cast<std::size_t>(m * pairs));
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t* x = xq + i * k;
        std::int32_t* d = out + i * pairs;
        std::int64_t q = 0;
        for (; 2 * q + 16 <= k; q += 8) { // 16 bytes -> 8 int16 pairs
            const __m128i v =
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + 2 * q));
            _mm_storeu_si128(reinterpret_cast<__m128i*>(d + q), widenLo(v));
            _mm_storeu_si128(reinterpret_cast<__m128i*>(d + q + 4),
                             widenHi(v));
        }
        for (; q < pairs; ++q) {
            const std::uint32_t lo = static_cast<std::uint16_t>(x[2 * q]);
            const std::uint32_t hi =
                2 * q + 1 < k ? static_cast<std::uint16_t>(x[2 * q + 1]) : 0u;
            d[q] = static_cast<std::int32_t>(lo | (hi << 16));
        }
    }
    return out;
}

void
intGemmSse2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
            const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    gemmPacked<Sse2Tile>(widenPairsSse2(xq, m, k), m, k, wp, n, acc);
}

void
quantizeSse2(const float* src, std::int64_t n, float invScale, int lim,
             std::int8_t* out)
{
    // Vector path: clamp in FP32 then convert. cvtps2dq rounds per MXCSR
    // (round-to-nearest-even, the same default environment nearbyint
    // uses), and clamping before instead of after rounding cannot change
    // the saturated result, so codes are bit-identical to the scalar
    // loop for every finite input.
    const __m128 vinv = _mm_set1_ps(invScale);
    const __m128 vlim = _mm_set1_ps(static_cast<float>(lim));
    const __m128 vnlim = _mm_set1_ps(static_cast<float>(-lim));
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m128 v = _mm_mul_ps(_mm_loadu_ps(src + i), vinv);
        v = _mm_min_ps(_mm_max_ps(v, vnlim), vlim);
        __m128i q = _mm_cvtps_epi32(v);
        q = _mm_packs_epi16(_mm_packs_epi32(q, q), q);
        const std::int32_t lanes = _mm_cvtsi128_si32(q);
        std::memcpy(out + i, &lanes, 4);
    }
    if (i < n)
        quantizeScalar(src + i, n - i, invScale, lim, out + i);
}

float
absMaxSse2(const float* src, std::int64_t n)
{
    // |v| = v with the sign bit cleared; max is order-independent, so the
    // 4-lane reduction is exact for every finite input (and -0 -> 0, same
    // as fabs).
    const __m128 vsign = _mm_set1_ps(-0.0f);
    __m128 vmax = _mm_setzero_ps();
    std::int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        vmax = _mm_max_ps(vmax, _mm_andnot_ps(vsign, _mm_loadu_ps(src + i)));
    float lanes[4];
    _mm_storeu_ps(lanes, vmax);
    float m = lanes[0];
    for (int l = 1; l < 4; ++l)
        m = lanes[l] > m ? lanes[l] : m;
    const float tail = absMaxScalar(src + i, n - i);
    return tail > m ? tail : m;
}

void
matmulF32Sse2(const float* a, std::int64_t m, std::int64_t k, const float* b,
              std::int64_t n, float* c)
{
    matmulF32<Sse2F32>(a, m, k, b, n, c);
}

void
attentionSse2(const float* q, const float* k, const float* v, std::int64_t t,
              std::int64_t dim, std::int64_t heads, float* out,
              AttentionScratch& scratch)
{
    attention<Sse2F32>(q, k, v, t, dim, heads, out, scratch);
}

#else // !__SSE2__: non-x86 hosts fall through to the scalar kernels.

bool
sse2KernelsCompiled()
{
    return false;
}

void
intGemmSse2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
            const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    intGemmScalar(xq, m, k, wp, n, acc);
}

void
quantizeSse2(const float* src, std::int64_t n, float invScale, int lim,
             std::int8_t* out)
{
    quantizeScalar(src, n, invScale, lim, out);
}

float
absMaxSse2(const float* src, std::int64_t n)
{
    return absMaxScalar(src, n);
}

void
matmulF32Sse2(const float* a, std::int64_t m, std::int64_t k, const float* b,
              std::int64_t n, float* c)
{
    matmulF32Scalar(a, m, k, b, n, c);
}

void
attentionSse2(const float* q, const float* k, const float* v, std::int64_t t,
              std::int64_t dim, std::int64_t heads, float* out,
              AttentionScratch& scratch)
{
    attentionScalar(q, k, v, t, dim, heads, out, scratch);
}

#endif

} // namespace create::simd::detail
