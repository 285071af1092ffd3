#pragma once

/**
 * @file
 * Runtime SIMD kernel dispatch for the inference and calibration hot
 * paths, and the packed weight layout its integer GEMM reads.
 *
 * The data-plane kernels exist in one variant per instruction set: a
 * portable scalar kernel, an SSE2 kernel (the integer GEMM's golden
 * reference), an AVX2 kernel, and an AVX-512 (VNNI) kernel. CPUID
 * detection at first use picks the widest variant the host supports; the
 * `CREATE_FORCE_ISA` environment variable (scalar | sse2 | avx2 |
 * avx512vnni) pins the choice for testing and for the CI legs that keep
 * the narrower tiers exercised on AVX-capable runners. The table has two
 * halves:
 *
 *  - Integer: intGemm (int8 GEMM into int32 accumulators), activation
 *    quantization, and absmax calibration scans -- the quantized,
 *    fault-injectable datapath every episode spends its cycles in.
 *  - FP32: matmulF32 (ops::matmul / matmulAccum, hence calibration,
 *    Hadamard rotation and autograd training) and the attention core of
 *    MultiHeadAttention::infer (scores, softmax, context).
 *
 * Packed weights: every tier's intGemm reads the weight in one K-pair
 * layout, built once per frozen layer by packWeights() (see
 * QuantGemmState::freeze). For K pair q and column j it holds the two
 * bytes (w[2q][j], w[2q+1][j]) side by side, so one sign-extending load
 * yields the int16 pairs a `pmaddwd`/`vpdpwssd` multiplies against a
 * broadcast activation pair. An odd K is zero-padded, and N is padded to
 * whole kPackPanel-column panels, so every tier loads whole panels.
 *
 * Every variant is bit-identical by construction. Integer half: integer
 * accumulation is exact in any summation order, quantization rounds with
 * the same round-to-nearest-even the scalar `nearbyint` path uses
 * (cvtps2dq rounds per the default MXCSR), and max-reduction is
 * order-independent. FP32 half: float addition is not associative, so
 * the vector tiers spread *independent* output elements across lanes and
 * keep each element's own arithmetic exactly the scalar loop's -- terms
 * in ascending k (or d, or j) order, each a rounded multiply followed by
 * a separately rounded add (create_core builds with -ffp-contract=off, so
 * no compiler fuses them into an FMA), the zero skip, and a scalar
 * `std::exp` per softmax element. The golden suite
 * (tests/test_hotpath_golden.cpp) enforces all of it with exact `memcmp`
 * across every variant the host can run, so switching ISAs can never
 * change an episode, a ledger, a trained weight, or a campaign result.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace create::simd {

/**
 * Scratch the attention kernels grow and reuse (one per ComputeContext,
 * in its GemmWorkspace), so a warm attention call allocates nothing.
 */
struct AttentionScratch
{
    std::vector<float> k;      //!< K transposed (channels x keys)
    std::vector<float> v;      //!< one head's V (scalar tier only)
    std::vector<float> scores; //!< one head's score/probability rows
};

/** Instruction-set tiers of the dispatched kernel family (ascending). */
enum class Isa
{
    Scalar = 0,     //!< portable C++ (any architecture)
    Sse2 = 1,       //!< paired-K pmaddwd (the golden reference kernel)
    Avx2 = 2,       //!< paired-K pmaddwd, 16-column x 4-row tiles
    Avx512Vnni = 3, //!< vpdpwssd, 32-column x 4-row (or 16 x 8) tiles
};

/** Columns per panel of the packed layout: N is padded to a multiple. */
constexpr std::int64_t kPackPanel = 16;

/** Padded column count of a packed weight with `n` columns. */
constexpr std::int64_t
packedCols(std::int64_t n)
{
    return (n + kPackPanel - 1) / kPackPanel * kPackPanel;
}

/**
 * Pack a row-major K x N int8 weight into the K-pair layout every tier's
 * intGemm reads: out[(q * packedCols(n) + j) * 2 + h] = w[2q + h][j],
 * zero where 2q + h >= K or j >= N, for (K + 1) / 2 pairs q. Resizes
 * `out` to fit.
 */
void packWeights(const std::int8_t* wq, std::int64_t k, std::int64_t n,
                 std::vector<std::int8_t>& out);

/** One ISA's kernel set. All variants produce bit-identical results. */
struct KernelTable
{
    Isa isa = Isa::Scalar;

    /**
     * acc(MxN) += xq(MxK) @ w(KxN), exact int32 accumulation. `wp` is w
     * in the packed K-pair layout (packWeights), not row-major.
     */
    void (*intGemm)(const std::int8_t* xq, std::int64_t m, std::int64_t k,
                    const std::int8_t* wp, std::int64_t n,
                    std::int32_t* acc) = nullptr;

    /**
     * out[i] = clamp(nearbyint(src[i] * invScale), -lim, lim) as int8,
     * round-to-nearest-even (the default FP environment).
     */
    void (*quantize)(const float* src, std::int64_t n, float invScale,
                     int lim, std::int8_t* out) = nullptr;

    /** max_i |src[i]| (0 for n == 0); exact (max is order-independent). */
    float (*absMax)(const float* src, std::int64_t n) = nullptr;

    // -- FP32 half: every tier repeats the scalar loop's arithmetic --------

    /**
     * c(MxN) += a(MxK) @ b(KxN), all row-major. Each c[i][j] adds
     * a[i][kk] * b[kk][j] in ascending kk, a rounded multiply then a
     * rounded add per term, and skips every term whose a[i][kk] == 0: an
     * inf or NaN in b never reaches c through a zero a entry, and a -0.0
     * in c survives a row of zeros.
     */
    void (*matmulF32)(const float* a, std::int64_t m, std::int64_t k,
                      const float* b, std::int64_t n, float* c) = nullptr;

    /**
     * Self-attention core over row-major (t x dim) q, k, v split into
     * `heads` heads of hd = dim / heads channels. For each head and query
     * row i: s[j] = (sum over d of q[i][d] * k[j][d], ascending d) *
     * (1 / sqrt(hd)); p = softmax(s), its max taken as std::max from
     * -1e30, one std::exp per element, the sum in ascending j, then one
     * multiply by 1 / sum; out[i][head] = sum over j of p[j] * v[j][head],
     * ascending j, from 0. Overwrites `out` (t x dim); grows `scratch`.
     */
    void (*attention)(const float* q, const float* k, const float* v,
                      std::int64_t t, std::int64_t dim, std::int64_t heads,
                      float* out, AttentionScratch& scratch) = nullptr;
};

/**
 * The active kernel table. First call resolves CPUID detection and the
 * CREATE_FORCE_ISA override; afterwards this is one atomic load.
 */
const KernelTable& active();

/** ISA of the active table. */
Isa activeIsa();

/**
 * Select a tier at runtime (used by the per-ISA golden tests and
 * benchmarks). Returns false -- and leaves the active table unchanged --
 * when the host cannot run `isa`. Not safe to call concurrently with
 * in-flight kernels; tests switch between suites, never inside one.
 */
bool setActive(Isa isa);

/** Every tier this host supports, ascending (always contains Scalar). */
std::vector<Isa> supported();

/** The widest supported tier (what detection picks absent an override). */
Isa best();

/** Canonical lowercase name: "scalar" / "sse2" / "avx2" / "avx512vnni". */
const char* isaName(Isa isa);

/** Parse an ISA name (accepts "avx512" for avx512vnni). */
bool parseIsa(const std::string& name, Isa* out);

/**
 * Apply a CREATE_FORCE_ISA-style value: parse it and make it active.
 * Unknown names and unsupported tiers warn on stderr and select best().
 * Returns the ISA actually selected. (The env variable itself is applied
 * automatically on first use; this entry point exists so tests can
 * exercise the override logic in-process.)
 */
Isa applyForceIsa(const std::string& value);

/**
 * One-line ISA report for bench/driver context output, e.g.
 * "isa=avx512vnni (supported: scalar sse2 avx2 avx512vnni; forced: no)".
 */
std::string report();

} // namespace create::simd
