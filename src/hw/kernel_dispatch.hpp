#pragma once

/**
 * @file
 * Runtime SIMD kernel dispatch for the integer inference hot path, and
 * the packed weight layout its integer GEMM reads.
 *
 * The three data-plane kernels every episode spends its cycles in --
 * intGemm (int8 GEMM into int32 accumulators), activation quantization,
 * and absmax calibration scans -- exist in one variant per instruction
 * set: a portable scalar kernel, the SSE2 `pmaddwd` kernel (the golden
 * reference the exact-equality test suite is written against), an AVX2
 * `pmaddwd` kernel, and an AVX-512 VNNI (`vpdpwssd`) kernel. CPUID
 * detection at first use picks the widest variant the host supports; the
 * `CREATE_FORCE_ISA` environment variable (scalar | sse2 | avx2 |
 * avx512vnni) pins the choice for testing and for the CI leg that keeps
 * the SSE2 fallback exercised on AVX-capable runners.
 *
 * Packed weights: every tier's intGemm reads the weight in one K-pair
 * layout, built once per frozen layer by packWeights() (see
 * QuantGemmState::freeze). For K pair q and column j it holds the two
 * bytes (w[2q][j], w[2q+1][j]) side by side, so one sign-extending load
 * yields the int16 pairs a `pmaddwd`/`vpdpwssd` multiplies against a
 * broadcast activation pair. An odd K is zero-padded, and N is padded to
 * whole kPackPanel-column panels, so every tier loads whole panels.
 *
 * Every variant is bit-identical by construction: integer accumulation
 * is exact in any summation order, quantization rounds with the same
 * round-to-nearest-even the scalar `nearbyint` path uses (cvtps2dq
 * rounds per the default MXCSR), and max-reduction is order-independent.
 * The golden suite (tests/test_hotpath_golden.cpp) enforces this with
 * exact `memcmp` across every variant the host can run, so switching
 * ISAs can never change an episode, a ledger, or a campaign result.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace create::simd {

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
