#pragma once

/**
 * @file
 * Internal per-ISA kernel entry points behind create::simd dispatch.
 *
 * Each family lives in its own translation unit so CMake can attach the
 * matching -m<isa> flags to exactly one file (the rest of the library
 * stays at the baseline architecture). Every function here implements
 * the contract documented on create::simd::KernelTable and is
 * bit-identical to the scalar kernels; the AVX2/AVX-512 TUs fall back to
 * delegating wrappers when the compiler cannot target the ISA, and
 * report that through their *Compiled() probes so the dispatcher never
 * advertises a tier that is secretly scalar. Every intGemm* reads its
 * weight in the packed K-pair layout (simd::packWeights).
 */

#include <cstddef>
#include <cstdint>

namespace create::simd::detail {

/**
 * The calling thread's activation-pair scratch, at least `count` int32
 * slots: grown on first use and reused by every later GEMM on the thread
 * (like the injector's InjectScratch), so steady-state calls allocate
 * nothing. The SIMD tiers widen each call's activations into it once.
 */
std::int32_t* pairScratch(std::size_t count);

// -- portable scalar (always real) ----------------------------------------
void intGemmScalar(const std::int8_t* xq, std::int64_t m, std::int64_t k,
                   const std::int8_t* wp, std::int64_t n, std::int32_t* acc);
void quantizeScalar(const float* src, std::int64_t n, float invScale, int lim,
                    std::int8_t* out);
float absMaxScalar(const float* src, std::int64_t n);

// -- SSE2 (golden reference; real whenever __SSE2__, i.e. any x86-64) -----
bool sse2KernelsCompiled();
void intGemmSse2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
                 const std::int8_t* wp, std::int64_t n, std::int32_t* acc);
/**
 * xq (M x K int8) widened into pairScratch(): row i holds (K + 1) / 2
 * int32 slots, slot q the int16 pair (x[i][2q], x[i][2q+1]) (high half 0
 * past K), ready to broadcast against a packed weight pair. The SSE2 and
 * AVX2 tiers share it.
 */
const std::int32_t* widenPairsSse2(const std::int8_t* xq, std::int64_t m,
                                   std::int64_t k);
void quantizeSse2(const float* src, std::int64_t n, float invScale, int lim,
                  std::int8_t* out);
float absMaxSse2(const float* src, std::int64_t n);

// -- AVX2 -----------------------------------------------------------------
bool avx2KernelsCompiled();
void intGemmAvx2(const std::int8_t* xq, std::int64_t m, std::int64_t k,
                 const std::int8_t* wp, std::int64_t n, std::int32_t* acc);
void quantizeAvx2(const float* src, std::int64_t n, float invScale, int lim,
                  std::int8_t* out);
float absMaxAvx2(const float* src, std::int64_t n);

// -- AVX-512 VNNI ---------------------------------------------------------
bool avx512KernelsCompiled();
void intGemmAvx512(const std::int8_t* xq, std::int64_t m, std::int64_t k,
                   const std::int8_t* wp, std::int64_t n, std::int32_t* acc);
void quantizeAvx512(const float* src, std::int64_t n, float invScale, int lim,
                    std::int8_t* out);
float absMaxAvx512(const float* src, std::int64_t n);

} // namespace create::simd::detail
