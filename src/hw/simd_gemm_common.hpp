#pragma once

/** @file Register blocking shared by the SIMD int-GEMM tiers (SSE2, AVX2,
 *  AVX-512). Each tier supplies a Tile written with its own intrinsics;
 *  this header walks rows and columns over it. Everything here has
 *  internal linkage: every kernel TU instantiates its own copy under its
 *  own -m flags, so the linker can never hand an SSE2 caller a copy
 *  compiled for AVX. */

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/row_blocks.hpp"
#include "hw/kernel_dispatch.hpp"

namespace create::simd::detail {
namespace {

/**
 * Run `tile(c, ldc)` on the R x W accumulator tile at `acc` (row stride
 * `n`) of which only the first `cols` columns exist. A ragged tile runs
 * on a zero-padded stack copy, so the tile itself always loads and
 * stores whole vectors (for tiers without masked loads).
 */
template <int R, int W, class Fn>
inline void
raggedTile(std::int32_t* acc, std::int64_t n, std::int64_t cols, Fn&& tile)
{
    if (cols == W)
        return tile(acc, n);
    std::int32_t tmp[R * W] = {};
    const auto bytes = static_cast<std::size_t>(cols) * sizeof(std::int32_t);
    for (int r = 0; r < R; ++r)
        std::memcpy(tmp + r * W, acc + r * n, bytes);
    tile(tmp, static_cast<std::int64_t>(W));
    for (int r = 0; r < R; ++r)
        std::memcpy(acc + r * n, tmp + r * W, bytes);
}

/**
 * R rows of acc(MxN) += x @ w across all N columns, in tiles of one or
 * two vectors of Tile::kV int32 columns. `Tile::template run<R, P>(xw,
 * pairs, wp, stride, c, n, cols)` accumulates the R x (P * kV) tile whose
 * first accumulator is `c` (row stride `n`) over every K pair; `wp`
 * points at the tile's first column of packed pair row 0, `stride` is the
 * packed row pitch in bytes, and only `cols` of its columns exist. Tiles
 * fully unroll their row and vector loops (`#pragma GCC unroll`): only
 * then does GCC keep the accumulator array in registers rather than on
 * the stack.
 */
template <class Tile, int R>
inline void
gemmRows(const std::int32_t* xw, std::int64_t pairs, const std::int8_t* wp,
         std::int64_t n, std::int32_t* acc)
{
    constexpr std::int64_t kV = Tile::kV;
    const std::int64_t stride = 2 * packedCols(n);
    for (std::int64_t j0 = 0; j0 < n; j0 += 2 * kV) {
        const std::int64_t cols = std::min(2 * kV, n - j0);
        if (cols > kV)
            Tile::template run<R, 2>(xw, pairs, wp + 2 * j0, stride,
                                     acc + j0, n, cols);
        else
            Tile::template run<R, 1>(xw, pairs, wp + 2 * j0, stride,
                                     acc + j0, n, cols);
    }
}

/**
 * acc(MxN) += x(MxK) @ w(KxN) from widened activation pairs `xw` (row i
 * at xw + i * (K + 1) / 2, see widenPairsSse2) and packed weights `wp`.
 * Rows go in blocks of 4 -- of 8 when Tile::kEightRows and one panel
 * covers N, so a narrow GEMM still keeps 8 accumulators in flight --
 * then one block of 3, 2 or 1: every row of every call shares each
 * weight load with the rest of its block.
 */
template <class Tile>
inline void
gemmPacked(const std::int32_t* xw, std::int64_t m, std::int64_t k,
           const std::int8_t* wp, std::int64_t n, std::int32_t* acc)
{
    const std::int64_t pairs = (k + 1) / 2;
    forRowBlocks<Tile::kEightRows>(
        m,
        [&](std::int64_t i, auto rows) {
            gemmRows<Tile, decltype(rows)::value>(xw + i * pairs, pairs, wp,
                                                  n, acc + i * n);
        },
        n <= kPackPanel);
}

} // namespace
} // namespace create::simd::detail
