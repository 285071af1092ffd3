#pragma once

/** @file The row blocking the register-blocked kernels share: the int8
 *  GEMM tiers, the FP32 matmul/attention tiers and the row-blocked norms
 *  all walk their rows in blocks of a compile-time size, so each block
 *  keeps its rows' accumulators side by side. Instantiated with a
 *  kernel's own (TU-local) lambda, so every SIMD TU gets its own copy. */

#include <cstdint>
#include <type_traits>

namespace create {

/**
 * fn(i, std::integral_constant<int, R>{}) over rows [0, m): blocks of
 * R = 8 while `eight` (compiled in only when kEight), then of 4, then one
 * block of 3, 2 or 1, so every row count runs on a fixed-size block.
 */
template <bool kEight = false, class Fn>
inline void
forRowBlocks(std::int64_t m, Fn&& fn, bool eight = kEight)
{
    std::int64_t i = 0;
    if constexpr (kEight)
        if (eight)
            for (; i + 8 <= m; i += 8)
                fn(i, std::integral_constant<int, 8>{});
    for (; i + 4 <= m; i += 4)
        fn(i, std::integral_constant<int, 4>{});
    switch (m - i) {
      case 3: fn(i, std::integral_constant<int, 3>{}); break;
      case 2: fn(i, std::integral_constant<int, 2>{}); break;
      case 1: fn(i, std::integral_constant<int, 1>{}); break;
      default: break;
    }
}

} // namespace create
