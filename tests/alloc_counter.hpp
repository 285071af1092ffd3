#pragma once

/** @file
 *  A counting global operator new for the tests that assert a hot path
 *  allocates nothing once warm. Every unaligned form is replaced, so each
 *  allocation is counted and every new/delete pair stays malloc/free (as
 *  the sanitizers expect). The replacements are definitions: include this
 *  header from one translation unit of a test binary only. */

#include <cstdint>
#include <cstdlib>
#include <new>

/** Heap allocations made by the calling thread, through any operator new. */
inline thread_local std::uint64_t tAllocations = 0;

namespace alloc_counter_detail {

inline void*
countedAlloc(std::size_t size) noexcept
{
    ++tAllocations;
    return std::malloc(size == 0 ? 1 : size);
}

inline void*
countedAllocOrThrow(std::size_t size)
{
    if (void* p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace alloc_counter_detail

void*
operator new(std::size_t size)
{
    return alloc_counter_detail::countedAllocOrThrow(size);
}
void*
operator new[](std::size_t size)
{
    return alloc_counter_detail::countedAllocOrThrow(size);
}
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return alloc_counter_detail::countedAlloc(size);
}
void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return alloc_counter_detail::countedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
