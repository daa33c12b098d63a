/**
 * @file
 * Counting replacements of the global allocation functions, for tests
 * that assert a code path performs no heap allocation.
 *
 * The header defines the replacements themselves, so include it from
 * exactly one source file of a test executable; each test source file
 * is its own executable (tests/CMakeLists.txt), which confines the
 * replacement to that binary. The replacements forward to malloc and
 * only bump a counter while allocationsDuring() runs its work.
 */

#ifndef CARBONX_TESTS_SUPPORT_COUNTING_NEW_H
#define CARBONX_TESTS_SUPPORT_COUNTING_NEW_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace carbonx::testsupport
{
namespace detail
{
inline std::atomic<std::uint64_t> g_allocation_count{0};
inline std::atomic<bool> g_count_allocations{false};

inline void
noteAllocation()
{
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocation_count.fetch_add(1, std::memory_order_relaxed);
}

inline void *
countedAlloc(std::size_t size)
{
    noteAllocation();
    void *p = std::malloc(size ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

inline void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    noteAllocation();
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}
} // namespace detail

/** Heap allocations made, on any thread, while @p work runs. */
template <class Work>
std::uint64_t
allocationsDuring(Work &&work)
{
    detail::g_allocation_count.store(0);
    detail::g_count_allocations.store(true);
    work();
    detail::g_count_allocations.store(false);
    return detail::g_allocation_count.load();
}

} // namespace carbonx::testsupport

void *
operator new(std::size_t size)
{
    return carbonx::testsupport::detail::countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return carbonx::testsupport::detail::countedAlloc(size);
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    carbonx::testsupport::detail::noteAllocation();
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    carbonx::testsupport::detail::noteAllocation();
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return carbonx::testsupport::detail::countedAlignedAlloc(
        size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return carbonx::testsupport::detail::countedAlignedAlloc(
        size, static_cast<std::size_t>(align));
}
void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

#endif // CARBONX_TESTS_SUPPORT_COUNTING_NEW_H
