// Data-layout helpers for the selection/propagation hot path
// (core/select.cpp, core/greedy.cpp): a cache-line-aligned allocator for
// the selection tree, a software-prefetch wrapper for the
// sorted-adjacency walk, and the one SIMD feature gate the vectorized
// kernels compile under.
//
// The SIMD gate is deliberately coarse: VDIST_SIMD_AVX2 is 1 exactly when
// the compiler was told the target has AVX2 (e.g. -march=native via the
// VDIST_NATIVE_ARCH CMake option) and nothing forced it off with
// VDIST_NO_SIMD. Every vectorized kernel ships next to a scalar fallback
// that computes bit-identical results — per-lane IEEE divisions and
// comparisons only, no reductions whose order could differ — so builds
// with and without the gate produce identical picks (the native-arch CI
// job runs the full differential suite to prove it).
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace vdist::util {

// x86-64 and all current ARM server cores use 64-byte cache lines; on
// anything else this is still a harmless over-alignment.
inline constexpr std::size_t kCacheLine = 64;

// Minimal aligned allocator: the selection tree's nodes live in a vector
// whose data() is cache-line aligned, so each 32-byte sibling pair a
// leaf-to-root pass compares sits in one cache line.
template <typename T, std::size_t Align = kCacheLine>
struct AlignedAlloc {
  using value_type = T;

  AlignedAlloc() noexcept = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };

  friend bool operator==(const AlignedAlloc&, const AlignedAlloc&) noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAlloc<T>>;

}  // namespace vdist::util

// Read-prefetch with high temporal locality; a no-op where unsupported.
#if defined(__GNUC__) || defined(__clang__)
#define VDIST_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define VDIST_PREFETCH(addr) ((void)0)
#endif

#if defined(__AVX2__) && !defined(VDIST_NO_SIMD)
#define VDIST_SIMD_AVX2 1
#else
#define VDIST_SIMD_AVX2 0
#endif
