// A fixed-shape pairwise sum over a growable array of leaves.
//
// The leaves sit in index order, padded with value-initialized T (+0.0
// for the engine's sums) up to the next power of two, and every internal
// node is left + right: the sum's bits are a function of the leaf values
// alone, never of the order they were written in. set() recomputes one
// leaf-to-root path, so a maintained total costs O(log n) per changed
// leaf, and fold() sums a plain leaf array in the very same shape, so a
// from-scratch recomputation reproduces a maintained total bit for bit.
// Pairwise summation is also more accurate than a sequential fold: its
// error grows with log n rather than n.
//
// T needs value initialization (the additive zero) and `T + T`.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace vdist::util {

template <typename T>
class SumTree {
 public:
  SumTree() = default;

  // Number of leaves (not counting the padding).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  // The pairwise sum of every leaf; T{} when there are none.
  [[nodiscard]] const T& total() const noexcept { return nodes_[1]; }

  // n leaves, leaf i = leaf_of(i), in O(n).
  template <typename F>
  void build(std::size_t n, F&& leaf_of) {
    size_ = n;
    width_ = std::bit_ceil(n == 0 ? std::size_t{1} : n);
    nodes_.assign(2 * width_, T{});
    for (std::size_t i = 0; i < n; ++i) nodes_[width_ + i] = leaf_of(i);
    for (std::size_t k = width_ - 1; k >= 1; --k)
      nodes_[k] = nodes_[2 * k] + nodes_[2 * k + 1];
  }

  // Sets leaf i (< size()) and recomputes its path to the root.
  void set(std::size_t i, const T& value) noexcept {
    std::size_t k = width_ + i;
    nodes_[k] = value;
    for (k /= 2; k >= 1; k /= 2) nodes_[k] = nodes_[2 * k] + nodes_[2 * k + 1];
  }

  // Extends the array to n >= size() leaves, the new ones T{}. Within the
  // padded width that changes no node; past it the tree is rebuilt at the
  // next power of two, O(n).
  void grow(std::size_t n) {
    if (n <= width_) {
      size_ = std::max(size_, n);
      return;
    }
    const std::vector<T> old = std::move(nodes_);
    const std::size_t old_width = width_;
    const std::size_t old_size = size_;
    build(n, [&](std::size_t i) {
      return i < old_size ? old[old_width + i] : T{};
    });
  }

  // The same shape summed from scratch: what total() reads once every
  // leaf i holds leaves[i].
  [[nodiscard]] static T fold(std::vector<T> leaves) {
    const std::size_t n = leaves.size();
    if (n == 0) return T{};
    leaves.resize(std::bit_ceil(n), T{});
    for (std::size_t w = leaves.size() / 2; w >= 1; w /= 2)
      for (std::size_t k = 0; k < w; ++k)
        leaves[k] = leaves[2 * k] + leaves[2 * k + 1];
    return leaves[0];
  }

 private:
  // nodes_[1] is the root, nodes_[k]'s children are nodes_[2k] and
  // nodes_[2k + 1], and the leaves are nodes_[width_, width_ + size_).
  std::vector<T> nodes_ = std::vector<T>(2);
  std::size_t width_ = 1;
  std::size_t size_ = 0;
};

}  // namespace vdist::util
