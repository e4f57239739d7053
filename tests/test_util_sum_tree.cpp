#include "util/sum_tree.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "pairwise_sum.h"
#include "util/rng.h"

namespace vdist::util {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Values whose sums round: mixed magnitudes, so a different summation
// order shows in the low bits.
double random_value(Rng& rng) {
  const double scale = rng.uniform_int(0, 2) == 0 ? 1e-3 : 1e3;
  return rng.uniform(0.0, scale);
}

// The tree's total against fold() and the independent recursion, bit for
// bit, over the leaves the test mirrors.
void expect_total_exact(const SumTree<double>& tree,
                        const std::vector<double>& leaves,
                        const std::string& where) {
  ASSERT_EQ(tree.size(), leaves.size()) << where;
  const double want = testing::pairwise_sum(leaves);
  EXPECT_EQ(bits(tree.total()), bits(want)) << where;
  EXPECT_EQ(bits(SumTree<double>::fold(leaves)), bits(want)) << where;
}

TEST(SumTree, RandomSetsMatchFoldAndTheRecursiveReference) {
  Rng rng(17);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 100u, 1000u}) {
    std::vector<double> leaves(n);
    for (double& v : leaves) v = random_value(rng);
    SumTree<double> tree;
    tree.build(n, [&](std::size_t i) { return leaves[i]; });
    expect_total_exact(tree, leaves, "build n=" + std::to_string(n));
    for (int step = 0; step < 300; ++step) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      leaves[i] = step % 7 == 0 ? 0.0 : random_value(rng);
      tree.set(i, leaves[i]);
      expect_total_exact(tree, leaves,
                         "n=" + std::to_string(n) + " step " +
                             std::to_string(step));
      if (HasFailure()) return;
    }
  }
}

TEST(SumTree, EmptyAndSingleLeaf) {
  SumTree<double> tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(bits(tree.total()), bits(0.0));
  EXPECT_EQ(bits(SumTree<double>::fold({})), bits(0.0));
  tree.build(0, [](std::size_t) { return 1.0; });
  EXPECT_EQ(bits(tree.total()), bits(0.0));

  tree.grow(1);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(bits(tree.total()), bits(0.0));
  tree.set(0, 2.5);
  EXPECT_EQ(tree.total(), 2.5);
  EXPECT_EQ(SumTree<double>::fold({2.5}), 2.5);
}

// Appends one leaf at a time across the padded widths 1 -> 2, 64 -> 128
// and 2048 -> 4096, each new leaf set right after its grow (the way the
// sessions append users); the total stays the reference's throughout,
// with each grown leaf 0 until it is set.
TEST(SumTree, GrowthAcrossPowersOfTwo) {
  Rng rng(5);
  SumTree<double> tree;
  std::vector<double> leaves;
  const auto append = [&] {
    leaves.push_back(0.0);
    tree.grow(leaves.size());
    expect_total_exact(tree, leaves, "grown leaf " +
                                         std::to_string(leaves.size() - 1));
    leaves.back() = random_value(rng);
    tree.set(leaves.size() - 1, leaves.back());
  };
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 2047u, 2049u}) {
    while (leaves.size() < n) append();
    expect_total_exact(tree, leaves, "grown to " + std::to_string(n));
    // An old leaf is still addressable after a rebuild at a wider width.
    const std::size_t i = leaves.size() / 2;
    leaves[i] = random_value(rng);
    tree.set(i, leaves[i]);
    expect_total_exact(tree, leaves, "set after " + std::to_string(n));
  }
  // A grow by several leaves at once, past the width: the new leaves
  // read 0 until set.
  tree.grow(5000);
  leaves.resize(5000, 0.0);
  expect_total_exact(tree, leaves, "grown to 5000");
}

TEST(SumTree, AnUnchangedSetLeavesTheRootBitsAlone) {
  Rng rng(3);
  std::vector<double> leaves(777);
  for (double& v : leaves) v = random_value(rng);
  SumTree<double> tree;
  tree.build(leaves.size(), [&](std::size_t i) { return leaves[i]; });
  const std::uint64_t root = bits(tree.total());
  for (std::size_t i = 0; i < leaves.size(); i += 13) {
    tree.set(i, leaves[i]);
    ASSERT_EQ(bits(tree.total()), root) << "leaf " << i;
  }
  // A change and its undo restore the root exactly.
  tree.set(5, leaves[5] + 1.0);
  EXPECT_NE(bits(tree.total()), root);
  tree.set(5, leaves[5]);
  EXPECT_EQ(bits(tree.total()), root);
}

// The shape is not user order: summing pairwise reads a different value
// than a sequential fold on inputs that round, which is why the
// maintained objectives' reference folds the tree's shape.
TEST(SumTree, DiffersFromASequentialFoldWhereRoundingShows) {
  const std::vector<double> leaves = {1.0, 1e-16, 1e-16, 1e-16};
  SumTree<double> tree;
  tree.build(leaves.size(), [&](std::size_t i) { return leaves[i]; });
  double sequential = 0.0;
  for (const double v : leaves) sequential += v;
  EXPECT_EQ(sequential, 1.0);  // each 1e-16 rounds away against 1.0
  EXPECT_GT(tree.total(), 1.0);  // the pair 1e-16 + 1e-16 survives
}

}  // namespace
}  // namespace vdist::util
