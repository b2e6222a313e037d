#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/hex.hpp"

namespace decloud::crypto {
namespace {

std::vector<Digest> make_leaves(std::size_t n) {
  std::vector<Digest> leaves;
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(Sha256::hash("leaf" + std::to_string(i)));
  return leaves;
}

TEST(Merkle, EmptyTreeHasZeroRoot) { EXPECT_EQ(merkle_root({}), Digest{}); }

TEST(Merkle, SingleLeafRootIsLeaf) {
  const auto leaves = make_leaves(1);
  EXPECT_EQ(merkle_root(leaves), leaves[0]);
}

TEST(Merkle, ParentIsDomainSeparatedFromLeafHash) {
  // An internal node must never collide with SHA-256 of concatenated
  // children (second-preimage style mischief).
  const Digest a = Sha256::hash("a");
  const Digest b = Sha256::hash("b");
  std::vector<std::uint8_t> cat(a.begin(), a.end());
  cat.insert(cat.end(), b.begin(), b.end());
  EXPECT_NE(merkle_parent(a, b), Sha256::hash({cat.data(), cat.size()}));
}

TEST(Merkle, OrderMatters) {
  const Digest a = Sha256::hash("a");
  const Digest b = Sha256::hash("b");
  EXPECT_NE(merkle_parent(a, b), merkle_parent(b, a));
  EXPECT_NE(merkle_root(std::vector<Digest>{a, b}), merkle_root(std::vector<Digest>{b, a}));
}

TEST(Merkle, RootKnownAnswers) {
  // Roots over make_leaves(n).  The root is in every block header, so a
  // fold that moves any of these bytes moves every block hash; sizes 3, 5
  // and 7 pin the odd-level duplicate rule.
  const std::pair<std::size_t, const char*> pins[] = {
      {0, "0000000000000000000000000000000000000000000000000000000000000000"},
      {1, "4d5a9584d985e8fb44015a8affa9b76f1ff16f65e61df7156d8e8159e1448978"},
      {2, "78034e309d8da2f785118f27dab404e9417741e4e53a96ac01f96a66597dd690"},
      {3, "fda457bddf023ed66ab5788438f3c1bc0a4a5369379496183a398dbbc1b9e669"},
      {5, "8f4f7b246c008372ae72395f7226ba0e36ed9b9500039e21c37658916c267b3a"},
      {7, "0568824b29e3f1fd9b4786a0e8bcb836a9627a2f70ce7b1e29fea22e9635fac5"},
  };
  for (const auto& [n, hex] : pins) EXPECT_EQ(to_hex(merkle_root(make_leaves(n))), hex) << n;
}

TEST(Merkle, RootChangesWithAnyLeaf) {
  const auto leaves = make_leaves(8);
  const Digest original = merkle_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto tampered = leaves;
    tampered[i] = Sha256::hash("tampered");
    EXPECT_NE(merkle_root(tampered), original) << "leaf " << i;
  }
}

TEST(Merkle, RootChangesWithLeafCount) {
  EXPECT_NE(merkle_root(make_leaves(4)), merkle_root(make_leaves(5)));
}

}  // namespace
}  // namespace decloud::crypto
