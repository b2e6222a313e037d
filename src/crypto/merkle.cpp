#include "crypto/merkle.hpp"

#include <vector>

namespace decloud::crypto {

Digest merkle_parent(const Digest& left, const Digest& right) {
  Sha256 h;
  const std::uint8_t tag = 0x01;  // domain separation: internal node
  h.update({&tag, 1});
  h.update({left.data(), left.size()});
  h.update({right.data(), right.size()});
  return h.finish();
}

Digest merkle_root(std::span<const Digest> leaves) {
  if (leaves.empty()) return Digest{};
  // Fold one level at a time in place: parent i/2 overwrites a node its
  // level has already read.
  std::vector<Digest> level(leaves.begin(), leaves.end());
  while (level.size() > 1) {
    const std::size_t n = level.size();
    for (std::size_t i = 0; i < n; i += 2) {
      level[i / 2] = merkle_parent(level[i], level[i + 1 < n ? i + 1 : i]);
    }
    level.resize((n + 1) / 2);
  }
  return level.front();
}

}  // namespace decloud::crypto
