// Binary prefix trie over the IPv4 space, used to partition the header space
// into Packet Equivalence Classes (paper §3.1, Fig. 4).
//
// Prefixes are inserted bit by bit from the MSB. `partition()` performs the
// recursive traversal the paper describes: it walks the trie keeping track of
// where prefix boundaries divide the header space and emits maximal ranges,
// each annotated with the set of inserted prefixes covering it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netbase/ip.hpp"

namespace plankton {

class PrefixTrie {
 public:
  struct Range {
    IpAddr lo;
    IpAddr hi;
    std::vector<std::uint32_t> values;  ///< ids of prefixes covering the range
  };

  PrefixTrie();

  /// Associates `value` with `prefix`. Duplicate (prefix, value) pairs are
  /// stored once.
  void insert(const Prefix& prefix, std::uint32_t value);

  /// Partitions the entire 32-bit space into ranges whose covering-prefix set
  /// is constant, sorted by `lo` and back-to-back contiguous. Adjacent ranges
  /// with identical value sets are merged.
  [[nodiscard]] std::vector<Range> partition() const;

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    std::vector<std::uint32_t> values;  ///< prefixes terminating at this node
  };

  void walk(const Node& node, int depth, std::uint32_t base,
            std::vector<std::uint32_t>& active, std::vector<Range>& out) const;

  std::unique_ptr<Node> root_;
};

}  // namespace plankton
