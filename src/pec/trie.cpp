#include "pec/trie.hpp"

#include <algorithm>

namespace plankton {

PrefixTrie::PrefixTrie() : root_(std::make_unique<Node>()) {}

void PrefixTrie::insert(const Prefix& prefix, std::uint32_t value) {
  Node* node = root_.get();
  for (int depth = 0; depth < prefix.length(); ++depth) {
    const int bit = (prefix.addr().value() >> (31 - depth)) & 1;
    if (!node->child[bit]) node->child[bit] = std::make_unique<Node>();
    node = node->child[bit].get();
  }
  if (std::find(node->values.begin(), node->values.end(), value) ==
      node->values.end()) {
    node->values.push_back(value);
  }
}

std::vector<PrefixTrie::Range> PrefixTrie::partition() const {
  std::vector<Range> raw;
  std::vector<std::uint32_t> active;
  walk(*root_, 0, 0, active, raw);
  std::sort(raw.begin(), raw.end(),
            [](const Range& x, const Range& y) { return x.lo < y.lo; });
  // Merge contiguous ranges whose covering set is identical (missing siblings
  // along a single-child chain produce adjacent ranges with equal sets).
  std::vector<Range> merged;
  for (auto& r : raw) {
    if (!merged.empty() && merged.back().values == r.values &&
        merged.back().hi.value() + 1 == r.lo.value()) {
      merged.back().hi = r.hi;
    } else {
      merged.push_back(std::move(r));
    }
  }
  return merged;
}

void PrefixTrie::walk(const Node& node, int depth, std::uint32_t base,
                      std::vector<std::uint32_t>& active,
                      std::vector<Range>& out) const {
  const std::size_t active_mark = active.size();
  active.insert(active.end(), node.values.begin(), node.values.end());

  // Width of the address block rooted at `depth` minus one; depth 32 is a
  // single address (shifting by >= 32 would be UB).
  const auto span_below = [](int d) {
    return d >= 32 ? 0u : (~std::uint32_t{0} >> d);
  };
  const bool leaf = !node.child[0] && !node.child[1];
  if (leaf || depth == 32) {
    Range r;
    r.lo = IpAddr(base);
    r.hi = IpAddr(base + span_below(depth));
    r.values.assign(active.begin(), active.end());
    std::sort(r.values.begin(), r.values.end());
    out.push_back(std::move(r));
  } else {
    for (const int bit : {0, 1}) {
      const std::uint32_t child_base =
          bit == 0 ? base : base + (std::uint32_t{1} << (31 - depth));
      if (node.child[bit]) {
        walk(*node.child[bit], depth + 1, child_base, active, out);
      } else {
        // Uncovered half below this node: one maximal range whose covering
        // set is exactly the prefixes active on the path so far.
        Range r;
        r.lo = IpAddr(child_base);
        r.hi = IpAddr(child_base + span_below(depth + 1));
        r.values.assign(active.begin(), active.end());
        std::sort(r.values.begin(), r.values.end());
        out.push_back(std::move(r));
      }
    }
  }
  active.resize(active_mark);
}

}  // namespace plankton
