#include "engine/independence.hpp"

namespace plankton {

void IndependenceOracle::reset(std::size_t phases, std::size_t nodes) {
  nodes_ = nodes;
  words_ = (nodes + 63) / 64;
  rows_.resize(phases);
  for (auto& r : rows_) r.assign(nodes_ * words_, 0);
}

void IndependenceOracle::add_transition(std::size_t phase, NodeId node,
                                        std::span<const NodeId> reads) {
  auto& row = rows_[phase];
  set(row, node, node);
  for (const NodeId r : reads) {
    set(row, node, r);
    set(row, r, node);
  }
}

std::size_t IndependenceOracle::bytes() const {
  std::size_t total = 0;
  for (const auto& r : rows_) total += r.capacity() * sizeof(std::uint64_t);
  return total;
}

}  // namespace plankton
