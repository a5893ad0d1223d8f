#include "engine/frontier.hpp"

#include <algorithm>
#include <cassert>

namespace plankton {

void Frontier::enqueue(std::int32_t id) {
  // Reclaim the consumed prefix wholesale once it dominates the vector;
  // amortized O(1) per push, no deque indirection.
  if (head_ > 64 && head_ * 2 > pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  pending_.push_back(id);
  peak_ = std::max(peak_, pending_.size() - head_);
}

void Frontier::push(std::int32_t parent, const SearchMove& move) {
  PathNode node;
  node.parent = parent;
  node.depth = depth(parent) + 1;
  node.move = move;
  const auto id = static_cast<std::int32_t>(arena_.size());
  arena_.push_back(node);
  enqueue(id);
}

std::int32_t Frontier::pop() {
  assert(!empty());
  return pending_[head_++];
}

std::size_t Frontier::bytes() const {
  return arena_.capacity() * sizeof(PathNode) +
         pending_.capacity() * sizeof(std::int32_t);
}

}  // namespace plankton
