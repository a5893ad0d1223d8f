// Commutativity oracle for dynamic partial-order reduction (DPOR).
//
// A move of the per-phase RPVP state machine at node n writes rib[n] and
// reads rib[p] for every session peer p of n (that is the complete footprint:
// enabled-status refresh, candidate collection and advertisement evaluation
// all read only the node's own entry and its peers'). Two moves *conflict*
// iff one writes an entry the other reads or writes:
//
//   dep(a, b)  ⇔  a == b  ∨  a ∈ peers(b)  ∨  b ∈ peers(a)
//
// Everything else commutes: applying two independent moves in either order
// reaches the same state, and neither changes the other's candidate set
// (tests/test_independence.cpp checks this against the real protocol
// processes). The oracle stores the relation as one bitmask row per node so
// the sleep-set hot path is a handful of word operations. The footprint is
// complete only because advertised() is pure (the contract in
// protocols/process.hpp, which every process keeps).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/topology.hpp"

namespace plankton {

/// Dense per-phase dependence relation over node-granularity transitions,
/// derived from read/write footprints. dep is symmetric and reflexive;
/// independence is its complement (symmetric and irreflexive).
class IndependenceOracle {
 public:
  /// Clears the relation to "no transitions declared" (everything
  /// vacuously independent) for `phases` × `nodes`.
  void reset(std::size_t phases, std::size_t nodes);

  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_; }
  [[nodiscard]] std::size_t phase_count() const { return rows_.size(); }

  /// Declares the transition at `node`: write set {node}, read set `reads`.
  /// Conflicts accumulate symmetrically — write/write on the same node, and
  /// write/read in either direction against previously declared transitions
  /// (node-granularity: the reader's own transition writes its node).
  void add_transition(std::size_t phase, NodeId node,
                      std::span<const NodeId> reads);

  /// The dependence bitmask row of `node` (`words()` words).
  [[nodiscard]] const std::uint64_t* row(std::size_t phase, NodeId node) const {
    return &rows_[phase][std::size_t{node} * words_];
  }

  [[nodiscard]] bool dependent(std::size_t phase, NodeId a, NodeId b) const {
    return ((row(phase, a)[b >> 6] >> (b & 63)) & 1) != 0;
  }
  [[nodiscard]] bool independent(std::size_t phase, NodeId a, NodeId b) const {
    return !dependent(phase, a, b);
  }

  [[nodiscard]] std::size_t bytes() const;

 private:
  void set(std::vector<std::uint64_t>& row, NodeId a, NodeId b) const {
    row[std::size_t{a} * words_ + (b >> 6)] |= std::uint64_t{1} << (b & 63);
  }

  std::size_t nodes_ = 0;
  std::size_t words_ = 0;
  std::vector<std::vector<std::uint64_t>> rows_;  ///< [phase][node * words]
};

// -- sleep-set mask helpers (the Explorer's per-depth DFS frames) ------------

inline bool mask_test(const std::uint64_t* m, NodeId n) {
  return ((m[n >> 6] >> (n & 63)) & 1) != 0;
}
inline void mask_set(std::uint64_t* m, NodeId n) {
  m[n >> 6] |= std::uint64_t{1} << (n & 63);
}

/// child = (sleep ∪ prior) ∖ dep — the sleep set inherited by the child
/// reached by a move whose dependence row is `dep`, after the siblings in
/// `prior` have been (or will be) explored from the parent.
inline void sleep_child(std::uint64_t* child, const std::uint64_t* sleep,
                        const std::uint64_t* prior, const std::uint64_t* dep,
                        std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    child[i] = (sleep[i] | prior[i]) & ~dep[i];
  }
}

}  // namespace plankton
