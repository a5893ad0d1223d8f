// Canonical state encoding for the RPVP search.
//
// The model checker never stores states whole: each control-plane state is
// reduced to a 64-bit canonical key. The StateCodec owns that encoding so
// the search and the protocol semantics need not know how states are
// identified:
//
//   · per-phase RIBs are hashed incrementally with an order-independent
//     Zobrist XOR over (node, route) pairs — applying and undoing a move is
//     O(1) and commutative, so permutations of the same RIB collide by
//     construction (that is the point: RPVP states are RIB-valued);
//   · phases are chained: the key of phase t folds in the converged RIB
//     hashes of phases 0..t-1 plus the failure-set / upstream-outcome
//     context, so identical RIBs reached under different histories stay
//     distinct (§3.3).
//
// Keys feed the VisitedBackend; nothing else about state identity leaks out.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/hash.hpp"
#include "netbase/topology.hpp"
#include "protocols/route.hpp"

namespace plankton {

class StateCodec {
 public:
  /// Prepares per-phase accumulators for `phases` search phases.
  void reset(std::size_t phases);

  /// Sets the phase-0 context from the failure set and the chosen upstream
  /// converged outcome (0 when there is none).
  void begin_root(std::uint64_t failures_hash, std::uint64_t upstream_hash);

  /// Starts phase `t`: chains the context hash from phase t-1's converged
  /// RIB (t > 0) and resets t's RIB accumulator to the all-⊥ RIB.
  void begin_phase(std::size_t t);

  /// Records that node `n`'s RIB entry in phase `t` changed old -> now.
  void record(std::size_t t, NodeId n, RouteId old_route, RouteId new_route) {
    rib_hash_[t] ^= zob(n, old_route) ^ zob(n, new_route);
  }

  /// Canonical key of the full search state while phase `t` executes.
  [[nodiscard]] std::uint64_t state_key(std::size_t t) const {
    return hash_combine(ctx_hash_[t], hash_combine(rib_hash_[t], t + 1));
  }

 private:
  /// Zobrist contribution of (node, route) to the order-independent hash.
  [[nodiscard]] static std::uint64_t zob(NodeId n, RouteId r) {
    return hash_mix((std::uint64_t{n} << 32) ^ r ^ 0xabcd1234u);
  }

  std::vector<std::uint64_t> rib_hash_;  ///< [phase] incremental RIB hash
  std::vector<std::uint64_t> ctx_hash_;  ///< [phase] chained history context
};

}  // namespace plankton
