// Batch PEC verification: equivalence classes of isomorphic PECs (ROADMAP
// "Batch PEC verification", the Bonsai observation applied *across* PECs).
//
// On symmetric fabrics most PECs induce the same relevant configuration
// slice up to a renaming of devices — the fat-tree all-pairs workloads of
// Fig. 7a/7b differ per PEC only in which edge switch originates the prefix.
// Exploring each of those PECs repeats bit-for-bit isomorphic work. This
// module fingerprints every dedup-eligible PEC's relevant slice with the
// trace of an equitable cell refinement (the colour refinement behind
// DEC/Bonsai, §4.3), searches PECs whose fingerprints coincide for a node
// bijection by individualization–refinement (McKay & Piperno, "Practical
// graph isomorphism II", 2014), and then *proves* each grouping by
// validating that bijection as a full configuration isomorphism:
//
//   · topology automorphism (per-direction link costs, parallel links),
//   · per-device config equivalence (OSPF role, BGP sessions with
//     route maps canonicalized to their evaluation footprint on the PEC's
//     prefixes, static-route slices, /32 loopback delivery),
//   · per-prefix slice correspondence (origins, statics, prefix lengths),
//   · policy fixed points (every declared source/interesting node must map
//     to itself — the same contract §4.2/§4.3 pruning already relies on).
//
// A validated isomorphism guarantees the two PECs' exploration state graphs
// are isomorphic, so a clean "holds" verdict transfers soundly from the
// class representative to every member. Anything short of clean holds
// (violation, timeout, state cap) makes the verifier fall back to exploring
// the members natively, so reported counterexample trails stay bit-identical
// to a dedup-off run. PECs with cross-PEC dependencies (either direction,
// §3.2) or self-loops are never grouped: their explorations consume or
// produce per-PEC converged outcomes that do not transfer. Failed validation
// degrades to a singleton class — asymmetric networks pay only the
// classing cost.
//
// The partition does not depend on device numbering. Refinement reads
// positions and label hashes, never node ids, and a member searches for a
// bijection instead of trying one: it replays the representative's path of
// individualized nodes, backtracking over its own cells, until a leaf
// validates. A search that exhausts its cells finds no isomorphism; one
// that spends a fixed number of steps beyond the path's length gives up
// (PecDedupStats::search_fallbacks). Either leaves the member in a class of
// its own, which is sound. Up to that budget and to 64-bit hash collisions,
// two PECs share a class exactly when they are isomorphic.
//
// Validation is two checks: the bijection is a topology automorphism
// (same_topology), and it carries one PEC's configuration onto the other's
// (same_config). Automorphisms compose, so every validated bijection is kept
// as a generator, and a member first tries the orbit of its class's anchor
// (the first node, by level-0 position, that the representative's slice
// isolated) under them. When the member's own anchor is in that orbit, the
// product of generators along the orbit's Schreier vector maps one anchor
// onto the other; it is an automorphism by closure, so only same_config runs
// on it (Debug builds assert same_topology too). If it passes, the member
// joins without a search (PecDedupStats::orbit_hits); otherwise it searches
// as above. Either way the class is the same, except that an orbit can place
// a member whose search would have run out of steps.
//
// Cost: one call flattens the topology once into a CSR arc array and
// refines the PEC-independent base partition (roles, policy salts,
// topology) once; each PEC restores it and adds only its slice and an
// overlay of its own edges (BGP sessions, static via relations). Splits
// re-queue every part but the largest (Hopcroft), twin cells (nodes with
// identical labelled neighbours) are never split and never individualized,
// and validation compares link costs by value through per-neighbor stamp
// arrays. An orbit member costs one product of generators (O(nodes) per
// generator on its Schreier path) and one same_config instead of a path
// replay and a same_topology; a class's Schreier vector is O(nodes) and is
// extended only when a member's anchor falls outside it. Traces,
// generators and orbits live for one call: only the partitions are the
// contract.
//
// The module also computes the serve cache's per-PEC residue
// (compute_pec_fingerprints below). That is a plain value hash with no
// refinement: the cell refinement runs for dedup classing only.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "config/network.hpp"
#include "pec/pec.hpp"
#include "policy/policy.hpp"
#include "sched/deps.hpp"

namespace plankton {

struct PecDedupStats {
  std::size_t classes = 0;     ///< classes over dedup-eligible PECs
  std::size_t deduped = 0;     ///< member PECs riding on a representative
  std::size_t singletons = 0;  ///< classes with exactly one member
  /// Member comparisons whose isomorphism search hit its step budget. Each
  /// leaves the member out of that class, which is sound but loses dedup.
  std::size_t search_fallbacks = 0;
  /// Members placed by a product of earlier validated bijections, with no
  /// search (the orbit step).
  std::size_t orbit_hits = 0;
  /// Wall time spent classing: refinement plus validation (the dedup
  /// overhead a fully-asymmetric workload pays for nothing).
  std::chrono::nanoseconds classing_time{0};
};

/// The class partition over the needed PECs of one verification.
struct PecClassSet {
  /// rep_of[p]: class representative of PEC p — p itself for representatives,
  /// singletons, and every PEC dedup does not apply to (kNoPec when p was not
  /// considered, i.e. outside the needed set).
  std::vector<PecId> rep_of;
  /// members_of[r]: member PECs translated from representative r, excluding
  /// r itself. Non-empty only for representatives of multi-member classes.
  std::vector<std::vector<PecId>> members_of;
  PecDedupStats stats;

  [[nodiscard]] bool is_translated_member(PecId p) const {
    return p < rep_of.size() && rep_of[p] != kNoPec && rep_of[p] != p;
  }
};

/// Groups the needed target PECs of a verification into isomorphism classes.
/// `needed` / `is_target` are the dependency-closure masks Verifier computes
/// (sized to pecs.pecs.size()). Only PECs that are needed, policy-checked
/// targets, and free of cross-PEC dependencies in either direction are
/// considered; everything else keeps rep_of[p] == p semantics via singleton
/// treatment at the verifier (rep_of[p] is set to p for needed-but-ineligible
/// PECs so callers can treat the vector uniformly).
PecClassSet compute_pec_classes(const Network& net, const PecSet& pecs,
                                const PecDependencies& deps,
                                const Policy& policy,
                                std::span<const std::uint8_t> needed,
                                std::span<const std::uint8_t> is_target);

/// Stable per-PEC identity for the serve-layer verdict cache
/// (src/serve/verdict_cache.hpp): the PEC's *residue*, a hash of every
/// config value its exploration can read, with device identities, names,
/// concrete prefix values, ASNs, loopbacks, redistribute flags, route-map
/// contents and per-direction link costs all included by value.
///
/// The residue is *range-scoped*: globally-routed state (names, loopbacks,
/// ASNs, protocol roles, session topology, link costs) is shared by every
/// PEC, but prefix-valued config — originated prefixes, static routes,
/// route-map clause contents — folds in only where its address range
/// intersects the PEC's [lo, hi]. A delta touching prefix X moves exactly
/// the PECs X can influence, which is what keeps the serve daemon's cache
/// hot across deltas.
///
/// No renaming-invariant half is needed: everything the classing refinement
/// reads without a policy (costs, roles, sessions and their fireable
/// clauses, the PEC's prefixes, origins, statics and /32 loopbacks) is
/// already hashed here, so a canonical form could never split two equal
/// residues. A new config field the explorer starts reading must be hashed
/// here too — network-wide in network_residue, or range-scoped when it is
/// prefix-valued — or a delta editing it would be served a stale verdict.
///
/// Built exclusively from netbase/hash.hpp constexpr mixers over config
/// *values* (never pointers), so residues are bit-identical across
/// processes, runs, and ASLR — the property the warm-start disk cache
/// depends on. Index-aligned with `pecs.pecs`; deterministic in the network
/// and PEC contents.
std::vector<std::uint64_t> compute_pec_fingerprints(const Network& net,
                                                    const PecSet& pecs);

}  // namespace plankton
