// Policy API (paper §3.5).
//
// A policy is an arbitrary predicate over a converged data plane: Plankton
// invokes the callback once per converged state the model checker generates,
// passing the PEC's data plane plus the control-plane RIBs. Policies may
// declare source nodes (enables policy-based pruning, §4.2) and interesting
// nodes (enables converged-state equivalence suppression and keeps those
// devices in their own DEC, §4.3).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataplane/fib.hpp"
#include "pec/pec.hpp"

namespace plankton {

/// Everything a policy callback may inspect about one converged state. It
/// holds no failure set: a verdict depends on the data plane and the RIBs
/// alone, which failure relevance (docs/architecture.md) relies on.
struct ConvergedView {
  const Network& net;
  const Pec& pec;
  const DataPlane& dp;
  std::span<const TaskRib> ribs;  ///< per (prefix, protocol) control-plane state
  const ModelContext& ctx;
  /// Walk scratch owned by the caller, reused across converged states so a
  /// check allocates nothing once warm.
  WalkMemo& walks;
  /// The entries that differ from the previous data plane the caller
  /// built. Meaningful only when `previous_held`.
  std::span<const NodeId> changed = {};
  /// The previous built data plane held: it was checked against this
  /// policy and held, or its check was suppressed (§3.5) as a repeat of a
  /// plane that held. Then every forwarding loop of `dp` passes through a
  /// changed entry. A policy may ignore both fields.
  bool previous_held = false;
};

class Policy {
 public:
  virtual ~Policy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Nodes whose forwarding the policy inspects; empty = all nodes.
  [[nodiscard]] virtual std::span<const NodeId> sources() const { return {}; }

  /// Nodes whose position on paths matters; empty = all nodes.
  [[nodiscard]] virtual std::span<const NodeId> interesting() const { return {}; }

  /// Returns true when the converged state satisfies the policy. On failure,
  /// `why` receives a human-readable explanation.
  [[nodiscard]] virtual bool check(const ConvergedView& view, std::string& why) const = 0;

  /// True when the policy outcome is a function of the §3.5 equivalence
  /// signature (source path lengths + interesting-node positions), enabling
  /// converged-state suppression. Policies that inspect control-plane
  /// attributes (e.g. Path Consistency) must return false.
  [[nodiscard]] virtual bool supports_equivalence() const { return true; }

  /// The policy rendered in the make_policy grammar below ("reach
  /// <node>...", "loop", ...), so a client can send it as a kQuery and a
  /// test can rebuild it on a renumbered copy of the network. Every
  /// built-in policy has one unless a node name holds a comma; empty = no
  /// spec form.
  [[nodiscard]] virtual std::string spec(const Network& net) const {
    (void)net;
    return "";
  }
};

/// All sources must deliver on every forwarding branch.
class ReachabilityPolicy final : public Policy {
 public:
  explicit ReachabilityPolicy(std::vector<NodeId> sources);
  [[nodiscard]] std::string name() const override { return "reachability"; }
  [[nodiscard]] std::span<const NodeId> sources() const override { return sources_; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string& why) const override;
  [[nodiscard]] std::string spec(const Network& net) const override;

 private:
  std::vector<NodeId> sources_;
};

/// Every delivered path from a source must cross one of the waypoints, and
/// traffic must actually be delivered.
class WaypointPolicy final : public Policy {
 public:
  WaypointPolicy(std::vector<NodeId> sources, std::vector<NodeId> waypoints);
  [[nodiscard]] std::string name() const override { return "waypoint"; }
  [[nodiscard]] std::span<const NodeId> sources() const override { return sources_; }
  [[nodiscard]] std::span<const NodeId> interesting() const override { return waypoints_; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string& why) const override;
  [[nodiscard]] std::string spec(const Network& net) const override;

 private:
  std::vector<NodeId> sources_;
  std::vector<NodeId> waypoints_;
};

/// No forwarding cycle reachable from any node ("a loop policy can't
/// optimize as aggressively: it has to consider all sources", §3.5). When
/// the view's previous plane held, the check walks only from the changed
/// entries, and walks every node only to name a loop it found.
class LoopFreedomPolicy final : public Policy {
 public:
  [[nodiscard]] std::string name() const override { return "loop-freedom"; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string& why) const override;
  [[nodiscard]] std::string spec(const Network& net) const override;
};

/// No source's traffic may hit a drop entry.
class BlackholeFreedomPolicy final : public Policy {
 public:
  explicit BlackholeFreedomPolicy(std::vector<NodeId> sources = {});
  [[nodiscard]] std::string name() const override { return "blackhole-freedom"; }
  [[nodiscard]] std::span<const NodeId> sources() const override { return sources_; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string& why) const override;
  [[nodiscard]] std::string spec(const Network& net) const override;

 private:
  std::vector<NodeId> sources_;
};

/// All delivered paths from sources have at most `limit` hops.
class BoundedPathLengthPolicy final : public Policy {
 public:
  BoundedPathLengthPolicy(std::vector<NodeId> sources, std::uint32_t limit);
  [[nodiscard]] std::string name() const override { return "bounded-path-length"; }
  [[nodiscard]] std::span<const NodeId> sources() const override { return sources_; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string& why) const override;
  [[nodiscard]] std::string spec(const Network& net) const override;

 private:
  std::vector<NodeId> sources_;
  std::uint32_t limit_;
};

/// All ECMP branches from a source share one fate: all delivered or none
/// (Minesweeper's multipath-consistency, referenced in §3.5).
class MultipathConsistencyPolicy final : public Policy {
 public:
  explicit MultipathConsistencyPolicy(std::vector<NodeId> sources = {});
  [[nodiscard]] std::string name() const override { return "multipath-consistency"; }
  [[nodiscard]] std::span<const NodeId> sources() const override { return sources_; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string& why) const override;
  [[nodiscard]] std::string spec(const Network& net) const override;

 private:
  std::vector<NodeId> sources_;
};

/// The devices in one group must have identical control-plane route
/// attributes and identical data-plane path shape (the paper's Path
/// Consistency, §3.5 — a control-plane-inspecting policy in the spirit of
/// Minesweeper's Local Equivalence).
class PathConsistencyPolicy final : public Policy {
 public:
  explicit PathConsistencyPolicy(std::vector<NodeId> group);
  [[nodiscard]] std::string name() const override { return "path-consistency"; }
  [[nodiscard]] std::span<const NodeId> sources() const override { return group_; }
  [[nodiscard]] bool check(const ConvergedView& view, std::string& why) const override;
  [[nodiscard]] bool supports_equivalence() const override { return false; }
  [[nodiscard]] std::string spec(const Network& net) const override;

 private:
  std::vector<NodeId> group_;
};

/// Builds a policy from a one-line spec, the one grammar behind
/// plankton_verify's positional arguments, plankton_client's queries and
/// Policy::spec(): `reach <node>...`, `loop`, `blackhole [<node>...]`,
/// `bounded <limit> <node>...`, `waypoint <via>[,<via>...] <source>...`,
/// `multipath [<node>...]`, `consistency <node>...`. Tokens are separated
/// by spaces, and node lists take commas as well (`reach r1,r2`). Returns
/// nullptr and fills `error` on an unknown form or node name.
std::unique_ptr<Policy> make_policy(const Network& net, std::string_view spec,
                                    std::string& error);

}  // namespace plankton
