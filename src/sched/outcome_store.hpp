// In-memory store of converged PEC outcomes (paper §3.2).
//
// "For an SCC S, if there is another SCC S′ that depends on it, Plankton
// forces all possible outcomes of S to be written to an in-memory
// filesystem... When the verification of S′ gets scheduled, it reads these
// converged states, and uses them when necessary." This is that store:
// outcomes are kept as PecOutcome objects and served to downstream runs as
// UpstreamResolvers, matched by failure set so topology changes stay
// coordinated across PECs. evict() releases a PEC's outcomes once every
// dependent has consumed them, bounding the store on long runs.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pec/pec.hpp"
#include "rpvp/explorer.hpp"

namespace plankton {

class OutcomeStore {
 public:
  OutcomeStore(const Network& net, const PecSet& pecs);
  ~OutcomeStore();  // out of line: Composite is incomplete here

  void put(PecId pec, std::vector<PecOutcome> outcomes);
  [[nodiscard]] bool has(PecId pec) const;
  [[nodiscard]] std::span<const PecOutcome> get(PecId pec) const;

  /// Releases the outcomes stored for `pec`. Only legal once every combos()
  /// resolver built from them is out of use — i.e. once all of `pec`'s
  /// dependents have finished their runs (Verifier tracks that count).
  void evict(PecId pec);

  /// Heap footprint of the stored outcomes (not the handed-out resolvers).
  [[nodiscard]] std::size_t bytes() const;

  /// All combinations of one outcome per dependency, restricted to outcomes
  /// recorded under exactly `failures`. Returned resolvers are owned by the
  /// store and stay valid for its lifetime. Empty when some dependency has
  /// no outcome under the failure set.
  [[nodiscard]] std::vector<const UpstreamResolver*> combos(
      std::span<const PecId> deps, const FailureSet& failures) const;

 private:
  class Composite;

  const Network& net_;
  const PecSet& pecs_;
  mutable std::mutex mu_;
  std::map<PecId, std::vector<PecOutcome>> outcomes_;
  mutable std::vector<std::unique_ptr<Composite>> resolvers_;
};

/// UpstreamProvider adapter over the store for one downstream PEC.
class StoreProvider final : public UpstreamProvider {
 public:
  StoreProvider(const OutcomeStore& store, std::vector<PecId> deps)
      : store_(store), deps_(std::move(deps)) {}

  [[nodiscard]] std::vector<const UpstreamResolver*> outcomes(
      const FailureSet& failures) const override {
    if (deps_.empty()) {
      return {nullptr};  // no upstream information needed
    }
    return store_.combos(deps_, failures);
  }

 private:
  const OutcomeStore& store_;
  std::vector<PecId> deps_;
};

}  // namespace plankton
