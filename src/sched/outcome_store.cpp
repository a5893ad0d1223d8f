#include "sched/outcome_store.hpp"

#include <algorithm>

#include "netbase/hash.hpp"

namespace plankton {

/// One outcome per upstream PEC, answering IGP-cost and next-hop queries by
/// locating the PEC of the queried address.
class OutcomeStore::Composite final : public UpstreamResolver {
 public:
  Composite(const OutcomeStore& store, std::vector<std::pair<PecId, const PecOutcome*>> picks)
      : store_(store), picks_(std::move(picks)) {
    std::uint64_t h = 0x5eed;
    for (const auto& [pec, out] : picks_) {
      h = hash_combine(h, hash_combine(pec, out->hash));
    }
    hash_ = h;
  }

  [[nodiscard]] std::uint32_t igp_cost(NodeId from, IpAddr target) const override {
    const PecOutcome* out = outcome_for(target);
    if (out == nullptr || from >= out->igp_cost.size()) return kInfiniteCost;
    return out->igp_cost[from];
  }

  [[nodiscard]] std::span<const NodeId> nexthops_towards(
      NodeId from, IpAddr target) const override {
    const PecOutcome* out = outcome_for(target);
    if (out == nullptr) return {};
    const FibEntry& e = out->dp.at(from);
    if (e.kind != FwdKind::kForward) return {};
    return e.nexthops;
  }

  [[nodiscard]] std::uint64_t outcome_hash() const override { return hash_; }

 private:
  [[nodiscard]] const PecOutcome* outcome_for(IpAddr target) const {
    const PecId pec = store_.pecs_.find(target);
    for (const auto& [id, out] : picks_) {
      if (id == pec) return out;
    }
    return nullptr;
  }

  const OutcomeStore& store_;
  std::vector<std::pair<PecId, const PecOutcome*>> picks_;
  std::uint64_t hash_ = 0;
};

OutcomeStore::OutcomeStore(const Network& net, const PecSet& pecs)
    : net_(net), pecs_(pecs) {}

OutcomeStore::~OutcomeStore() = default;

void OutcomeStore::put(PecId pec, std::vector<PecOutcome> outcomes) {
  const std::scoped_lock lock(mu_);
  outcomes_[pec] = std::move(outcomes);
}

bool OutcomeStore::has(PecId pec) const {
  const std::scoped_lock lock(mu_);
  return outcomes_.contains(pec);
}

std::span<const PecOutcome> OutcomeStore::get(PecId pec) const {
  const std::scoped_lock lock(mu_);
  const auto it = outcomes_.find(pec);
  if (it == outcomes_.end()) return {};
  return it->second;
}

void OutcomeStore::evict(PecId pec) {
  const std::scoped_lock lock(mu_);
  outcomes_.erase(pec);
}

std::size_t OutcomeStore::bytes() const {
  const std::scoped_lock lock(mu_);
  std::size_t total = 0;
  for (const auto& [pec, outs] : outcomes_) {
    total += outs.capacity() * sizeof(PecOutcome);
    for (const PecOutcome& o : outs) {
      total += o.igp_cost.capacity() * sizeof(std::uint32_t);
      total += o.dp.bytes();
    }
  }
  return total;
}

std::vector<const UpstreamResolver*> OutcomeStore::combos(
    std::span<const PecId> deps, const FailureSet& failures) const {
  const std::scoped_lock lock(mu_);
  // Collect, per dependency, the outcomes recorded under this failure set.
  std::vector<std::vector<const PecOutcome*>> choices;
  for (const PecId dep : deps) {
    const auto it = outcomes_.find(dep);
    if (it == outcomes_.end()) return {};
    std::vector<const PecOutcome*> matching;
    for (const PecOutcome& out : it->second) {
      if (out.failures == failures) matching.push_back(&out);
    }
    if (matching.empty()) return {};
    choices.push_back(std::move(matching));
  }
  // Cross product (usually 1x1x...x1: real networks converge deterministically
  // for the recursive PECs, §6).
  std::vector<const UpstreamResolver*> result;
  std::vector<std::size_t> idx(choices.size(), 0);
  while (true) {
    std::vector<std::pair<PecId, const PecOutcome*>> picks;
    picks.reserve(deps.size());
    for (std::size_t i = 0; i < deps.size(); ++i) {
      picks.emplace_back(deps[i], choices[i][idx[i]]);
    }
    resolvers_.push_back(std::make_unique<Composite>(*this, std::move(picks)));
    result.push_back(resolvers_.back().get());
    // Advance the mixed-radix counter.
    std::size_t i = 0;
    while (i < idx.size()) {
      if (++idx[i] < choices[i].size()) break;
      idx[i] = 0;
      ++i;
    }
    if (i == idx.size()) break;
  }
  return result;
}

}  // namespace plankton
