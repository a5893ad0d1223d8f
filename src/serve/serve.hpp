// Verification-as-a-service: resident state and wire payloads for the
// plankton_serve daemon.
//
// The daemon keeps a parsed network resident and answers policy queries,
// consulting the fingerprint-keyed VerdictCache so an unchanged PEC never
// re-explores. Config deltas are line-level edits against the resident
// config text: apply_delta() re-parses, recomputes every PEC's dependency-
// cone fingerprint, and counts how many PECs *moved* (their cone hash
// changed, or they appeared/disappeared). Nothing is explicitly invalidated
// — a moved PEC simply keys to a fresh cache slot, and the next query
// re-verifies exactly the misses through the resident Verifier (budgets,
// dedup, POR, cores compose unchanged).
//
// Frame payloads ride the PKS1 framing (sched/frame.hpp MsgType 7..11). Each
// payload struct lists its fields in wire order and its codecs walk that list
// through sched/wire.hpp, under its decode contract — false on
// truncated/corrupt/hostile input, output left default-initialized, every
// count validated against the bytes present before it sizes an allocation.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "config/parser.hpp"
#include "core/verifier.hpp"
#include "sched/wire.hpp"
#include "serve/journal.hpp"
#include "serve/verdict_cache.hpp"

namespace plankton::serve {

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

/// kLoadNet: full config text replacing any resident network.
struct LoadNetMsg {
  std::string config_text;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.config_text);
  }
};

/// One line-level config edit. `add` appends the line to the resident config;
/// `!add` removes the first exact-match line (error if absent).
struct DeltaOp {
  bool add = true;
  std::string line;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.add, s.line);
  }
};

/// kApplyDelta: ordered edit batch, applied atomically (all-or-nothing — a
/// batch whose result fails to parse/validate leaves the resident net as-is).
struct ApplyDeltaMsg {
  std::vector<DeltaOp> ops;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.ops);
  }
};

/// kQuery: policy spec (make_policy grammar, policy/policy.hpp) + query
/// knobs.
struct QueryMsg {
  std::string policy_spec;
  std::uint32_t max_failures = 0;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.policy_spec, s.max_failures);
  }
};

struct ViolationText {
  std::string pec;
  std::string message;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.pec, s.message);
  }
};

/// kVerdictReply: the daemon's answer to kLoadNet / kApplyDelta / kQuery.
struct VerdictReplyMsg {
  bool ok = false;            ///< request processed (false => see `error`)
  std::uint8_t verdict = 0;   ///< plankton::Verdict (queries only)
  std::string error;
  std::uint64_t targets = 0;      ///< PECs the query covered
  std::uint64_t cache_hits = 0;   ///< served from the verdict cache
  std::uint64_t reverified = 0;   ///< PECs actually explored
  std::uint64_t moved = 0;        ///< PECs whose cone moved (last delta)
  std::int64_t wall_ns = 0;
  std::vector<ViolationText> violations;

  template <typename S, typename V>
  static constexpr bool wire_fields(S& s, V&& v) {
    return v(s.ok, wire::at_most(s.verdict, Verdict::kError), s.error,
             s.targets, s.cache_hits, s.reverified, s.moved, s.wall_ns,
             s.violations);
  }
};

/// kCacheStats reply (the request direction carries an empty payload).
using CacheStatsMsg = CacheCounters;

std::string encode_load_net(const LoadNetMsg& m);
bool decode_load_net(std::string_view in, LoadNetMsg& out);
std::string encode_apply_delta(const ApplyDeltaMsg& m);
bool decode_apply_delta(std::string_view in, ApplyDeltaMsg& out);
std::string encode_query(const QueryMsg& m);
bool decode_query(std::string_view in, QueryMsg& out);
std::string encode_verdict_reply(const VerdictReplyMsg& m);
bool decode_verdict_reply(std::string_view in, VerdictReplyMsg& out);
std::string encode_cache_stats(const CacheStatsMsg& m);
bool decode_cache_stats(std::string_view in, CacheStatsMsg& out);

// ---------------------------------------------------------------------------
// Config rendering
// ---------------------------------------------------------------------------

/// Renders a network back into parser syntax, deterministically (node-id
/// order). Idempotent through the parser: render(parse(render(net))) ==
/// render(net) — the property the fingerprint-stability tests lean on.
/// `communities` is the route-map community interning from ParsedNetwork
/// (bits without a name render as "C<bit>").
std::string render_config(
    const Network& net,
    const std::unordered_map<std::uint8_t, std::string>& community_names = {});

/// Reverses ParsedNetwork::communities for render_config.
std::unordered_map<std::uint8_t, std::string> community_names_of(
    const std::map<std::string, std::uint8_t>& communities);

// ---------------------------------------------------------------------------
// Resident daemon state
// ---------------------------------------------------------------------------

class ServeState {
 public:
  explicit ServeState(VerifyOptions opts);

  /// Parses + validates `config_text` and makes it resident, then compacts
  /// the journal when one is attached.
  bool load(const std::string& config_text, std::string& error);

  /// Applies a line-edit batch. On success recomputes fingerprint cones and
  /// records how many PECs moved; on failure the resident state is unchanged.
  bool apply_delta(const ApplyDeltaMsg& delta, std::string& error);

  /// Answers a policy query over every routed PEC: cache hits (clean holds
  /// under the current cone hash) are served without exploration, the misses
  /// re-verify through the resident Verifier under the query's failure
  /// bound, and the clean holds among them are inserted.
  VerdictReplyMsg query(const QueryMsg& q);

  [[nodiscard]] CacheStatsMsg cache_stats() const;

  /// Attaches the PKJ1 write-ahead journal at `path`: every subsequent
  /// accepted load()/apply_delta() is appended + fsync'd before returning,
  /// so an ack sent after a successful call is durable by construction.
  bool attach_journal(const std::string& path, std::string& error);

  /// Replays an existing journal at the attached path through the normal
  /// load/apply_delta paths (appends suppressed), rebuilding the pre-crash
  /// resident state bit-identically; a kCleanHolds record restores its keys
  /// into the verdict cache. Torn/corrupt tails are dropped cleanly and
  /// reported via `stats`; call before serving traffic.
  bool replay_journal(Journal::ReplayResult& stats, std::string& error);

  /// Compacts the journal down to a kLoadNet record of the resident config
  /// and a kCleanHolds record of the cache's keys whose cone some resident
  /// PEC has (no-op without a journal or resident net).
  bool compact_journal(std::string& error);

  [[nodiscard]] bool loaded() const { return verifier_ != nullptr; }
  [[nodiscard]] const Network& net() const { return parsed_.net; }
  [[nodiscard]] const Verifier& verifier() const { return *verifier_; }
  [[nodiscard]] std::uint64_t last_moved() const { return last_moved_; }
  [[nodiscard]] const std::string& config_text() const { return config_text_; }
  [[nodiscard]] VerdictCache& cache() { return cache_; }

  /// Cone hash of PEC `p` under the resident net (exposed for tests).
  [[nodiscard]] std::uint64_t cone_of(PecId p) const { return cones_[p]; }

 private:
  bool make_resident(std::string config_text, std::string& error);
  void recompute_cones();

  VerifyOptions opts_;
  std::string config_text_;
  ParsedNetwork parsed_;
  std::unique_ptr<Verifier> verifier_;
  std::vector<std::uint64_t> cones_;  ///< per-PEC dependency-cone hash
  std::vector<std::uint64_t> ids_;    ///< per-PEC hash of Pec::str()
  std::uint64_t last_moved_ = 0;
  VerdictCache cache_;
  Journal journal_;
  /// True while replay_journal() drives load/apply_delta — suppresses
  /// re-appending the records being replayed.
  bool replaying_ = false;
};

}  // namespace plankton::serve
