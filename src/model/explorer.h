// Bounded exhaustive exploration of the down-scaled machine.
//
// Deterministic BFS from the boot state: every op is applied to every
// frontier state, each transition is checked (machine vs spec outcome and
// successor, transition rule, state invariants, access-predicate sweep),
// and successors are deduplicated by their canonical encoding. Levels are
// expanded in parallel but merged in frontier order, and every stop
// condition is evaluated at level boundaries, so visited/transition counts
// and the counterexample list are identical across runs and thread counts.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "model/op.h"
#include "model/state.h"

namespace sealpk::model {

struct Counterexample {
  std::vector<Op> ops;    // replayable path from the boot state
  std::string kind;       // "divergence" | "invariant" | "harness-check"
  std::string invariant;  // invariant identifier when kind == "invariant"
  std::string message;

  bool operator==(const Counterexample&) const = default;
};

struct ExploreStats {
  u64 states = 0;       // distinct states reached (including the boot state)
  u64 transitions = 0;  // op applications checked
  u64 depth = 0;        // deepest completed BFS level
  bool complete = false;   // frontier exhausted (full closure)
  bool truncated = false;  // stopped by the max_states budget
  std::vector<u64> level_sizes;  // states first reached per BFS level

  bool operator==(const ExploreStats&) const = default;
};

struct ExploreResult {
  ExploreStats stats;
  std::vector<Counterexample> counterexamples;
};

using ProgressFn =
    std::function<void(u64 depth, u64 states, u64 transitions)>;

ExploreResult explore(const ModelConfig& cfg,
                      const ProgressFn& progress = nullptr);

// Replays one op script with the same per-transition checks the explorer
// runs. Used by `sealpk model repro` and the committed-trace regression
// tests.
struct ReplayFinding {
  std::string kind;  // as in Counterexample
  std::string invariant;
  std::string message;
};

struct ReplayResult {
  bool failed = false;
  size_t op_index = 0;  // first failing op (valid when failed)
  // Every problem the failing op produced (one transition can both diverge
  // from the spec and break an invariant; the explorer reports each as its
  // own counterexample). front() is the primary finding.
  std::vector<ReplayFinding> findings;
};

ReplayResult replay(const ModelConfig& cfg, const std::vector<Op>& ops);

}  // namespace sealpk::model
