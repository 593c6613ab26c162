#include "model/explorer.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "common/pool.h"
#include "model/harness.h"
#include "model/spec.h"

namespace sealpk::model {

namespace {

// States expanded per parallel batch; bounds peak memory while keeping the
// merge order (and therefore all reported numbers) independent of the
// thread count.
constexpr size_t kBatchStates = 512;

struct Problem {
  std::string kind;
  std::string invariant;
  std::string message;
};

struct TransitionCheck {
  std::string got_enc;   // successor encoding; empty if the harness threw
  bool terminal = false;  // trap successors are not expanded further
  std::vector<Problem> problems;
};

std::string outcome_to_string(const Outcome& o) {
  std::ostringstream os;
  switch (o.status) {
    case OpStatus::kOk: os << "ok(rc=" << o.rc << ")"; break;
    case OpStatus::kError: os << "error(rc=" << o.rc << ")"; break;
    case OpStatus::kTrap: os << "trap"; break;
  }
  return os.str();
}

// Applies `op` to `m` reset to `base` (which holds `st` installed) and
// runs every per-transition check.
TransitionCheck run_transition(const ModelConfig& cfg, const Harness& base,
                               Harness& m, const ModelState& st,
                               const Op& op) {
  TransitionCheck tc;
  try {
    m.reset_to(base);
    const Outcome got = m.apply(op);
    const ModelState after = m.extract();
    tc.got_enc = encode_state(after);
    tc.terminal = got.status == OpStatus::kTrap;

    const SpecResult want = spec_apply(cfg, st, op);
    if (!(got == want.outcome)) {
      std::ostringstream os;
      os << "outcome differs for " << op_to_string(op) << ": spec "
         << outcome_to_string(want.outcome) << ", machine "
         << outcome_to_string(got);
      tc.problems.push_back({"divergence", "", os.str()});
    } else if (!(after == want.state)) {
      tc.problems.push_back({"divergence", "",
                             "state differs after " + op_to_string(op) +
                                 ": " + describe_divergence(want.state,
                                                            after)});
    } else {
      // The machine and spec agree on the successor; sweep the access
      // predicates (the load/store/fetch alphabet) over it.
      for (unsigned p = 0; p < cfg.num_pages && tc.problems.empty(); ++p) {
        for (int is_store = 0; is_store < 2; ++is_store) {
          if (m.access_allowed(p, is_store != 0) !=
              spec_access_allowed(after, p, is_store != 0)) {
            std::ostringstream os;
            os << (is_store != 0 ? "store" : "load") << " to page " << p
               << " disagrees with the PTE/pkey intersection after "
               << op_to_string(op);
            tc.problems.push_back(
                {"invariant", "permission-intersection", os.str()});
            break;
          }
        }
        if (m.fetch_allowed(p) != spec_fetch_allowed(after, p)) {
          std::ostringstream os;
          os << "fetch from page " << p << " gated by a pkey after "
             << op_to_string(op);
          tc.problems.push_back(
              {"invariant", "permission-intersection", os.str()});
        }
      }
    }

    for (const auto& v : check_transition(cfg, st, op, got, after)) {
      tc.problems.push_back({"invariant", v.invariant, v.message});
    }
    for (const auto& v : check_invariants(cfg, after)) {
      tc.problems.push_back({"invariant", v.invariant, v.message});
    }
  } catch (const CheckError& e) {
    tc.got_enc.clear();
    tc.terminal = true;
    tc.problems.push_back({"harness-check", "", e.what()});
  }
  return tc;
}

}  // namespace

ExploreResult explore(const ModelConfig& cfg, const ProgressFn& progress) {
  cfg.validate();
  const std::vector<Op> ops = enumerate_ops(cfg);

  ExploreResult res;
  std::unordered_map<std::string, u32> visited;
  std::vector<std::string> encodings;           // record id -> encoding
  std::vector<std::pair<i64, u32>> parents;      // record id -> (parent, op)
  std::set<std::string> reported;               // counterexample dedup

  const ModelState boot = initial_state(cfg);
  encodings.push_back(encode_state(boot));
  parents.emplace_back(-1, 0);
  visited.emplace(encodings[0], 0);

  auto path_to = [&](u32 record) {
    std::vector<Op> path;
    while (parents[record].first >= 0) {
      path.push_back(ops[parents[record].second]);
      record = static_cast<u32>(parents[record].first);
    }
    std::reverse(path.begin(), path.end());
    return path;
  };
  auto report = [&](u32 record, const Op* op, const Problem& pr) {
    if (!reported.insert(pr.kind + "|" + pr.invariant + "|" + pr.message)
             .second) {
      return;
    }
    if (res.counterexamples.size() >= cfg.max_counterexamples) return;
    Counterexample ce;
    ce.ops = path_to(record);
    if (op != nullptr) ce.ops.push_back(*op);
    ce.kind = pr.kind;
    ce.invariant = pr.invariant;
    ce.message = pr.message;
    res.counterexamples.push_back(std::move(ce));
  };

  for (const auto& v : check_invariants(cfg, boot)) {
    report(0, nullptr, {"invariant", v.invariant, v.message});
  }

  std::vector<u32> level{0};
  res.stats.level_sizes.push_back(1);
  bool stop = false;

  while (!level.empty() && !stop) {
    if (cfg.depth != 0 && res.stats.depth >= cfg.depth) break;
    std::vector<u32> next_level;

    for (size_t batch = 0; batch < level.size() && !stop;
         batch += kBatchStates) {
      const size_t batch_end = std::min(batch + kBatchStates, level.size());
      const size_t batch_size = batch_end - batch;
      std::vector<TransitionCheck> results(batch_size * ops.size());

      // One cell per worker: a contiguous chunk of the batch.
      const unsigned chunks = pool::workers(cfg.threads, batch_size);
      pool::run(chunks, chunks, [&](size_t c, unsigned) {
        const size_t lo = c * batch_size / chunks;
        const size_t hi = (c + 1) * batch_size / chunks;
        Harness base(cfg);
        Harness scratch(cfg);
        for (size_t i = lo; i < hi; ++i) {
          const ModelState st =
              decode_state(cfg, encodings[level[batch + i]]);
          base.install(st);
          for (size_t oi = 0; oi < ops.size(); ++oi) {
            results[i * ops.size() + oi] =
                run_transition(cfg, base, scratch, st, ops[oi]);
          }
        }
      });

      // Sequential merge in frontier order: all counts and the
      // counterexample list are independent of the worker split.
      for (size_t i = 0; i < batch_size; ++i) {
        const u32 parent_record = level[batch + i];
        for (size_t oi = 0; oi < ops.size(); ++oi) {
          const TransitionCheck& tc = results[i * ops.size() + oi];
          ++res.stats.transitions;
          for (const auto& pr : tc.problems) {
            report(parent_record, &ops[oi], pr);
          }
          if (tc.problems.empty() && !tc.terminal && !tc.got_enc.empty()) {
            const auto [it, inserted] =
                visited.emplace(tc.got_enc, encodings.size());
            if (inserted) {
              encodings.push_back(tc.got_enc);
              parents.emplace_back(parent_record, static_cast<u32>(oi));
              next_level.push_back(it->second);
            }
          }
        }
      }
    }

    ++res.stats.depth;
    res.stats.states = encodings.size();
    if (!next_level.empty()) {
      res.stats.level_sizes.push_back(next_level.size());
    }
    if (progress) {
      progress(res.stats.depth, res.stats.states, res.stats.transitions);
    }
    if (res.counterexamples.size() >= cfg.max_counterexamples) stop = true;
    if (encodings.size() >= cfg.max_states) {
      stop = true;
      res.stats.truncated = true;
    }
    level = std::move(next_level);
  }

  res.stats.states = encodings.size();
  res.stats.complete = level.empty();
  return res;
}

ReplayResult replay(const ModelConfig& cfg, const std::vector<Op>& ops) {
  cfg.validate();
  ReplayResult out;
  ModelState st = initial_state(cfg);
  for (const auto& v : check_invariants(cfg, st)) {
    out.failed = true;
    out.op_index = 0;
    out.findings.push_back({"invariant", v.invariant, v.message});
  }
  if (out.failed) return out;
  Harness base(cfg);
  Harness scratch(cfg);
  for (size_t i = 0; i < ops.size(); ++i) {
    base.install(st);
    const TransitionCheck tc =
        run_transition(cfg, base, scratch, st, ops[i]);
    if (!tc.problems.empty()) {
      out.failed = true;
      out.op_index = i;
      for (const auto& pr : tc.problems) {
        out.findings.push_back({pr.kind, pr.invariant, pr.message});
      }
      return out;
    }
    st = decode_state(cfg, tc.got_enc);
  }
  return out;
}

}  // namespace sealpk::model
