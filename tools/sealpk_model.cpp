// sealpk model — bounded exhaustive model checker for the seal/pkey state
// machine (src/model).
//
// Drives the real hardware units (Pkr, SealUnit, PK-CAM refill path) and the
// kernel's key-management logic through every op sequence on a down-scaled
// machine, checking each transition against the executable reference spec.
// Counterexamples are written as JSON op scripts that `repro` (and the
// committed-trace regression tests) replay byte-for-byte.
//
// Usage:
//   sealpk model explore                     # explore to closure, report
//   sealpk model explore --selfcheck         # + determinism cross-check
//   sealpk model explore --mutation=skip-free-clear --ce-dir=out/
//   sealpk model repro trace.json...         # replay committed traces
//   sealpk model stats                       # config + op alphabet
//   sealpk model mutations                   # mutation self-test matrix
//
// Exit status: 0 clean (and complete for explore), 1 counterexamples found
// or a self-test failed, 2 usage/IO errors, 3 exploration hit a budget
// before closing the state space.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli.h"
#include "model/explorer.h"
#include "model/trace.h"

using namespace sealpk;
using namespace sealpk::model;

namespace {

struct CliOptions {
  ModelConfig cfg;
  bool quiet = false;
  bool selfcheck = false;
  cli::JsonSink json;
  std::string ce_dir;     // counterexample traces land here when set
  std::vector<std::string> paths;
};

void print_counterexample(const Counterexample& ce, size_t index) {
  std::printf("counterexample %zu: %s%s%s\n", index, ce.kind.c_str(),
              ce.invariant.empty() ? "" : " / ",
              ce.invariant.c_str());
  std::printf("  %s\n", ce.message.c_str());
  for (size_t i = 0; i < ce.ops.size(); ++i) {
    std::printf("  op %zu: %s\n", i, op_to_string(ce.ops[i]).c_str());
  }
}

void dump_counterexamples(const CliOptions& cli,
                          const std::vector<Counterexample>& ces) {
  if (!ces.empty()) std::filesystem::create_directories(cli.ce_dir);
  for (size_t i = 0; i < ces.size(); ++i) {
    const Trace t = make_trace(cli.cfg, ces[i]);
    const std::string path = cli.ce_dir + "/ce-" + std::to_string(i) + ".json";
    std::ostringstream os;
    write_trace(os, t);
    cli::write_text(path, os.str());
    if (!cli.quiet) {
      std::printf("wrote %s\n", path.c_str());
    }
  }
}

void print_stats_json(std::ostream& os, const CliOptions& cli,
                      const ExploreResult& res) {
  os << "{\n  \"schema\": \"sealpk-model-explore-v1\",\n"
     << "  \"pkeys\": " << cli.cfg.num_pkeys << ",\n"
     << "  \"pages\": " << cli.cfg.num_pages << ",\n"
     << "  \"cam\": " << cli.cfg.cam_entries << ",\n"
     << "  \"mutation\": \"" << mutation_name(cli.cfg.mutation) << "\",\n"
     << "  \"states\": " << res.stats.states << ",\n"
     << "  \"transitions\": " << res.stats.transitions << ",\n"
     << "  \"depth\": " << res.stats.depth << ",\n"
     << "  \"complete\": " << (res.stats.complete ? "true" : "false")
     << ",\n"
     << "  \"level_sizes\": [";
  for (size_t i = 0; i < res.stats.level_sizes.size(); ++i) {
    os << (i == 0 ? "" : ", ") << res.stats.level_sizes[i];
  }
  os << "],\n  \"counterexamples\": " << res.counterexamples.size()
     << "\n}\n";
}

// What the determinism contract covers: every reported statistic and
// each counterexample's canonical trace.
std::string explore_records(const CliOptions& cli, const ExploreResult& res) {
  std::ostringstream os;
  print_stats_json(os, cli, res);
  os << "truncated: " << res.stats.truncated << "\n";
  for (const Counterexample& ce : res.counterexamples) {
    os << trace_to_json(make_trace(cli.cfg, ce));
  }
  return os.str();
}

int report_explore(const CliOptions& cli, const ExploreResult& res) {
  if (cli.json.on) {
    std::ostringstream os;
    print_stats_json(os, cli, res);
    cli.json.emit(os.str());
  } else if (!cli.quiet || !res.counterexamples.empty() ||
             res.stats.truncated) {
    std::printf(
        "%llu state(s), %llu transition(s), depth %llu, %s, "
        "%zu counterexample(s)\n",
        static_cast<unsigned long long>(res.stats.states),
        static_cast<unsigned long long>(res.stats.transitions),
        static_cast<unsigned long long>(res.stats.depth),
        res.stats.complete    ? "complete"
        : res.stats.truncated ? "TRUNCATED (state budget hit)"
                              : "bounded (depth limit)",
        res.counterexamples.size());
  }
  if (!cli.quiet) {
    for (size_t i = 0; i < res.counterexamples.size(); ++i) {
      print_counterexample(res.counterexamples[i], i);
    }
  }
  if (!cli.ce_dir.empty()) dump_counterexamples(cli, res.counterexamples);
  if (!res.counterexamples.empty()) return 1;
  return res.stats.truncated ? 3 : 0;
}

int cmd_explore(const CliOptions& cli) {
  ProgressFn progress;
  if (!cli.quiet) {
    progress = [](u64 depth, u64 states, u64 transitions) {
      std::fprintf(stderr, "depth %llu: %llu states, %llu transitions\n",
                   static_cast<unsigned long long>(depth),
                   static_cast<unsigned long long>(states),
                   static_cast<unsigned long long>(transitions));
    };
  }
  return cli::sweep(
      {.threads = cli.cfg.threads,
       .selfcheck = cli.selfcheck,
       .quiet = cli.quiet},
      [&](unsigned threads) {
        ModelConfig cfg = cli.cfg;
        cfg.threads = threads;
        // Progress for the first (threaded) run only.
        return explore(cfg, std::exchange(progress, nullptr));
      },
      [&cli](const ExploreResult& res) { return explore_records(cli, res); },
      [&cli](const ExploreResult& res) { return report_explore(cli, res); });
}

int cmd_repro(const CliOptions& cli) {
  int failures = 0;
  for (const auto& path : cli.paths) {
    const std::string text = cli::read_text(path);
    std::string error;
    const auto trace = parse_trace(text, &error);
    if (!trace.has_value()) {
      std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(),
                   error.c_str());
      return 2;
    }
    // The serializer is canonical; a trace that does not round-trip
    // byte-for-byte was edited by hand and should be rewritten.
    if (trace_to_json(*trace) != text) {
      std::fprintf(stderr, "%s: not in canonical form\n", path.c_str());
      ++failures;
      continue;
    }
    const std::string verdict = verify_trace(*trace);
    if (!verdict.empty()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), verdict.c_str());
      ++failures;
    } else if (!cli.quiet) {
      std::printf("%s: ok (%zu op(s), expect %s)\n", path.c_str(),
                  trace->ops.size(), trace->kind.c_str());
    }
  }
  if (!cli.quiet || failures != 0) {
    std::printf("%zu trace(s) replayed, %d failure(s)\n", cli.paths.size(),
                failures);
  }
  return failures == 0 ? 0 : 1;
}

int cmd_stats(const CliOptions& cli) {
  const std::vector<Op> ops = enumerate_ops(cli.cfg);
  std::printf("configuration: %u pkeys, %u pages, %u-entry CAM, %u threads\n",
              cli.cfg.num_pkeys, cli.cfg.num_pages, cli.cfg.cam_entries,
              cli.cfg.threads);
  std::printf("mutation: %s\n", mutation_name(cli.cfg.mutation));
  std::printf("op alphabet (%zu ops):\n", ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    std::printf("  %3zu: %s\n", i, op_to_string(ops[i]).c_str());
  }
  std::printf("access predicates: load/store x %u page(s) + fetch, checked "
              "per state\n",
              cli.cfg.num_pages);
  return 0;
}

int cmd_mutations(const CliOptions& cli) {
  // Mutation self-test: the unmutated machine must explore clean, and every
  // deliberately broken machine/spec variant must be caught. Each mutation
  // is reachable well before depth 7, so default to that bound rather than
  // paying for ten full closures.
  int failures = 0;
  for (unsigned mi = 0; mi < kNumMutations; ++mi) {
    ModelConfig cfg = cli.cfg;
    if (cfg.depth == 0) cfg.depth = 7;
    cfg.mutation = static_cast<Mutation>(mi);
    const ExploreResult res = explore(cfg);
    const bool expect_clean = cfg.mutation == Mutation::kNone;
    const bool clean = res.counterexamples.empty();
    const char* verdict;
    if (expect_clean) {
      const bool ok = clean && !res.stats.truncated;
      verdict = ok ? "ok (clean)" : "FAILED (expected clean)";
      if (!ok) ++failures;
    } else if (clean) {
      verdict = "FAILED (mutation not caught)";
      ++failures;
    } else {
      verdict = "ok (caught)";
    }
    if (!cli.quiet || verdict[0] == 'F') {
      std::printf("%-28s %-28s", mutation_name(cfg.mutation), verdict);
      if (!res.counterexamples.empty()) {
        const auto& ce = res.counterexamples.front();
        std::printf(" first: %s%s%s", ce.kind.c_str(),
                    ce.invariant.empty() ? "" : "/", ce.invariant.c_str());
      }
      std::printf("\n");
    }
  }
  if (!cli.quiet || failures != 0) {
    std::printf("%u mutation(s) checked, %d failure(s)\n", kNumMutations,
                failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int sealpk_model(int argc, char** argv) {
  CliOptions cli;
  ModelConfig& cfg = cli.cfg;
  cli::Tool tool{"sealpk model",
                 {"explore [options]", "repro <trace.json>... [-q]",
                  "stats [--pkeys=N] [--pages=N] [--cam=N]",
                  "mutations [--depth=N] [--max-states=N] [-q]"}};
  tool.add(cli::value("--pkeys", &cfg.num_pkeys, "<n>", "model pkeys"));
  tool.add(cli::value("--pages", &cfg.num_pages, "<n>", "model pages"));
  tool.add(cli::value("--cam", &cfg.cam_entries, "<n>", "PK-CAM entries"));
  tool.add(cli::value("--depth", &cfg.depth, "<n>",
                      "exploration depth bound (0 = to closure)"));
  tool.add(cli::at_least("--max-states", &cfg.max_states, 1, "<n>",
                         "state budget"));
  tool.add(cli::at_least("--threads", &cfg.threads, 1u, "<n>",
                         "explorer worker threads"));
  tool.add(cli::at_least("--max-ce", &cfg.max_counterexamples, 1, "<n>",
                         "counterexamples to keep"));
  tool.add(cli::action("--mutation", "<name>", "break the machine or spec",
                       [&cfg](const std::string& v) {
                         const auto m = parse_mutation(v);
                         if (!m.has_value()) throw cli::BadValue{};
                         cfg.mutation = *m;
                       }));
  tool.add(cli::action("--ce-dir", "<dir>",
                       "write counterexample traces here",
                       [&cli](const std::string& v) {
                         if (v.empty()) throw cli::BadValue{};
                         cli.ce_dir = v;
                       }));
  tool.add(cli::selfcheck(&cli.selfcheck));
  tool.add(cli::json_sink(&cli.json, "exploration stats as JSON (explore)"));
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    const std::string mode =
        cli::take_mode(args, {{"explore"}, {"repro", 1, cli::kMany},
                              {"stats"}, {"mutations"}});
    cli.paths = args;
    cfg.validate();
    if (mode == "explore") return cmd_explore(cli);
    if (mode == "repro") return cmd_repro(cli);
    return mode == "stats" ? cmd_stats(cli) : cmd_mutations(cli);
  });
}
