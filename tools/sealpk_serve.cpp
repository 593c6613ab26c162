// sealpk-serve — in-process sandboxed plugin server workbench (src/serve).
//
// A trusted monitor domain dispatches a seeded synthetic request stream to
// untrusted handler domains through perm-sealed call gates, reporting
// domain-crossings/sec and per-handler latency (in instructions) alongside
// the Fig-5 overhead numbers. The request plane degrades gracefully:
// per-request instruction budgets, strike-based handler quarantine, bounded
// retry with deterministic backoff onto the replica slot, and load shedding
// — every request ends in exactly one canonical disposition.
//
// Modes:
//   run                  clean serving run
//   attack <name>|--all  run with a red-team plugin planted in handler 0;
//                        exits 1 unless the attack's declared catcher fired
//                        AND the monitor survived AND serving continued
//   list                 print the attack registry (name, catcher, what)
//
// --chaos composes the FaultInjector on top of any mode (seeded PKR
// upsets); the canonical ledger stays byte-identical for a fixed config.
// `attack --all --threads=N` drains the suite through the shared worker
// pool; ledgers and reports are byte-identical for any N. --json writes
// the machine-readable report (array form for --all) to stdout,
// --json=<path> to a file. --trace-out records
// gate entry/exit, dispositions and quarantine transitions per handler and
// exports Perfetto JSON (open in ui.perfetto.dev, or feed the same events
// through sealpk-trace).
//
// Exit status: 0 ok, 1 attack escaped / monitor died / request lost,
// 2 usage or I/O error.
//
// Usage:
//   sealpk-serve run --requests=64 --primaries=3 --json=serve.json
//   sealpk-serve attack gate-exit-hijack --trace-out=hijack.perfetto.json
//   sealpk-serve attack --all --threads=4 --json=redteam.json
//   sealpk-serve run --chaos --chaos-seed=11 --chaos-rate=1e-4
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/export.h"
#include "serve/redteam.h"
#include "serve/server.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string attack_name;
  bool all_attacks = false;
  unsigned threads = 1;
  bool quiet = false;
  cli::JsonSink json;
  std::string trace_path;
  serve::ServeConfig cfg;
};

void print_summary(const serve::ServeConfig& cfg, const serve::ServeResult& r,
                   const char* label) {
  std::printf(
      "%-22s served=%llu retried=%llu shed=%llu quarantined=%llu "
      "crossings=%llu (%.0f/sec) epochs=%llu instructions=%llu\n",
      label, static_cast<unsigned long long>(r.served),
      static_cast<unsigned long long>(r.retried),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.quarantined),
      static_cast<unsigned long long>(r.crossings), r.crossings_per_sec(),
      static_cast<unsigned long long>(r.epochs),
      static_cast<unsigned long long>(r.instructions));
  u64 latency_sum = 0, latency_n = 0;
  for (const auto& rec : r.records) {
    if (rec.latency != 0) {
      latency_sum += rec.latency;
      ++latency_n;
    }
  }
  if (latency_n != 0) {
    std::printf("%-22s mean handler latency %llu instructions over %llu "
                "crossings\n",
                "", static_cast<unsigned long long>(latency_sum / latency_n),
                static_cast<unsigned long long>(latency_n));
  }
  if (r.attack != nullptr) {
    std::printf("%-22s catcher=%s %s monitor=%s canary=%s\n", "",
                serve::redteam::catcher_name(r.attack->catcher),
                r.attack_caught ? "CAUGHT" : "ESCAPED",
                r.monitor_alive ? "alive" : "DEAD",
                r.canary_intact ? "intact" : "CLOBBERED");
  }
  (void)cfg;
}

// 0 when the run upholds the contract this tool exists to demonstrate:
// config asserts passed, the monitor survived, no probe landed, and — for
// attack runs — the declared catcher fired.
int verdict(const serve::ServeResult& r) {
  if (!r.config_ok || !r.monitor_alive || !r.canary_intact) return 1;
  if (r.evidence.probe_successes != 0) return 1;
  if (r.attack != nullptr && !r.attack_caught) return 1;
  return 0;
}

void export_trace(const serve::ServeResult& r, const std::string& path) {
  std::ostringstream os;
  obs::write_perfetto_json(r.trace, os);
  cli::write_text(path, os.str());
}

int mode_list() {
  for (const auto& atk : serve::redteam::attacks()) {
    std::printf("%-20s caught-by=%-8s %s\n", atk.name,
                serve::redteam::catcher_name(atk.catcher), atk.description);
  }
  return 0;
}

int run_one(const CliOptions& cli) {
  serve::ServeConfig cfg = cli.cfg;
  if (!cli.trace_path.empty()) cfg.trace = true;
  if (!cli.attack_name.empty()) {
    const serve::redteam::Attack* atk =
        serve::redteam::find_attack(cli.attack_name);
    if (atk == nullptr) {
      std::fprintf(stderr, "unknown attack '%s' (see `sealpk-serve list`)\n",
                   cli.attack_name.c_str());
      return 2;
    }
    cfg.attack = atk->kind;
  }
  const serve::ServeResult r = serve::run_server(cfg);
  if (!cli.quiet) {
    print_summary(cfg, r,
                  cli.attack_name.empty() ? "clean" : cli.attack_name.c_str());
  }
  if (cli.json.on) {
    std::ostringstream os;
    serve::write_result_json(os, cfg, r);
    cli.json.emit(os.str());
  }
  if (!cli.trace_path.empty()) export_trace(r, cli.trace_path);
  return verdict(r);
}

// The whole registry drained by the shared pool; per-attack reports and
// the exit verdict are byte-identical for any --threads value.
int run_all(const CliOptions& cli) {
  const std::vector<serve::AttackRun> runs =
      serve::run_attack_suite(cli.cfg, cli.threads);
  int rc = 0;
  for (const serve::AttackRun& run : runs) {
    if (!cli.quiet) {
      print_summary(run.cfg, run.result, run.result.attack->name);
    }
    if (verdict(run.result) != 0) rc = 1;
  }
  if (cli.json.on) {
    std::ostringstream os;
    os << "[\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      serve::write_result_json(os, runs[i].cfg, runs[i].result);
      os << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "]\n";
    cli.json.emit(os.str());
  }
  if (!cli.quiet) {
    std::printf("%s: %zu attack(s), %s\n", "red team", runs.size(),
                rc == 0 ? "all caught by their declared catcher"
                        : "ESCAPE OR MONITOR LOSS — see above");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  serve::ServeConfig& cfg = cli.cfg;
  cli::Tool tool{"sealpk-serve",
                 {"run [options]", "attack <name>|--all [options]", "list"}};
  tool.add(cli::value("--primaries", &cfg.primaries, "<n>",
                      "handler pairs (slots = 2 * primaries)"));
  tool.add(cli::value("--requests", &cfg.requests, "<n>", "requests to serve"));
  tool.add(cli::value("--rounds", &cfg.rounds, "<n>",
                      "guest mixing rounds per request"));
  tool.add(cli::value("--seed", &cfg.seed, "<n>", "request stream seed"));
  tool.add(cli::value("--budget", &cfg.request_budget, "<instructions>",
                      "per-attempt instruction budget"));
  tool.add(cli::value("--max-attempts", &cfg.max_attempts, "<n>",
                      "failed attempts before quarantining a request"));
  tool.add(cli::value("--strike-limit", &cfg.strike_limit, "<n>",
                      "failures before a slot is quarantined"));
  tool.add(cli::sw("--all", &cli.all_attacks, "every registered attack"));
  tool.add(cli::threads(&cli.threads, "worker pool for `attack --all`"));
  tool.add(cli::sw("--chaos", &cfg.chaos.enabled, "compose fault injection"));
  cli::add_fault_plan(tool, {&cfg.chaos.seed, &cfg.chaos.rate, nullptr,
                             &cfg.chaos.max_faults, nullptr});
  tool.add(cli::json_sink(&cli.json,
                          "machine-readable report (array for --all)"));
  tool.add(cli::value("--trace-out", &cli.trace_path, "<path>",
                      "Perfetto JSON of the obs event stream"));
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    const std::string mode = cli::take_mode(args, {"run", "attack", "list"});
    if (mode == "attack" && args.size() == 1) {
      cli.attack_name = args[0];
    } else if (!args.empty()) {
      throw cli::UsageError();
    }
    if (mode == "list") return mode_list();
    if (mode == "run") return run_one(cli);
    if (cli.all_attacks) return run_all(cli);
    if (cli.attack_name.empty()) throw cli::UsageError();
    return run_one(cli);
  });
}
