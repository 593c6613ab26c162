// sealpk-slo — the in-repo SLO / perf-regression gate (DESIGN.md §16).
//
// Subcommands:
//   check --spec=<SLO.json> --report=<name>=<path>...
//       Evaluate a committed SLO spec ("sealpk-slo-v1": crossings/sec
//       floors, handler-latency p99 ceilings, churn-ops/sec floors,
//       recovery-count ceilings, tolerance bands) against the repo's own
//       machine-readable reports (sealpk-serve --json, sealpk-vkey sweep
//       --json, sealpk-fleet list --json, the span bench below). Exits
//       nonzero on any breach — this is what CI runs, and what the
//       WILL_FAIL ctest pair proves actually fails on a violated spec.
//   spans [--threads=<n>] [--selfcheck] [--out=<path>]
//       The deterministic span benchmark behind BENCH_spans.json: run the
//       fixed episode suite (clean + degraded serve, vault, eager + lazy
//       vkey churn, a checkpoint/rollback episode), fold each trace into
//       causal spans (obs/span.h) and report per-kind duration quantiles
//       from the integer histogram (obs/hist.h). Everything is
//       instruction-count based, so the output is byte-identical across
//       hosts, runs and thread counts; --selfcheck re-runs serially and
//       requires byte-identity (the determinism contract CI pins by
//       regenerating + git-diffing BENCH_spans.json).
//
// Exit status: 0 ok, 1 SLO breach / selfcheck mismatch, 2 usage or I/O.
//
// Usage:
//   sealpk-slo spans --threads=4 --selfcheck --out=BENCH_spans.json -q
//   sealpk-slo check --spec=SLO.json --report=serve=serve.json
//       --report=vkey=vkey.json --report=spans=BENCH_spans.json
//   (one command line, wrapped here)
#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/json_parse.h"
#include "common/pool.h"
#include "mpk/session.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "serve/server.h"
#include "snapshot/episode.h"
#include "vault/run.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string spec_path;
  std::vector<std::pair<std::string, std::string>> reports;  // name -> path
  std::string out_path;
  cli::JsonSink json;
  unsigned threads = 1;
  bool selfcheck = false;
  bool quiet = false;
};

// --- spans benchmark --------------------------------------------------------

// The fixed episode suite. Shapes are pinned here — not flag-dependent —
// so a ctest invocation and the CI regeneration produce the same bytes.
struct SpanWorkload {
  const char* name;
  obs::Trace (*run)();
};

obs::Trace run_serve_clean() {
  serve::ServeConfig cfg;
  cfg.requests = 24;
  cfg.trace = true;
  return serve::run_server(cfg).trace;
}

obs::Trace run_serve_degraded() {
  serve::ServeConfig cfg;
  cfg.requests = 24;
  cfg.trace = true;
  // A runaway handler (watchdog-killed every visit) degrades its slot
  // into quarantine and pushes its requests through retry/backoff — the
  // span stream gains retry flows, quarantine points and multiple epochs
  // (= virtual-timeline segments), all deterministically.
  cfg.attack = serve::redteam::AttackKind::kRunawayHandler;
  return serve::run_server(cfg).trace;
}

obs::Trace run_vault() {
  return vault::run_vault_once(vault::VaultSpec{}, /*trace=*/true).trace;
}

obs::Trace run_vkey(bool lazy) {
  mpk::SessionConfig cfg;
  // Past the 1023-key budget, so LRU eviction (and, under --lazy, the
  // drain queue) actually runs — below it there are no evict/drain spans.
  cfg.sessions = 2048;
  cfg.ops = 4096;
  cfg.lazy_sync = lazy;
  cfg.trace = true;
  return mpk::run_session_server(cfg).trace;
}

obs::Trace run_vkey_eager() { return run_vkey(false); }
obs::Trace run_vkey_lazy() { return run_vkey(true); }

obs::Trace run_rollback() {
  return snapshot::run_rollback_episode(snapshot::EpisodeConfig{}).trace;
}

constexpr SpanWorkload kSpanWorkloads[] = {
    {"serve", run_serve_clean},
    {"serve-degraded", run_serve_degraded},
    {"vault", run_vault},
    {"vkey-eager", run_vkey_eager},
    {"vkey-lazy", run_vkey_lazy},
    {"rollback", run_rollback},
};
constexpr size_t kSpanWorkloadCount =
    sizeof(kSpanWorkloads) / sizeof(kSpanWorkloads[0]);

// One workload's slice of BENCH_spans.json. Integer-only throughout.
std::string span_cell_json(const char* name, const obs::Trace& trace) {
  const obs::SpanSet set = obs::build_spans(trace);
  const auto hists = obs::span_histograms(set);
  std::ostringstream os;
  os << "    {\"workload\": \"" << name
     << "\", \"events\": " << trace.events.size()
     << ", \"spans\": " << set.spans.size()
     << ", \"flows\": " << set.flows.size()
     << ", \"segments\": " << set.segments
     << ", \"final_ts\": " << set.final_ts << ",\n     \"by_kind\": {";
  for (u32 k = 0; k < obs::kSpanKindCount; ++k) {
    os << (k == 0 ? "\n" : ",\n") << "       \""
       << obs::span_kind_name(static_cast<obs::SpanKind>(k))
       << "\": " << hists[k].quantiles_json();
  }
  os << "}}";
  return os.str();
}

std::string run_span_bench(unsigned threads) {
  std::vector<std::string> cells(kSpanWorkloadCount);
  pool::run(kSpanWorkloadCount, threads, [&cells](size_t i, unsigned) {
    cells[i] = span_cell_json(kSpanWorkloads[i].name, kSpanWorkloads[i].run());
  });
  std::ostringstream os;
  os << "{\n  \"bench\": \"spans\",\n  \"schema\": \"sealpk-spans-v1\",\n"
     << "  \"workloads\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    os << cells[i] << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

int mode_spans(const CliOptions& cli) {
  return cli::sweep(
      {.threads = cli.threads,
       .selfcheck = cli.selfcheck,
       .quiet = cli.quiet,
       .print_records = cli.out_path.empty()},
      run_span_bench, std::identity{}, [&cli](const std::string& report) {
        if (!cli.out_path.empty()) {
          cli::write_text(cli.out_path, report);
          if (!cli.quiet) std::printf("%s: span bench\n", cli.out_path.c_str());
        }
        return 0;
      });
}

// --- SLO gate ---------------------------------------------------------------

int mode_check(const CliOptions& cli) {
  if (cli.spec_path.empty() || cli.reports.empty()) throw cli::UsageError();
  const obs::SloSpec spec =
      obs::parse_slo_spec(json_parse(cli::read_text(cli.spec_path)));
  std::map<std::string, JsonValue> reports;
  for (const auto& [name, path] : cli.reports) {
    reports[name] = json_parse(cli::read_text(path));
  }
  const obs::SloVerdict verdict = obs::evaluate_slo(spec, reports);
  if (!cli.quiet) obs::write_slo_text(verdict, std::cout);
  // --json changes the output format, never the verdict: a breach exits
  // nonzero in JSON mode exactly as in plain mode (the contract the
  // WILL_FAIL ctest pair pins).
  if (cli.json.on) {
    std::ostringstream os;
    obs::write_slo_json(verdict, os);
    cli.json.emit(os.str());
  }
  return verdict.pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli::Tool tool{"sealpk-slo",
                 {"check --spec=<SLO.json> --report=<name>=<path>... "
                  "[--json[=<path>]] [-q]",
                  "spans [--threads=<n>] [--selfcheck] [--out=<path>] [-q]"}};
  tool.add(cli::value("--spec", &cli.spec_path, "<path>",
                      "SLO spec to evaluate (check)"));
  tool.add(cli::action("--report", "<name>=<path>",
                       "a report the spec names (check; repeatable)",
                       [&cli](const std::string& v) {
                         const size_t eq = v.find('=');
                         if (eq == std::string::npos || eq == 0 ||
                             eq + 1 == v.size()) {
                           throw cli::BadValue{};
                         }
                         cli.reports.emplace_back(v.substr(0, eq),
                                                  v.substr(eq + 1));
                       }));
  tool.add(cli::json_sink(&cli.json, "machine-readable verdict (check)"));
  tool.add(cli::threads(&cli.threads, "fleet workers (spans)"));
  tool.add(cli::selfcheck(&cli.selfcheck));
  tool.add(cli::value("--out", &cli.out_path, "<path>",
                      "write the span bench here (spans)"));
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    const std::string mode = cli::take_mode(args, {"check", "spans"});
    if (!args.empty()) throw cli::UsageError();
    return mode == "spans" ? mode_spans(cli) : mode_check(cli);
  });
}
