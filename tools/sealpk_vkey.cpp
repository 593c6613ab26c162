// sealpk-vkey — unbounded pkey virtualization workbench (src/mpk).
//
// Drives the session-server workload: one virtual protection domain per
// user session, seeded connect/touch/disconnect churn, far more live
// domains than the 1023 usable physical keys. The kernel's vkey layer
// (vkey_table.h) multiplexes physical keys under the sessions with LRU
// eviction, real PTE re-keying, batched map-in and an MRU pin cache;
// --lazy selects the deferred drain-queue sync policy and --raw runs the
// same schedule on physical pkeys (capped at 768 sessions) for the
// virtualization-tax baseline.
//
//   run     one session-server run; prints the canonical churn record,
//           exits 0 iff the guest checksum matches the host golden
//   sweep   the key-churn matrix: virt-eager + virt-lazy (+ raw where it
//           fits) cells per scale, drained through the shared pool;
//           --json writes the BENCH_keychurn.json report (bare --json
//           to stdout, --json=<path> to a file)
//
// --selfcheck re-runs the sweep serially and requires the concatenated
// canonical records to be byte-identical to the parallel run.
//
// Exit status: 0 ok, 1 checksum/selfcheck failure, 2 usage or I/O error.
//
// Usage:
//   sealpk-vkey run --sessions=4096 --ops=8192
//   sealpk-vkey run --sessions=512 --raw
//   sealpk-vkey sweep --threads=4 --selfcheck --json=BENCH_keychurn.json
#include <cstdio>
#include <string>
#include <vector>

#include "cli.h"
#include "mpk/session.h"

using namespace sealpk;

namespace {

struct CliOptions {
  bool quiet = false;
  bool selfcheck = false;
  cli::JsonSink json;
  mpk::SessionConfig cfg;
  std::optional<u64> ops;
  std::vector<u64> scales = {256, 768, 2048, 6144};
  unsigned threads = 0;
};

int mode_run(const CliOptions& cli) {
  mpk::SessionConfig cfg = cli.cfg;
  cfg.ops = cli.ops.value_or(2 * cfg.sessions);
  if (cfg.raw && cfg.sessions > mpk::kRawSessionCap) {
    std::fprintf(stderr, "--raw needs --sessions <= %llu\n",
                 static_cast<unsigned long long>(mpk::kRawSessionCap));
    return 2;
  }
  const mpk::SessionResult r = mpk::run_session_server(cfg);
  if (!cli.quiet) std::printf("%s", mpk::session_record(cfg, r).c_str());
  if (!r.ok()) {
    std::fprintf(stderr,
                 "session server failed: completed=%d exit=%lld "
                 "checksum=%llu expected=%llu\n",
                 r.completed ? 1 : 0, static_cast<long long>(r.exit_code),
                 static_cast<unsigned long long>(r.checksum),
                 static_cast<unsigned long long>(r.expected));
    return 1;
  }
  return 0;
}

int mode_sweep(const CliOptions& cli) {
  return cli::sweep(
      {.threads = cli.threads,
       .selfcheck = cli.selfcheck,
       .quiet = cli.quiet,
       .print_records = true},
      [&cli](unsigned threads) {
        return mpk::run_churn_sweep(cli.scales, cli.cfg.seed, threads);
      },
      mpk::sweep_records,
      [&cli](const std::vector<mpk::ChurnCell>& cells) {
        int rc = 0;
        for (const mpk::ChurnCell& cell : cells) {
          if (!cell.result.ok()) rc = 1;
        }
        if (rc != 0) std::fprintf(stderr, "sweep: at least one cell failed\n");
        if (cli.json.on) cli.json.emit(mpk::churn_json(cells));
        return rc;
      });
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  mpk::SessionConfig& cfg = cli.cfg;
  cli::Tool tool{"sealpk-vkey", {"run [options]", "sweep [options]"}};
  tool.add(cli::at_least("--sessions", &cfg.sessions, 1, "<n>",
                         "live session domains (run)"));
  tool.add(cli::value("--ops", &cli.ops, "<n>",
                      "churn operations after ramp (run; default "
                      "2*sessions)"));
  tool.add(cli::value("--seed", &cfg.seed, "<n>", "churn schedule seed"));
  tool.add(cli::value("--mru", &cfg.mru_slots, "<n>",
                      "per-process MRU pin slots"));
  tool.add(cli::sw("--lazy", &cfg.lazy_sync, "lazy drain-queue sync policy"));
  tool.add(cli::sw("--raw", &cfg.raw, "physical pkeys (sessions <= 768)"));
  tool.add(cli::value("--max-instr", &cfg.max_instructions, "<n>",
                      "instruction budget per run"));
  tool.add(cli::action("--scales", "<a,b,...>",
                       "session scales for the sweep (each >= 1)",
                       [&cli](const std::string& v) {
                         cli.scales = cli::parse<std::vector<u64>>(v);
                         for (const u64 s : cli.scales) {
                           if (s == 0) throw cli::BadValue{};
                         }
                       }));
  tool.add(cli::threads(&cli.threads, "fleet workers for the sweep"));
  tool.add(cli::selfcheck(&cli.selfcheck));
  tool.add(cli::json_sink(&cli.json, "machine-readable sweep report"));
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    const std::string mode = cli::take_mode(args, {"run", "sweep"});
    if (!args.empty()) throw cli::UsageError();
    return mode == "run" ? mode_run(cli) : mode_sweep(cli);
  });
}
