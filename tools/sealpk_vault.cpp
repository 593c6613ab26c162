// sealpk vault — crash-anywhere sealed-storage durability workbench
// (src/vault).
//
// Drives the owner-vs-vault workload (an owner domain sealing bundles into
// a journaled, write-only, perm-sealed region; vault/program.h) and its
// durability harness:
//
//   run     one clean run; prints the recovered ledger and vault counters,
//           exits 0 iff the run is clean and the ledger matches the
//           build-time oracle
//   sweep   the crash-anywhere sweep: stop the machine at every sampled
//           instret (dense around every journal-record write, uniform
//           elsewhere), cold-replay the region and assert integrity /
//           durability / confidentiality; a subset of points additionally
//           restores the last known-good checkpoint and re-runs to
//           completion. --chaos layers seeded vault-record bit
//           flips on top (invariants weaken exactly to detection).
//
// Exit status: 0 ok, 1 invariant violated, 2 usage or I/O error.
//
// Usage:
//   sealpk vault run --seals=5 --reseals=2 --unseals=3
//   sealpk vault sweep --threads=4 --selfcheck --json=vault_sweep.json
//   sealpk vault sweep --chaos --chaos-seed=7 --threads=4
#include <cstdio>
#include <sstream>
#include <string>

#include "cli.h"
#include "vault/format.h"
#include "vault/run.h"
#include "vault/sweep.h"

using namespace sealpk;

namespace {

struct CliOptions {
  bool quiet = false;
  bool selfcheck = false;
  cli::JsonSink json;
  vault::SweepConfig cfg;
};

int mode_run(const CliOptions& cli) {
  const vault::VaultRunResult r = vault::run_vault_once(cli.cfg.spec);
  if (r.ledger.empty()) {  // run_vault_once bailed before running
    std::fprintf(stderr, "load refused\n");
    return 1;
  }
  const os::VaultStats& vs = r.stats;
  if (!cli.quiet) {
    std::printf("%s", r.ledger.c_str());
    std::printf(
        "vault run exit=%lld instructions=%llu seals=%llu reseals=%llu "
        "unseals=%llu denials=%llu corruption_detected=%llu\n",
        static_cast<long long>(r.exit_code),
        static_cast<unsigned long long>(r.instructions),
        static_cast<unsigned long long>(vs.seals),
        static_cast<unsigned long long>(vs.reseals),
        static_cast<unsigned long long>(vs.unseals),
        static_cast<unsigned long long>(vs.denials),
        static_cast<unsigned long long>(vs.corruption_detected));
  }
  return r.ok() ? 0 : 1;
}

int mode_sweep(const CliOptions& cli) {
  return cli::sweep(
      {.threads = cli.cfg.threads,
       .selfcheck = cli.selfcheck,
       .quiet = cli.quiet,
       .print_records = true},
      [&cli](unsigned threads) {
        vault::SweepConfig cfg = cli.cfg;
        cfg.threads = threads;
        return vault::run_sweep(cfg);
      },
      [](const vault::SweepResult& r) { return r.canonical; },
      [&cli](const vault::SweepResult& r) {
        if (cli.json.on) {
          std::ostringstream os;
          vault::write_sweep_json(os, cli.cfg, r);
          cli.json.emit(os.str());
        }
        return r.ok ? 0 : 1;
      });
}

}  // namespace

int sealpk_vault(int argc, char** argv) {
  CliOptions cli;
  vault::SweepConfig& cfg = cli.cfg;
  cli::Tool tool{"sealpk vault", {"run [options]", "sweep [options]"}};
  tool.add(cli::value("--slots", &cfg.spec.n_slots, "<n>", "vault slots"));
  tool.add(cli::checked("--slot-size", &cfg.spec.slot_size,
                        vault::valid_slot_size, "<bytes>",
                        "bytes per slot (a non-zero multiple of 8)"));
  tool.add(cli::value("--seals", &cfg.spec.seals, "<n>", "seal operations"));
  tool.add(cli::value("--reseals", &cfg.spec.reseals, "<n>",
                      "reseal operations"));
  tool.add(cli::value("--unseals", &cfg.spec.unseals, "<n>",
                      "unseal operations"));
  tool.add(cli::value("--seed", &cfg.spec.seed, "<n>", "payload seed"));
  tool.add(cli::value("--points", &cfg.min_points, "<n>",
                      "minimum sampled crash points (sweep)"));
  tool.add(cli::value("--stride", &cfg.stride_points, "<n>",
                      "uniform samples across the run (sweep)"));
  tool.add(cli::threads(&cfg.threads, "fleet workers for the sweep"));
  tool.add(cli::value("--rollback-every", &cfg.rollback_every, "<n>",
                      "checkpoint-resume every Nth point"));
  tool.add(cli::value("--checkpoint-interval", &cfg.checkpoint_interval,
                      "<instructions>", "instructions between checkpoints"));
  tool.add(cli::sw("--chaos", &cfg.chaos, "seeded vault-record bit flips"));
  tool.add(cli::value("--chaos-runs", &cfg.chaos_runs, "<n>",
                      "chaos runs (sweep)"));
  tool.add(cli::value("--chaos-seed", &cfg.chaos_seed, "<n>",
                      "first chaos seed"));
  tool.add(cli::action("--chaos-rate", "<p>",
                       "per-instruction fault probability, in [0, 1]",
                       [&cfg](const std::string& v) {
                         cfg.chaos_rate = cli::parse_rate(v);
                       }));
  tool.add(cli::value("--chaos-max-faults", &cfg.chaos_max_faults, "<n>",
                      "fault budget per chaos run"));
  tool.add(cli::selfcheck(&cli.selfcheck));
  tool.add(cli::json_sink(&cli.json, "machine-readable sweep verdict"));
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    const std::string mode = cli::take_mode(args, {{"run"}, {"sweep"}});
    return mode == "run" ? mode_run(cli) : mode_sweep(cli);
  });
}
