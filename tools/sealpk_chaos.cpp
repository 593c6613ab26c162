// sealpk-chaos — differential fault-injection oracle harness.
//
// Runs each selected workload twice: once clean and once under a seeded
// fault plan (PKR bit flips, TLB/PTE corruption, CAM refill drops and
// duplicates, spurious machine-check traps). The oracle then requires, per
// workload, that either
//   (a) the chaos run's guest-visible output (reports, console, exit code)
//       is identical to the clean run's — every fault recovered, masked, or
//       absorbed by a snapshot rollback; or
//   (b) the machine recorded an explicit recovery or killed the affected
//       process with a distinct robustness exit code.
// In addition every injected fault event must be resolved by the end of the
// run (recovered / killed / masked-benign — never unaccounted), and no host
// exception may escape Machine::run.
//
// The sweep executes on the fleet batch engine (src/fleet): --threads=N
// drains the per-workload differential jobs on a worker pool (each job owns
// its two Machines; the linked image is built once and shared read-only),
// and per-workload verdicts are byte-identical for any thread count.
//
// --rollback arms periodic checkpointing with snapshot-rollback recovery:
// unrecoverable machine checks restore the last known-good checkpoint and
// re-execute with the offending injections suppressed, so scenarios that
// would otherwise kill the process instead finish with output identical to
// the clean run (the bit-identical oracle above then applies).
//
// --json <path> writes a machine-readable summary: per-workload verdicts,
// clean and chaos exit codes, per-job wall-clock milliseconds, rollback
// counts, and the full per-fault event log with each event's resolution.
//
// Exit status: 0 when every workload satisfies the oracle, 1 otherwise,
// 2 on usage errors.
//
// Usage:
//   sealpk-chaos --all --chaos-seed=7 --chaos-rate=2e-5
//   sealpk-chaos qsort sha --chaos-rate=1e-4 -q --threads=4
//   sealpk-chaos --all --ss=sealpk-wr --seal --cam-rate=0.3
//   sealpk-chaos --all --rollback --no-pkr-save --kinds=pkr --json=out.json
//   sealpk-chaos --list
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "common/json.h"
#include "fleet/engine.h"
#include "fleet/report.h"
#include "sim/machine.h"
#include "workloads/workload.h"

using namespace sealpk;

namespace {

struct CliOptions {
  cli::WorkloadPick workloads;
  bool quiet = false;
  unsigned threads = 1;
  std::string json_path;
  cli::ShadowStack ss;
  fault::FaultPlan plan;
  cli::Rollback rollback;
};

const char* resolution_name(fault::FaultResolution r) {
  switch (r) {
    case fault::FaultResolution::kOutstanding: return "outstanding";
    case fault::FaultResolution::kRecovered: return "recovered";
    case fault::FaultResolution::kProcessKilled: return "process-killed";
    case fault::FaultResolution::kMaskedBenign: return "masked-benign";
  }
  return "unknown";
}

sim::MachineConfig base_config(const CliOptions& cli) {
  sim::MachineConfig config;
  cli.rollback.apply(&config);
  return config;
}

void write_json(const std::string& path, const CliOptions& cli,
                const std::vector<fleet::JobResult>& results,
                size_t failures, double elapsed_ms) {
  std::ostringstream out;
  u64 total_faults = 0;
  for (const auto& r : results) total_faults += r.injected;
  out << "{\n";
  out << "  \"plan\": {\"seed\": " << cli.plan.seed
      << ", \"rate\": " << cli.plan.rate
      << ", \"cam_rate\": " << cli.plan.cam_rate
      << ", \"max_faults\": " << cli.plan.max_faults
      << ", \"kinds\": " << cli.plan.kinds << "},\n";
  out << "  \"rollback\": " << (cli.rollback.on ? "true" : "false")
      << ", \"checkpoint_interval\": "
      << base_config(cli).checkpoint_interval
      << ", \"max_rollbacks\": " << cli.rollback.max_rollbacks << ",\n";
  char elapsed[64];
  std::snprintf(elapsed, sizeof(elapsed), "%.3f", elapsed_ms);
  out << "  \"threads\": " << cli.threads << ", \"elapsed_ms\": " << elapsed
      << ",\n";
  out << "  \"programs\": " << results.size()
      << ", \"failures\": " << failures
      << ", \"total_faults\": " << total_faults << ",\n";
  out << "  \"workloads\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const fleet::JobResult& r = results[i];
    out << "    {\"label\": \"" << json_escape(r.label)
        << "\", \"ok\": " << (r.ok ? "true" : "false") << ", \"verdict\": \""
        << json_escape(r.verdict) << '"';
    char wall[64];
    std::snprintf(wall, sizeof(wall), "%.3f", r.wall_ms);
    out << ",\n     \"clean_exit\": " << r.clean_exit
        << ", \"chaos_exit\": " << r.exit_code
        << ", \"completed\": " << (r.completed ? "true" : "false")
        << ", \"wall_ms\": " << wall
        << ", \"injected\": " << r.injected
        << ", \"outstanding\": " << r.outstanding << ",\n";
    out << "     \"recoveries\": " << r.stats.recoveries
        << ", \"machine_check_kills\": " << r.stats.machine_check_kills
        << ", \"watchdog_kills\": " << r.stats.watchdog_kills
        << ", \"checkpoints\": " << r.stats.checkpoints
        << ", \"rollbacks\": " << r.stats.rollbacks
        << ", \"rollback_failures\": " << r.stats.rollback_failures << ",\n";
    out << "     \"faults\": [";
    for (size_t j = 0; j < r.events.size(); ++j) {
      const fault::FaultEvent& e = r.events[j];
      if (j != 0) out << ", ";
      out << "{\"kind\": \"" << fault_kind_name(e.kind)
          << "\", \"instret\": " << e.instret << ", \"resolution\": \""
          << resolution_name(e.resolution) << "\"}";
    }
    out << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  cli::write_text(path, out.str());
}

int check_workloads(const CliOptions& cli,
                    const std::vector<std::string>& names) {
  // One differential job per selected workload, drained by the fleet pool.
  std::vector<fleet::JobSpec> specs;
  for (const wl::Workload* w : cli.workloads.pick(names)) {
    fleet::JobSpec spec;
    spec.id = static_cast<u32>(specs.size());
    spec.workload = w;
    spec.ss = cli.ss.kind;
    spec.perm_seal = cli.ss.seal;
    spec.scale = w->test_scale;
    spec.budget = 400'000'000;
    spec.kind = fleet::JobKind::kChaosDiff;
    spec.config = base_config(cli);
    spec.config.fault_plan = cli.plan;
    specs.push_back(std::move(spec));
  }

  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = cli.threads;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<fleet::JobResult> results =
      fleet::run_jobs(specs, cache, opts);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();

  size_t failures = 0;
  u64 total_faults = 0;
  for (const fleet::JobResult& r : results) {
    if (!r.ok) ++failures;
    total_faults += r.injected;
    if (!cli.quiet || !r.ok) {
      const u64 kills =
          r.stats.machine_check_kills + r.stats.watchdog_kills;
      std::printf(
          "%-28s %-40s faults=%llu recoveries=%llu kills=%llu rollbacks=%llu\n",
          r.label.c_str(), r.verdict.c_str(),
          static_cast<unsigned long long>(r.injected),
          static_cast<unsigned long long>(r.stats.recoveries),
          static_cast<unsigned long long>(kills),
          static_cast<unsigned long long>(r.stats.rollbacks));
    }
  }

  if (!cli.json_path.empty()) {
    write_json(cli.json_path, cli, results, failures, elapsed_ms);
  }
  if (!cli.quiet || failures != 0) {
    std::printf(
        "%zu program(s) checked, %llu fault(s) injected, %zu failure(s)\n",
        results.size(), static_cast<unsigned long long>(total_faults),
        failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  cli.plan.enabled = true;
  cli.plan.seed = 7;
  cli.plan.rate = 2e-5;
  cli::Tool tool{"sealpk-chaos", {"[--all | <workload>...] [options]"}};
  tool.help_flag = true;
  cli::add_workload_pick(tool, &cli.workloads);
  tool.add(cli::threads(&cli.threads, "fleet workers"));
  cli::FaultTargets plan = cli::plan_targets(&cli.plan);
  plan.kinds = nullptr;
  cli::add_fault_plan(tool, plan);
  // Bare --kinds (or --kinds=) is a query, not an error: it prints the
  // valid names.
  cli::Flag kinds = cli::action(
      "--kinds", "<kind,...>", cli::kinds_help().c_str(),
      [&cli](const std::string& v) {
        if (!v.empty()) {
          cli.plan.kinds = cli::parse_kinds(v);
          return;
        }
        std::printf("fault kinds: %s\n", cli::kind_names(" ").c_str());
        throw cli::Exit{0};
      });
  kinds.arity = cli::Flag::Arity::kOptionalValue;
  tool.add(kinds);
  cli::add_rollback(tool, &cli.rollback);
  tool.add(cli::value("--json", &cli.json_path, "<path>",
                      "machine-readable summary"));
  cli::add_shadow_stack(tool, &cli.ss);
  tool.add(cli::quiet(&cli.quiet));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& names) {
    return check_workloads(cli, names);
  });
}
