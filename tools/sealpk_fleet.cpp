// sealpk fleet — parallel batch-execution driver for the workload matrix.
//
// A fixed-size worker pool drains the (workload x instrumentation-variant)
// job matrix; each worker owns a private Machine per job, linked images are
// built once per (workload, variant, scale) in a shared read-only cache,
// and per-job records are byte-identical for any --threads value (the
// determinism contract of src/fleet). Modes:
//
//   sweep                 run the matrix (default: all 17 workloads x all 7
//                         variants = 119 jobs, at each workload's bench
//                         scale); filter with --workloads / --variants
//   run <workload>...     run the named workloads (same engine/filters)
//   diff <a.json> <b.json> compare the canonical records of two reports;
//                         exit 1 when any record differs
//   list                  print workloads and variant names
//
// --chaos turns every job into the clean-vs-fault differential oracle (two
// machines per job, fault plan from the --chaos-* flags): the chaos run's
// guest-visible output must equal the clean run's, or the machine must
// record a recovery or kill the process with a distinct robustness exit
// code; every injected fault must be resolved and no host exception may
// escape Machine::run. --rollback adds checkpoints and snapshot-rollback
// recovery, so otherwise-fatal machine checks finish with clean output.
// --canonical leaves the scheduling-dependent "timing" section out of the
// --json report, so reports from any thread count are byte-comparable
// (that is what `diff` checks).
//
// Exit status: 0 all jobs ok, 1 job failures / record divergence, 2 usage
// (including a run name or --workloads/--variants glob that matches
// nothing, and any flag but --json and -q given to list or diff).
//
// Usage:
//   sealpk fleet sweep --threads=8 --scale=1 --json=BENCH_fleet.json
//   sealpk fleet sweep --variants='sealpk-*' --workloads='MiBench/*'
//   sealpk fleet run qsort sha --variants=none,mprotect --threads=4
//   sealpk fleet sweep --chaos --chaos-seed=7 --chaos-rate=2e-5 --threads=0
//   sealpk fleet sweep --chaos --variants=sealed --scale=1 --cam-rate=0.3
//   sealpk fleet sweep --scale=1 --threads=4 --selfcheck
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli.h"
#include "fleet/engine.h"
#include "fleet/report.h"

using namespace sealpk;

namespace {

struct CliOptions {
  std::string mode;
  std::vector<std::string> names;       // run mode positional workloads
  std::vector<std::string> workloads;   // --workloads= globs
  std::vector<std::string> variants;    // --variants= globs
  unsigned threads = 1;
  u64 scale = 0;  // 0 = per-workload bench_scale
  u64 budget = 8'000'000'000ULL;
  bool chaos = false;
  bool trace = false;       // --trace: per-job event recording + metrics
  u64 trace_ring = 4096;    // ring capture keeps fleet memory bounded
  bool quiet = false;
  bool canonical = false;
  bool selfcheck = false;
  cli::JsonSink json;  // bare --json: list writes the matrix to stdout
  std::vector<std::string> matrix_flags;  // given flags list/diff refuse
  // chaos plan / robustness knobs (only consulted with --chaos)
  fault::FaultPlan plan;
  cli::Rollback rollback;
};

// Minimal glob: '*' any run, '?' any char; everything else literal.
bool glob_match(const char* pat, const char* text) {
  if (*pat == '\0') return *text == '\0';
  if (*pat == '*') {
    for (const char* t = text;; ++t) {
      if (glob_match(pat + 1, t)) return true;
      if (*t == '\0') return false;
    }
  }
  if (*text == '\0') return false;
  if (*pat != '?' && *pat != *text) return false;
  return glob_match(pat + 1, text + 1);
}

std::string qualified_name(const wl::Workload& w) {
  return std::string(wl::suite_name(w.suite)) + "/" + w.name;
}

bool names_workload(const std::string& name, const wl::Workload& w) {
  return name == w.name || name == qualified_name(w);
}

bool glob_selects_workload(const std::string& glob, const wl::Workload& w) {
  return glob_match(glob.c_str(), w.name) ||
         glob_match(glob.c_str(), qualified_name(w).c_str());
}

bool glob_selects_variant(const std::string& glob, const fleet::Variant& v) {
  return glob_match(glob.c_str(), v.name);
}

// Whether one of `patterns` selects `item`; no patterns select every item.
template <typename Item, typename Selects>
bool selected(const std::vector<std::string>& patterns, const Item& item,
              Selects selects) {
  return patterns.empty() ||
         std::any_of(patterns.begin(), patterns.end(),
                     [&](const std::string& p) { return selects(p, item); });
}

// Throws naming the first of `patterns` that selects none of `items`, so a
// typo fails instead of quietly shrinking the matrix.
template <typename Items, typename Selects>
void require_each_selects(const std::vector<std::string>& patterns,
                          const Items& items, const char* what,
                          Selects selects) {
  for (const std::string& p : patterns) {
    const auto hit = [&](const auto& item) { return selects(p, item); };
    if (std::none_of(std::begin(items), std::end(items), hit)) {
      throw std::runtime_error("no " + std::string(what) + " matches '" + p +
                               "'; try list");
    }
  }
}

// Builds the selected (workload x variant) job matrix in deterministic
// (figure, variant-table) order. Every run name and --workloads/--variants
// glob must select something on its own.
std::vector<fleet::JobSpec> build_matrix(const CliOptions& cli) {
  const bool run = cli.mode == "run";
  if (run) {
    require_each_selects(cli.names, wl::all_workloads(), "workload",
                         names_workload);
  }
  require_each_selects(cli.workloads, wl::all_workloads(), "workload",
                       glob_selects_workload);
  require_each_selects(cli.variants, fleet::kVariants, "variant",
                       glob_selects_variant);
  std::vector<fleet::JobSpec> specs;
  for (const auto& w : wl::all_workloads()) {
    if (run && !selected(cli.names, w, names_workload)) continue;
    if (!selected(cli.workloads, w, glob_selects_workload)) continue;
    for (const fleet::Variant& v : fleet::kVariants) {
      if (!selected(cli.variants, v, glob_selects_variant)) continue;
      fleet::JobSpec spec;
      spec.id = static_cast<u32>(specs.size());
      spec.workload = &w;
      spec.ss = v.ss;
      spec.perm_seal = v.perm_seal;
      spec.scale = cli.scale != 0 ? cli.scale : w.bench_scale;
      spec.budget = cli.budget;
      if (cli.chaos) {
        spec.kind = fleet::JobKind::kChaosDiff;
        spec.config.fault_plan = cli.plan;
        cli.rollback.apply(&spec.config);
      }
      if (cli.trace) {
        // Fan trace capture across the matrix: each job records its own
        // deterministic event stream; the metric summary lands in the
        // canonical record (and report) per job.
        spec.config.trace.enabled = true;
        spec.config.trace.ring_capacity = cli.trace_ring;
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

struct SweepOutcome {
  std::vector<fleet::JobResult> results;
  double elapsed_ms = 0;
  u64 image_builds = 0;
};

SweepOutcome run_matrix(const std::vector<fleet::JobSpec>& specs,
                        unsigned threads, bool progress) {
  fleet::ImageCache cache;
  fleet::FleetOptions opts;
  opts.threads = threads;
  if (progress) {
    opts.on_done = [](const fleet::JobResult& r) {
      std::fprintf(stderr, "  [%3u] %-42s %s\n", r.id, r.label.c_str(),
                   r.verdict.c_str());
    };
  }
  const auto start = std::chrono::steady_clock::now();
  SweepOutcome out;
  out.results = fleet::run_jobs(specs, cache, opts);
  out.elapsed_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  out.image_builds = cache.builds();
  return out;
}

void print_summary(const SweepOutcome& sweep, unsigned threads) {
  // Failed jobs are named even under -q, in job-id order.
  for (const fleet::JobResult& r : sweep.results) {
    if (!r.ok) std::printf("%-42s %s\n", r.label.c_str(), r.verdict.c_str());
  }
  const fleet::Aggregate agg = fleet::aggregate(sweep.results);
  std::printf(
      "%llu job(s): %llu ok, %llu failed; %llu image build(s); "
      "%.0f ms elapsed, %.0f ms of job work on %u thread(s) (%.2fx)\n",
      static_cast<unsigned long long>(agg.jobs),
      static_cast<unsigned long long>(agg.ok),
      static_cast<unsigned long long>(agg.failures),
      static_cast<unsigned long long>(sweep.image_builds), sweep.elapsed_ms,
      agg.wall_ms_sum, threads,
      sweep.elapsed_ms > 0 ? agg.wall_ms_sum / sweep.elapsed_ms : 0.0);
  // Suite geomeans for whatever slice of the Figure-5 matrix ran.
  bool header = false;
  for (const wl::Suite suite : {wl::Suite::kSpec2000, wl::Suite::kSpec2006,
                                wl::Suite::kMiBench}) {
    for (const fleet::Variant& v : fleet::kVariants) {
      if (v.ss == passes::ShadowStackKind::kNone) continue;
      const double g = fleet::gmean_overhead(sweep.results, suite, v.ss,
                                             v.perm_seal);
      if (g < 0) continue;
      if (!header) {
        std::printf("suite overhead geomeans (%% vs baseline):\n");
        header = true;
      }
      std::printf("  %-13s %-12s %10.2f%%\n", wl::suite_name(suite), v.name,
                  g);
    }
  }
}

int mode_diff(const std::vector<std::string>& names,
              const std::string& json_path) {
  std::ostringstream log;
  const size_t diverging = fleet::diff_reports(
      cli::read_text(names[0]), cli::read_text(names[1]), log);
  // --json changes the output format, never the verdict: the exit code must
  // signal divergence identically in both modes (CI scripts key off it).
  if (!json_path.empty() &&
      !fleet::write_diff_report_file(json_path, names[0], names[1], diverging,
                                     log.str())) {
    throw std::runtime_error("cannot write '" + json_path + "'");
  }
  if (diverging == 0) {
    if (json_path.empty()) {
      std::printf("reports identical (canonical records)\n");
    }
    return 0;
  }
  if (json_path.empty()) {
    std::fputs(log.str().c_str(), stdout);
    std::printf("%zu diverging record(s)\n", diverging);
  }
  return 1;
}

int run_mode(const CliOptions& cli) {
  if (cli.mode == "list") {
    if (cli.json.on) {
      // Machine-readable workload x variant matrix for the SLO gate and
      // CI asserts; exit-code parity with the plain listing (always 0).
      std::ostringstream os;
      fleet::write_matrix_json(os);
      cli.json.emit(os.str());
      return 0;
    }
    std::printf("workloads:\n");
    for (const auto& w : wl::all_workloads()) {
      std::printf("  %s/%s\n", wl::suite_name(w.suite), w.name);
    }
    std::printf("variants:\n");
    for (const fleet::Variant& v : fleet::kVariants) {
      std::printf("  %s\n", v.name);
    }
    return 0;
  }
  if (cli.mode == "diff") return mode_diff(cli.names, cli.json.path);

  const std::vector<fleet::JobSpec> specs = build_matrix(cli);
  if (specs.empty()) {
    std::fprintf(stderr, "no matching (workload, variant) jobs; try list\n");
    return 2;
  }

  bool progress = !cli.quiet;  // the first (threaded) run only
  return cli::sweep(
      {.threads = cli.threads, .selfcheck = cli.selfcheck, .quiet = cli.quiet},
      [&](unsigned threads) {
        return run_matrix(specs, threads, std::exchange(progress, false));
      },
      [](const SweepOutcome& sweep) {
        std::string records;
        for (const fleet::JobResult& r : sweep.results) {
          records += fleet::canonical_record(r) + "\n";
        }
        return records;
      },
      [&cli](const SweepOutcome& sweep) {
        fleet::ReportOptions ropts;
        ropts.threads = cli.threads;
        ropts.elapsed_ms = sweep.elapsed_ms;
        ropts.canonical = cli.canonical;
        if (!cli.json.path.empty() &&
            !fleet::write_report_file(cli.json.path, sweep.results, ropts)) {
          throw std::runtime_error("cannot write '" + cli.json.path + "'");
        }
        const fleet::Aggregate agg = fleet::aggregate(sweep.results);
        if (!cli.quiet || agg.failures != 0) print_summary(sweep, cli.threads);
        return agg.failures == 0 ? 0 : 1;
      });
}

}  // namespace

int sealpk_fleet(int argc, char** argv) {
  CliOptions cli;
  cli.plan.enabled = true;
  cli.plan.seed = 7;
  cli.plan.rate = 2e-5;
  std::string variants_help = "variant globs; variants:";
  for (const fleet::Variant& v : fleet::kVariants) {
    variants_help += std::string(" ") + v.name;
  }
  cli::Tool tool{"sealpk fleet",
                 {"<sweep | run <workload>... | diff <a> <b> | list> "
                  "[options]"}};
  tool.add(cli::threads(&cli.threads, "worker threads (0 = one per core)"));
  tool.add(cli::value("--scale", &cli.scale, "<n>",
                      "workload scale (0 = each workload's bench scale)"));
  tool.add(cli::value("--budget", &cli.budget, "<n>",
                      "instruction budget per job"));
  tool.add(cli::value("--workloads", &cli.workloads, "<glob,...>",
                      "workload globs (name or suite/name)"));
  tool.add(cli::value("--variants", &cli.variants, "<glob,...>",
                      variants_help.c_str()));
  tool.add(cli::json_sink(&cli.json, "JSON report (list: bare = stdout)"));
  tool.add(cli::sw("--canonical", &cli.canonical,
                   "omit the scheduling-dependent timing section"));
  tool.add(cli::selfcheck(&cli.selfcheck));
  tool.add(cli::sw("--chaos", &cli.chaos,
                   "clean-vs-fault differential oracle per job"));
  cli::add_fault_plan(tool, cli::plan_targets(&cli.plan));
  cli::add_rollback(tool, &cli.rollback);
  tool.add(cli::sw("--trace", &cli.trace, "record per-job event traces"));
  tool.add(cli::value("--trace-ring", &cli.trace_ring, "<n>",
                      "trace ring capacity per job"));
  tool.add(cli::quiet(&cli.quiet));
  // list and diff read only --json and -q; every other flag shapes or runs
  // the matrix, so those modes refuse it rather than ignore it.
  for (cli::Flag& flag : tool.flags) {
    if (flag.name == "--json" || flag.name == "--quiet") continue;
    flag.set = [&cli, name = flag.name,
                set = std::move(flag.set)](const std::string& v) {
      cli.matrix_flags.push_back(name);
      set(v);
    };
  }
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    cli.mode = cli::take_mode(
        args, {{"sweep"}, {"run", 1, cli::kMany}, {"diff", 2, 2}, {"list"}});
    cli.names = args;
    if ((cli.mode == "list" || cli.mode == "diff") &&
        !cli.matrix_flags.empty()) {
      throw cli::UsageError(cli.matrix_flags.front() +
                            " applies only to sweep and run");
    }
    return run_mode(cli);
  });
}
