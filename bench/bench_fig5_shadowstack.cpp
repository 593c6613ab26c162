// Figure 5 reproduction: performance overhead of the five shadow-stack
// implementations (Inline, Func, SealPK-WR, SealPK-RD+WR, mprotect) vs. the
// uninstrumented baseline, for 6 SPECint2000 + 4 SPECint2006 + 7 MiBench
// proxies, with per-suite geometric means and the paper's "~88x" headline
// ratio. The cells are fleet::figure5_jobs, run on the fleet batch engine.
//
// Usage: bench_fig5_shadowstack [--scale=<n>] [--threads=<n>] [-q] [--mix]
//                               [--csv]
//   --scale=<n>   override every workload's bench scale (n >= 1; smaller =
//                 faster)
//   --threads=<n> worker-pool size for the cell matrix (default 1 = serial;
//                 0 = one per host hardware thread). Results are
//                 bit-identical for any value: cells run on private
//                 machines via the fleet batch engine (src/fleet).
//   -q, --quiet   suppress per-cell progress on stderr
//   --mix         also print each workload's call rate and resident set —
//                 the two properties that drive its Figure-5 bars
//   --csv         emit a machine-readable CSV of the matrix on stdout
//                 (suite,benchmark,variant,overhead_pct) after the tables
//
// Exit status: 0 ok, 1 a cell failed (checksum mismatch, non-zero exit,
// timeout), 2 usage.
#include <cstdio>

#include "cli.h"
#include "fleet/engine.h"
#include "fleet/report.h"

using namespace sealpk;

namespace {

using Results = std::vector<fleet::JobResult>;
constexpr size_t kCols = fleet::kFig5Variants;

void print_overheads(const double (&pct)[kCols - 1]) {
  for (size_t v = 0; v + 1 < kCols; ++v) {
    std::printf(v >= 3 ? " %11.2f%%" : " %8.2f%%", pct[v]);
  }
  std::printf("\n");
}

void print_suite(const Results& rs, wl::Suite suite) {
  std::printf("\n--- %s ---\n", wl::suite_name(suite));
  std::printf("%-14s %12s %9s %9s %9s %12s %12s\n", "benchmark",
              "base cycles", "Inline", "Func", "SealPK-WR", "SealPK-RD+WR",
              "mprotect");
  for (size_t i = 0; i < rs.size(); i += kCols) {
    const fleet::JobResult& base = rs[i];
    if (base.workload->suite != suite) continue;
    double pct[kCols - 1];
    for (size_t v = 1; v < kCols; ++v) {
      pct[v - 1] = fleet::overhead_pct(rs[i + v].cycles, base.cycles);
    }
    std::printf("%-14s %12llu", base.workload->name,
                static_cast<unsigned long long>(base.cycles));
    print_overheads(pct);
  }
  double gmean[kCols - 1];
  for (size_t v = 1; v < kCols; ++v) {
    gmean[v - 1] =
        fleet::gmean_overhead(rs, suite, fleet::kVariants[v].ss);
  }
  std::printf("%-14s %12s", "GMean", "");
  print_overheads(gmean);
}

}  // namespace

int main(int argc, char** argv) {
  u64 scale = 0;  // 0 = each workload's bench scale
  unsigned threads = 1;
  bool quiet = false;
  bool mix = false;
  bool csv = false;
  cli::Tool tool{"bench_fig5_shadowstack", {"[options]"}};
  tool.add(cli::at_least("--scale", &scale, 1, "<n>",
                         "override every workload's bench scale"));
  tool.add(cli::threads(&threads, "cell workers (0 = one per core)"));
  cli::Flag q = cli::quiet(&quiet);
  q.help = "suppress per-cell progress on stderr";
  tool.add(q);
  tool.add(cli::sw("--mix", &mix, "print each workload's call rate and RSS"));
  tool.add(cli::sw("--csv", &csv, "print the matrix as CSV"));
  return cli::run(tool, argc, argv, [&](std::vector<std::string>& args) {
    if (!args.empty()) throw cli::UsageError();
    std::printf(
        "Figure 5: shadow-stack performance overhead vs. uninstrumented "
        "baseline\n(simulated Rocket-class hart; every cell checksum-verified "
        "against the golden model)\n");
    fleet::ImageCache cache;
    fleet::FleetOptions opts;
    opts.threads = threads;
    if (!quiet) {
      opts.on_done = [](const fleet::JobResult& r) {
        std::fprintf(stderr, "  %s %s: %s\n", r.label.c_str(),
                     passes::shadow_stack_kind_name(r.ss), r.verdict.c_str());
      };
    }
    const Results rs = fleet::run_jobs(fleet::figure5_jobs(scale), cache, opts);
    // A failed cell (checksum mismatch, non-zero exit, timeout) would skew
    // the figure, so it ends the run instead.
    for (const fleet::JobResult& r : rs) {
      if (!r.ok) {
        std::fprintf(stderr, "%s: %s\n", r.label.c_str(), r.verdict.c_str());
        return 1;
      }
    }

    print_suite(rs, wl::Suite::kSpec2000);
    print_suite(rs, wl::Suite::kSpec2006);
    print_suite(rs, wl::Suite::kMiBench);

    std::printf("\nPaper targets (GMean): SPECint2000 mprotect 2875.62%% / "
                "SealPK-RD+WR 21.00%%\n");
    std::printf("                       SPECint2006 mprotect 1982.70%% / "
                "SealPK-RD+WR 14.81%%\n");
    std::printf("                       MiBench     mprotect  320.21%% / "
                "SealPK-RD+WR  8.52%%\n");
    std::printf(
        "\nIsolated shadow stack via SealPK is ~%.0fx faster than via "
        "mprotect\n(geomean of per-suite overhead ratios; paper reports "
        "~88x)\n",
        fleet::mprotect_speedup(rs));

    if (csv) {
      std::printf("\nsuite,benchmark,variant,overhead_pct\n");
      for (size_t i = 0; i < rs.size(); i += kCols) {
        const fleet::JobResult& base = rs[i];
        for (size_t v = 1; v < kCols; ++v) {
          std::printf("%s,%s,%s,%.4f\n", wl::suite_name(base.workload->suite),
                      base.workload->name,
                      passes::shadow_stack_kind_name(rs[i + v].ss),
                      fleet::overhead_pct(rs[i + v].cycles, base.cycles));
        }
      }
    }

    if (mix) {
      std::printf(
          "\nWorkload mix (baseline runs): calls/kilocycle drives the "
          "SealPK bars,\nresident pages drive the mprotect bars "
          "(EXPERIMENTS.md, calibration)\n");
      std::printf("%-14s %-13s %14s %16s %12s\n", "benchmark", "suite",
                  "instructions", "calls/kcycle", "RSS pages");
      for (size_t i = 0; i < rs.size(); i += kCols) {
        const fleet::JobResult& base = rs[i];
        const double rate = 1000.0 * static_cast<double>(base.calls) /
                            static_cast<double>(base.cycles);
        std::printf("%-14s %-13s %14llu %16.2f %12llu\n", base.workload->name,
                    wl::suite_name(base.workload->suite),
                    static_cast<unsigned long long>(base.instructions), rate,
                    static_cast<unsigned long long>(base.pages_mapped));
      }
    }
    return 0;
  });
}
