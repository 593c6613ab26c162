// Result aggregation and JSON reporting for fleet runs.
//
// The "records" array of a report is the canonical, deterministic part:
// one canonical_record() line per job, ordered by job id. Wall-clock,
// thread count and per-job timing live in a separate "timing" section that
// canonical mode omits, so `sealpk-fleet diff` (and the determinism tests)
// can compare reports from different thread counts byte-for-byte.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/job.h"

namespace sealpk::fleet {

// Cross-job totals (sums over every result).
struct Aggregate {
  u64 jobs = 0;
  u64 ok = 0;
  u64 failures = 0;
  u64 instructions = 0;
  u64 cycles = 0;
  u64 faults_injected = 0;
  u64 recoveries = 0;
  u64 kills = 0;  // machine-check + watchdog
  u64 checkpoints = 0;
  u64 rollbacks = 0;
  double wall_ms_sum = 0.0;  // total cpu-side work (not elapsed)
};

Aggregate aggregate(const std::vector<JobResult>& results);

// One entry of the instrumentation axis, as the CLI and the reports spell
// it ("sealed" = sealpk-wr with the WRPKR permission seal applied).
struct Variant {
  const char* name;
  passes::ShadowStackKind ss;
  bool perm_seal;
};

// The 7-variant axis of the evaluation matrix. The first kFig5Variants
// entries are Figure 5's columns in legend order: the baseline, then
// Inline, Func, SealPK-WR, SealPK-RD+WR and mprotect.
inline constexpr Variant kVariants[] = {
    {"none", passes::ShadowStackKind::kNone, false},
    {"inline", passes::ShadowStackKind::kInline, false},
    {"func", passes::ShadowStackKind::kFunc, false},
    {"sealpk-wr", passes::ShadowStackKind::kSealPkWr, false},
    {"sealpk-rdwr", passes::ShadowStackKind::kSealPkRdWr, false},
    {"mprotect", passes::ShadowStackKind::kMprotect, false},
    {"sealed", passes::ShadowStackKind::kSealPkWr, true},
};
inline constexpr size_t kFig5Variants = 6;
inline constexpr size_t kSealPkRdWrIdx = 4;
inline constexpr size_t kMprotectIdx = 5;
static_assert(kVariants[kSealPkRdWrIdx].ss ==
                  passes::ShadowStackKind::kSealPkRdWr &&
              kVariants[kMprotectIdx].ss == passes::ShadowStackKind::kMprotect);

// One kRun job per (workload, Figure-5 variant) cell, workload-major:
// job i is workload i / kFig5Variants under kVariants[i % kFig5Variants].
// scale 0 = each workload's bench scale.
std::vector<JobSpec> figure5_jobs(u64 scale);

// Percent overhead of `cycles` over `base_cycles`.
double overhead_pct(u64 cycles, u64 base_cycles);

// Geometric mean of per-workload overhead (vs the kNone baseline job for
// the same workload among `results`) across the suite. Overheads below
// 0.01% are clamped so one near-zero bar cannot zero the mean (the paper's
// log-scale plot has the same floor). Returns a negative value when the
// suite has no (baseline, variant) pair, so callers can skip rather than
// divide by nothing.
double gmean_overhead(const std::vector<JobResult>& results, wl::Suite suite,
                      passes::ShadowStackKind ss, bool perm_seal = false);

// The paper's headline: geomean over the three suites of (mprotect
// overhead / SealPK-RD+WR overhead), "~88x faster". Negative when a suite
// lacks either variant.
double mprotect_speedup(const std::vector<JobResult>& results);

struct ReportOptions {
  unsigned threads = 1;
  double elapsed_ms = 0.0;
  // Canonical mode drops the "timing" section (the only scheduling-
  // dependent bytes), making whole reports comparable across thread counts.
  bool canonical = false;
};

void write_report(std::ostream& os, const std::vector<JobResult>& results,
                  const ReportOptions& opts);
// Returns false when the file cannot be written.
bool write_report_file(const std::string& path,
                       const std::vector<JobResult>& results,
                       const ReportOptions& opts);

// Machine-readable workload x variant matrix ("sealpk-fleet-matrix-v1"):
// every Figure-5 workload, every kVariants entry, and the full cell cross
// product — so the SLO gate and CI asserts can enumerate cells without
// scraping `sealpk-fleet list` text. Deterministic (list order x table
// order).
void write_matrix_json(std::ostream& os);

// Compares the canonical "records" arrays of two report texts. Returns the
// number of diverging records (0 = byte-identical record sets); mismatch
// details go to `log`.
size_t diff_reports(const std::string& a_text, const std::string& b_text,
                    std::ostream& log);

// Machine-readable form of a diff_reports outcome, for `sealpk-fleet diff
// --json=...`. The JSON carries the verdict only; the process exit code
// must signal divergence identically in both output modes (the CLI
// regression in tests/test_fleet.cpp pins that contract).
void write_diff_report(std::ostream& os, const std::string& a_name,
                       const std::string& b_name, size_t diverging,
                       const std::string& log_text);
// Returns false when the file cannot be written.
bool write_diff_report_file(const std::string& path, const std::string& a_name,
                            const std::string& b_name, size_t diverging,
                            const std::string& log_text);

}  // namespace sealpk::fleet
