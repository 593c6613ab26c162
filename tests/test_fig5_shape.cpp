// Regression tests pinning the *shape* of Figure 5 (run at reduced scale so
// the suite stays fast): variant ordering, the suite ordering of mprotect
// pain, and the order of magnitude of the headline speedup.
#include <gtest/gtest.h>

#include "fleet/engine.h"
#include "fleet/report.h"

namespace sealpk {
namespace {

constexpr size_t kCols = fleet::kFig5Variants;

// One shared run for all shape assertions (scale 1 ~= a second), laid out
// as fleet::figure5_jobs: kCols consecutive cells per workload, baseline
// first.
const std::vector<fleet::JobResult>& cells() {
  static const std::vector<fleet::JobResult> kCells = [] {
    fleet::ImageCache cache;
    std::vector<fleet::JobResult> rs =
        fleet::run_jobs(fleet::figure5_jobs(1), cache);
    for (const fleet::JobResult& r : rs) {
      SEALPK_CHECK_MSG(r.ok, r.label << ": " << r.verdict);
    }
    return rs;
  }();
  return kCells;
}

// Overhead of Figure-5 variant `v` (kVariants index) for the workload whose
// baseline cell is `base`.
double overhead(size_t base, size_t v) {
  return fleet::overhead_pct(cells()[base + v].cycles, cells()[base].cycles);
}

double gmean(wl::Suite suite, size_t v) {
  return fleet::gmean_overhead(cells(), suite, fleet::kVariants[v].ss);
}

TEST(Fig5Shape, EveryWorkloadHasPositiveOverheadOrdering) {
  for (size_t i = 0; i < cells().size(); i += kCols) {
    const char* name = cells()[i].workload->name;
    // Inline < Func < SealPK-WR < SealPK-RD+WR << mprotect, per benchmark.
    for (size_t v = 2; v < kCols; ++v) {
      EXPECT_LT(overhead(i, v - 1), overhead(i, v)) << name << " variant " << v;
    }
    EXPECT_GT(overhead(i, fleet::kMprotectIdx),
              8 * overhead(i, fleet::kSealPkRdWrIdx))
        << name;
  }
}

TEST(Fig5Shape, SuiteGmeansTrackThePaper) {
  // Paper Fig. 5 GMeans: SealPK-RD+WR 21.00 / 14.81 / 8.52 and mprotect
  // 2875.62 / 1982.70 / 320.21 for SPEC2000 / SPEC2006 / MiBench. At the
  // reduced test scale the values shift, so assert generous brackets that
  // still pin who-wins-where.
  const double rdwr2000 = gmean(wl::Suite::kSpec2000, fleet::kSealPkRdWrIdx);
  const double rdwr2006 = gmean(wl::Suite::kSpec2006, fleet::kSealPkRdWrIdx);
  const double rdwrMib = gmean(wl::Suite::kMiBench, fleet::kSealPkRdWrIdx);
  EXPECT_GT(rdwr2000, 8.0);
  EXPECT_LT(rdwr2000, 45.0);
  EXPECT_GT(rdwr2006, 5.0);
  EXPECT_LT(rdwr2006, 35.0);
  EXPECT_GT(rdwrMib, 3.0);
  EXPECT_LT(rdwrMib, 20.0);

  const double mp2000 = gmean(wl::Suite::kSpec2000, fleet::kMprotectIdx);
  const double mp2006 = gmean(wl::Suite::kSpec2006, fleet::kMprotectIdx);
  const double mpMib = gmean(wl::Suite::kMiBench, fleet::kMprotectIdx);
  // Suite ordering of mprotect pain: SPEC2000 > SPEC2006 > MiBench.
  EXPECT_GT(mp2000, mp2006);
  EXPECT_GT(mp2006, mpMib);
  EXPECT_GT(mp2000, 1000.0);  // "thousands of percent"
  EXPECT_LT(mpMib, 1000.0);   // "hundreds of percent"
}

TEST(Fig5Shape, HeadlineSpeedupNearPaper) {
  // Paper: "on average ~88x faster than ... mprotect". Assert the same
  // order of magnitude (x10 either way would be a broken model).
  const double factor = fleet::mprotect_speedup(cells());
  EXPECT_GT(factor, 40.0);
  EXPECT_LT(factor, 220.0);
}

TEST(Fig5Shape, InstrumentationNeverChangesInstructionCountsWildly) {
  // SealPK variants add prologue/epilogue work only: instruction-count
  // inflation must stay well below the mprotect variant's cycle inflation.
  for (size_t i = 0; i < cells().size(); i += kCols) {
    const double base = static_cast<double>(cells()[i].cycles);
    const double rdwr =
        static_cast<double>(cells()[i + fleet::kSealPkRdWrIdx].cycles);
    EXPECT_LT(rdwr / base, 3.0) << cells()[i].workload->name;
  }
}

}  // namespace
}  // namespace sealpk
