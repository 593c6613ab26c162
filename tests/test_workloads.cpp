// Workload correctness: every benchmark proxy must report exactly the
// checksum its host-side golden model computes — both uninstrumented and
// under the heaviest shadow-stack instrumentation (transparency).
#include <gtest/gtest.h>

#include "guest_test_util.h"
#include "passes/shadow_stack.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

using testutil::GuestRun;
using testutil::run_guest;

class WorkloadTest : public ::testing::TestWithParam<size_t> {
 protected:
  const wl::Workload& workload() const {
    return wl::all_workloads()[GetParam()];
  }
};

TEST_P(WorkloadTest, ChecksumMatchesGolden) {
  const auto& w = workload();
  isa::Program prog = w.build(w.test_scale);
  const GuestRun run = run_guest(prog, {}, 400'000'000);
  ASSERT_TRUE(run.outcome.completed) << "did not finish";
  ASSERT_TRUE(run.faults.empty())
      << "faulted: " << core::trap_cause_name(run.faults[0].cause) << " at 0x"
      << std::hex << run.faults[0].pc;
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.reports.size(), 1u);
  EXPECT_EQ(run.reports[0], w.golden(w.test_scale));
}

TEST_P(WorkloadTest, InstrumentationIsTransparent) {
  const auto& w = workload();
  isa::Program prog = w.build(w.test_scale);
  passes::ShadowStackOptions opts;
  opts.kind = passes::ShadowStackKind::kSealPkRdWr;
  opts.perm_seal = true;
  passes::apply_shadow_stack(prog, opts);
  const GuestRun run = run_guest(prog, {}, 400'000'000);
  ASSERT_TRUE(run.outcome.completed);
  ASSERT_TRUE(run.faults.empty())
      << core::trap_cause_name(run.faults[0].cause);
  ASSERT_EQ(run.reports.size(), 1u);
  EXPECT_EQ(run.reports[0], w.golden(w.test_scale));
}

TEST_P(WorkloadTest, ScalesChangeTheWork) {
  const auto& w = workload();
  if (w.bench_scale == w.test_scale) GTEST_SKIP();
  // The bench scale must actually be a different problem (guards against a
  // builder ignoring its scale parameter).
  EXPECT_NE(w.golden(w.test_scale), w.golden(w.bench_scale)) << w.name;
}

std::string workload_case_name(const ::testing::TestParamInfo<size_t>& info) {
  const auto& w = wl::all_workloads()[info.param];
  std::string name = std::string(wl::suite_name(w.suite)) + "_" + w.name;
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::Range<size_t>(0,
                                                  wl::all_workloads().size()),
                         workload_case_name);

TEST(WorkloadRegistry, SeventeenBenchmarksInPaperOrder) {
  const auto& all = wl::all_workloads();
  ASSERT_EQ(all.size(), 17u);
  size_t spec2000 = 0, spec2006 = 0, mibench = 0;
  for (const auto& w : all) {
    switch (w.suite) {
      case wl::Suite::kSpec2000: ++spec2000; break;
      case wl::Suite::kSpec2006: ++spec2006; break;
      case wl::Suite::kMiBench: ++mibench; break;
    }
  }
  EXPECT_EQ(spec2000, 6u);  // paper §V-A: 6 of 12 SPECint2000 apps
  EXPECT_EQ(spec2006, 4u);  // 4 of 12 SPECint2006 apps
  EXPECT_EQ(mibench, 7u);   // 7 MiBench apps
}

TEST(WorkloadRegistry, FindHandlesTheBzip2Collision) {
  const auto* b2000 = wl::find_workload(wl::Suite::kSpec2000, "bzip2");
  const auto* b2006 = wl::find_workload(wl::Suite::kSpec2006, "bzip2");
  ASSERT_NE(b2000, nullptr);
  ASSERT_NE(b2006, nullptr);
  EXPECT_NE(b2000, b2006);
  EXPECT_EQ(wl::find_workload(wl::Suite::kMiBench, "nope"), nullptr);
}

}  // namespace
}  // namespace sealpk
