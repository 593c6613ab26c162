// Coverage for the supporting libraries: the Table-I area model and the
// guest runtime helpers.
#include <gtest/gtest.h>

#include "guest_test_util.h"
#include "hwcost/fpga_model.h"
#include "workloads/build_util.h"

namespace sealpk {
namespace {

// ---------------------------------------------------------------------------
// hwcost — the Table I model.
// ---------------------------------------------------------------------------

TEST(HwCost, BaselineMatchesPaperTable1) {
  const auto base = hwcost::baseline_rocket();
  EXPECT_EQ(base.total_luts(), 32030u);
  EXPECT_EQ(base.luts_logic, 30907u);
  EXPECT_EQ(base.luts_mem, 1123u);
  EXPECT_EQ(base.ffs, 16506u);
  // 60.21 % of the XC7Z020, as printed in Table I.
  EXPECT_NEAR(hwcost::utilization_pct(base.total_luts(),
                                      hwcost::FpgaDevice{}.luts),
              60.21, 0.02);
}

TEST(HwCost, SealPkDeltaTracksPaper) {
  const auto delta = hwcost::sealpk_overhead(hwcost::SealPkHwConfig{});
  // Paper deltas: +2989 total LUTs (+2945 logic, +44 mem), +2886 FF.
  EXPECT_NEAR(delta.luts_logic, 2945, 150);
  EXPECT_NEAR(delta.luts_mem, 44, 10);
  EXPECT_NEAR(delta.ffs, 2886, 150);
}

TEST(HwCost, ComponentsSumToTotal) {
  const hwcost::SealPkHwConfig cfg;
  hwcost::ResourceCount sum;
  for (const auto& part : hwcost::sealpk_components(cfg)) {
    sum = sum + part.cost;
  }
  const auto total = hwcost::sealpk_overhead(cfg);
  EXPECT_EQ(sum.luts_logic, total.luts_logic);
  EXPECT_EQ(sum.luts_mem, total.luts_mem);
  EXPECT_EQ(sum.ffs, total.ffs);
}

TEST(HwCost, ScalesMonotonicallyWithStructures) {
  hwcost::SealPkHwConfig small, big;
  small.pkr_rows = 8;
  small.cam_entries = 8;
  big.pkr_rows = 64;
  big.cam_entries = 32;
  const auto s = hwcost::sealpk_overhead(small);
  const auto b = hwcost::sealpk_overhead(big);
  EXPECT_LT(s.luts_mem, b.luts_mem);
  EXPECT_LT(s.ffs, b.ffs);
  EXPECT_LT(s.luts_logic, b.luts_logic);
}

// ---------------------------------------------------------------------------
// Guest runtime helpers.
// ---------------------------------------------------------------------------

TEST(Runtime, FillRandMatchesHostMirror) {
  constexpr u64 kCount = 64;
  auto prog = testutil::make_main_program([](isa::Program& p,
                                             isa::Function& f) {
    wl::add_fill_rand(p);
    p.add_zero("buf", kCount * 8);
    f.la(isa::a0, "buf");
    f.li(isa::a1, kCount);
    f.li(isa::a2, 0x1234);
    f.call("__fill_rand");
    rt::syscall(f, os::sys::kReport);  // final state
    // Report a couple of samples.
    f.la(isa::t0, "buf");
    f.ld(isa::a0, 0, isa::t0);
    rt::syscall(f, os::sys::kReport);
    f.la(isa::t0, "buf");
    f.ld(isa::a0, 8 * (kCount - 1), isa::t0);
    rt::syscall(f, os::sys::kReport);
    f.li(isa::a0, 0);
  });
  const auto run = testutil::run_guest(prog);
  std::vector<u64> host;
  const u64 state = wl::host_fill_rand(host, kCount, 0x1234);
  ASSERT_EQ(run.reports.size(), 3u);
  EXPECT_EQ(run.reports[0], state);
  EXPECT_EQ(run.reports[1], host[0]);
  EXPECT_EQ(run.reports[2], host[kCount - 1]);
}

TEST(Runtime, GuestRandMatchesRandLib) {
  auto prog = testutil::make_main_program([](isa::Program& p,
                                             isa::Function& f) {
    rt::add_rand_lib(p);
    p.add_zero("state", 8);
    f.la(isa::t0, "state");
    f.li(isa::t1, 0x99);
    f.sd(isa::t1, 0, isa::t0);
    for (int i = 0; i < 3; ++i) {
      f.la(isa::a0, "state");
      f.call("__rand");
      rt::syscall(f, os::sys::kReport);
    }
    f.li(isa::a0, 0);
  });
  const auto run = testutil::run_guest(prog);
  wl::GuestRand host(0x99);
  ASSERT_EQ(run.reports.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run.reports[i], host.next());
}

TEST(Runtime, PkeyLibIsIdempotent) {
  isa::Program prog;
  rt::add_pkey_lib(prog);
  rt::add_pkey_lib(prog);  // second call must not duplicate symbols
  EXPECT_NE(prog.find_function("__pkey_set"), nullptr);
  rt::add_rand_lib(prog);
  rt::add_rand_lib(prog);
  EXPECT_NO_THROW(prog.add_function("_start").ret());
}

TEST(Runtime, BlindPkeySetClearsNeighbours) {
  // __pkey_set_blind resets the other keys in the row to 00 — the
  // documented SealPK-WR trade-off.
  auto prog = testutil::make_main_program([](isa::Program& p,
                                             isa::Function& f) {
    rt::add_pkey_lib(p);
    // Set key 3 and key 4 (same row) to kNone via the safe setter.
    f.li(isa::a0, 3);
    f.li(isa::a1, 3);
    f.call("__pkey_set");
    f.li(isa::a0, 4);
    f.li(isa::a1, 3);
    f.call("__pkey_set");
    // Blind-set key 4 only.
    f.li(isa::a0, 4);
    f.li(isa::a1, 1);
    f.call("__pkey_set_blind");
    f.li(isa::a0, 3);
    f.call("__pkey_get");
    rt::syscall(f, os::sys::kReport);  // expect 0 (clobbered)
    f.li(isa::a0, 4);
    f.call("__pkey_get");
    rt::syscall(f, os::sys::kReport);  // expect 1
    f.li(isa::a0, 0);
  });
  EXPECT_EQ(testutil::run_guest(prog).reports, (std::vector<u64>{0, 1}));
}

}  // namespace
}  // namespace sealpk
