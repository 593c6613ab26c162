// Sv48 support (paper footnote 1): the Sv48 PTE carries the same 10
// reserved bits, so SealPK works unchanged with a 4-level walk.
#include <gtest/gtest.h>

#include "core/hart.h"
#include "guest_test_util.h"
#include "mem/walker.h"

namespace sealpk {
namespace {

using isa::Function;
using isa::Program;
using namespace isa;
using testutil::make_main_program;

sim::MachineConfig sv48_machine() {
  sim::MachineConfig cfg;
  cfg.kernel.sv48 = true;
  return cfg;
}

TEST(Sv48, WalkerHandlesFourLevels) {
  mem::PhysMem mem(32 << 20);
  // Build a 4-level mapping by hand for vaddr with a non-zero level-3 slice.
  const u64 vaddr = (u64{5} << 39) | 0x1234'5000;
  u64 table = 1, next_table = 2;
  for (int level = 3; level >= 1; --level) {
    const u64 slot = (table << mem::kPageShift) +
                     mem::svxx::vpn_slice(vaddr, level) * 8;
    mem.write_u64(slot, mem::pte::make(next_table, mem::pte::kV));
    table = next_table++;
  }
  const u64 slot =
      (table << mem::kPageShift) + mem::svxx::vpn_slice(vaddr, 0) * 8;
  mem.write_u64(slot,
                mem::pte::make(0x123, mem::pte::kV | mem::pte::kR |
                                          mem::pte::kU,
                               999));
  const auto r =
      mem::walk(mem, 1, vaddr, mem::Access::kLoad, false, 4);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ppn, 0x123u);
  EXPECT_EQ(mem::pte::pkey_of(r.pte), 999u);
  EXPECT_EQ(r.accesses, 4u);
  // The same address is non-canonical under Sv39 and must fault there.
  EXPECT_FALSE(mem::walk(mem, 1, vaddr, mem::Access::kLoad, false, 3).ok);
}

TEST(Sv48, CanonicalForm) {
  EXPECT_TRUE(mem::sv48::canonical((u64{1} << 46)));
  EXPECT_FALSE(mem::sv48::canonical(u64{1} << 47));
  EXPECT_TRUE(mem::sv48::canonical(~u64{0}));
  EXPECT_FALSE(mem::sv39::canonical(u64{1} << 46));  // Sv39 rejects it
}

TEST(Sv48, GuestProgramsRunUnchanged) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 8192);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);
    f.li(t0, 0xCAFE);
    f.sd(t0, 0, s0);
    f.ld(a0, 0, s0);
  });
  const auto run = testutil::run_guest(prog, sv48_machine());
  EXPECT_TRUE(run.outcome.completed);
  EXPECT_EQ(run.exit_code, 0xCAFE);
}

TEST(Sv48, PkeyEnforcementIdenticalToSv39) {
  auto build = [] {
    return make_main_program([](Program&, Function& f) {
      f.li(a0, 0);
      f.li(a1, 4096);
      f.li(a2, 3);
      rt::syscall(f, os::sys::kMmap);
      f.mv(s0, a0);
      f.li(a0, 0);
      f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
      rt::syscall(f, os::sys::kPkeyAlloc);
      f.mv(s1, a0);
      f.mv(a0, s0);
      f.li(a1, 4096);
      f.li(a2, 3);
      f.mv(a3, s1);
      rt::syscall(f, os::sys::kPkeyMprotect);
      f.ld(t0, 0, s0);  // read fine
      f.sd(t0, 0, s0);  // pkey fault
      f.li(a0, 0);
    });
  };
  const auto sv48 = testutil::run_guest(build(), sv48_machine());
  ASSERT_EQ(sv48.faults.size(), 1u);
  EXPECT_EQ(sv48.faults[0].cause, core::TrapCause::kStorePageFault);
  EXPECT_TRUE(sv48.faults[0].pkey_fault);
  EXPECT_EQ(sv48.faults[0].pkey, 1u);
  // Identical observable behaviour under Sv39.
  const auto sv39 = testutil::run_guest(build());
  ASSERT_EQ(sv39.faults.size(), 1u);
  EXPECT_EQ(sv39.faults[0].pkey, sv48.faults[0].pkey);
}

TEST(Sv48, SealingWorksOnFourLevelTables) {
  auto prog = make_main_program([](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kMmap);
    f.mv(s0, a0);
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s1, a0);
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.li(a2, 3);
    f.mv(a3, s1);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.mv(a0, s1);
    f.li(a1, 1);
    f.li(a2, 1);
    rt::syscall(f, os::sys::kPkeySeal);
    // Re-keying must fail with EPERM.
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(a3, a0);
    f.mv(a0, s0);
    f.li(a1, 4096);
    f.li(a2, 3);
    rt::syscall(f, os::sys::kPkeyMprotect);
    f.neg(a0, a0);
  });
  EXPECT_EQ(testutil::run_guest(prog, sv48_machine()).exit_code,
            -os::err::kPerm);
}

TEST(Sv48, WalkCostsOneExtraAccess) {
  // The 4-level walk charges one more PTW memory access per TLB miss —
  // visible as slightly higher cycle counts on an identical program.
  auto build = [] {
    return make_main_program([](Program&, Function& f) { f.li(a0, 0); });
  };
  const auto sv39 = testutil::run_guest(build());
  const auto sv48 = testutil::run_guest(build(), sv48_machine());
  EXPECT_EQ(sv39.instructions, sv48.instructions);
  EXPECT_GT(sv48.cycles, sv39.cycles);
}

TEST(Sv48, SfenceVmaWithAddressFlushesTheFourLevelVpn) {
  // sfence.vma rs1 must invalidate the entry keyed by the Sv48 VPN, which
  // includes VA bits 47:39; an Sv39-width VPN would miss it and leave a
  // stale translation behind.
  mem::PhysMem mem(16 << 20);
  core::Hart hart(mem);
  constexpr u64 kRoot = 1;
  u64 next_table = 2;
  auto map = [&](u64 vaddr, u64 ppn, u64 flags) {
    u64 table = kRoot;
    for (int level = 3; level >= 1; --level) {
      const u64 slot =
          (table << mem::kPageShift) +
          mem::svxx::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
      u64 entry = mem.read_u64(slot);
      if (!mem::pte::valid(entry)) {
        entry = mem::pte::make(next_table++, mem::pte::kV);
        mem.write_u64(slot, entry);
      }
      table = mem::pte::ppn_of(entry);
    }
    mem.write_u64(
        (table << mem::kPageShift) + mem::svxx::vpn_slice(vaddr, 0) * 8,
        mem::pte::make(ppn, flags));
  };
  constexpr u64 kCodeVa = 0x10000, kCodePpn = 0x80;
  constexpr u64 kDataVa = (u64{5} << 39) | 0x1234'5000;
  constexpr u64 kFrameA = 0x90, kFrameB = 0x91;
  constexpr u64 kKernelPc = 0x70000;  // S-mode runs untranslated
  constexpr u64 kUserRw = mem::pte::kV | mem::pte::kR | mem::pte::kW |
                          mem::pte::kU | mem::pte::kA | mem::pte::kD;
  map(kCodeVa, kCodePpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU);
  map(kDataVa, kFrameA, kUserRw);
  mem.write_u64(kFrameA << mem::kPageShift, 5);
  mem.write_u64(kFrameB << mem::kPageShift, 6);
  const isa::Inst ld{.op = isa::Op::kLd, .rd = a2, .rs1 = a1};
  mem.write_u32(kCodePpn << mem::kPageShift, isa::encode(ld));
  mem.write_u32((kCodePpn << mem::kPageShift) + 4, isa::encode(ld));
  mem.write_u32(kKernelPc,
                isa::encode({.op = isa::Op::kSfenceVma, .rs1 = a1}));

  hart.csrs().satp = core::csr::kSatpModeSv48 | kRoot;
  hart.set_reg(a1, kDataVa);
  hart.set_priv(core::Priv::kUser);
  hart.set_pc(kCodeVa);
  ASSERT_EQ(hart.step().kind, core::StepKind::kOk);
  EXPECT_EQ(hart.reg(a2), 5u);

  map(kDataVa, kFrameB, kUserRw);
  hart.set_priv(core::Priv::kSupervisor);
  hart.set_pc(kKernelPc);
  ASSERT_EQ(hart.step().kind, core::StepKind::kOk);
  EXPECT_FALSE(hart.dtlb()
                   .peek(mem::svxx::vpn_of(kDataVa, mem::sv48::kLevels))
                   .has_value());

  hart.set_priv(core::Priv::kUser);
  hart.set_pc(kCodeVa + 4);
  ASSERT_EQ(hart.step().kind, core::StepKind::kOk);
  EXPECT_EQ(hart.reg(a2), 6u);
}

}  // namespace
}  // namespace sealpk
