// Page fast paths (DESIGN.md §17): the hart's one-entry code-page and
// data-page caches must be invisible. Each test changes one term of the
// cache key (satp, privilege, a TLB mutator, the PhysMem generation, the
// PKR/PKRU state, a clean page's D bit) between two accesses to the same
// page and checks the hart behaves exactly as a full translation would.
// The differential test runs whole guests with and without the caches'
// history: a snapshot restore into a fresh machine starts with both empty.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/hart.h"
#include "guest_test_util.h"
#include "isa/program.h"
#include "passes/shadow_stack.h"
#include "snapshot/snapshot.h"
#include "workloads/workload.h"

namespace sealpk::core {
namespace {

using isa::Inst;
using isa::Op;

constexpr u64 kUserRwx =
    mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU;
constexpr u64 kUserRw = mem::pte::kV | mem::pte::kR | mem::pte::kW |
                        mem::pte::kU | mem::pte::kA | mem::pte::kD;

Inst addi(u8 rd, u8 rs1, i64 imm) {
  return Inst{.op = Op::kAddi, .rd = rd, .rs1 = rs1, .imm = imm};
}

// A U-mode hart over hand-built Sv39 tables with one code page.
class PageCacheFixture : public ::testing::Test {
 protected:
  static constexpr u64 kCodeVa = 0x10000;
  static constexpr u64 kDataVa = 0x40000000;
  static constexpr u64 kCodePpn = 0x80;
  static constexpr u64 kAltCodePpn = 0x81;
  static constexpr u64 kDataPpn = 0x90;
  static constexpr u64 kAltDataPpn = 0x91;

  explicit PageCacheFixture(const HartConfig& config = {})
      : mem_(16 << 20), hart_(mem_, config) {
    hart_.csrs().satp = csr::kSatpModeSv39 | root_;
    hart_.set_priv(Priv::kUser);
    map(root_, kCodeVa, kCodePpn, kUserRwx);
    hart_.set_pc(kCodeVa);
  }

  void map(u64 root, u64 vaddr, u64 ppn, u64 flags, u32 pkey = 0) {
    u64 table = root;
    for (int level = 2; level >= 1; --level) {
      const u64 slot =
          (table << mem::kPageShift) +
          mem::sv39::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
      u64 entry = mem_.read_u64(slot);
      if (!mem::pte::valid(entry)) {
        entry = mem::pte::make(next_table_++, mem::pte::kV);
        mem_.write_u64(slot, entry);
      }
      table = mem::pte::ppn_of(entry);
    }
    const unsigned pkey_bits =
        hart_.config().flavor == IsaFlavor::kSealPk
            ? mem::pte::kSealPkPkeyBits
            : mem::pte::kMpkPkeyBits;
    mem_.write_u64(leaf_slot(root, vaddr),
                   mem::pte::make(ppn, flags, pkey, pkey_bits));
  }

  u64 leaf_slot(u64 root, u64 vaddr) {
    u64 table = root;
    for (int level = 2; level >= 1; --level) {
      table = mem::pte::ppn_of(mem_.read_u64(
          (table << mem::kPageShift) +
          mem::sv39::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8));
    }
    return (table << mem::kPageShift) + mem::sv39::vpn_slice(vaddr, 0) * 8;
  }

  void put(u64 ppn, const std::vector<Inst>& insts, u64 first = 0) {
    for (size_t i = 0; i < insts.size(); ++i) {
      mem_.write_u32((ppn << mem::kPageShift) + 4 * (first + i),
                     isa::encode(insts[i]));
    }
  }

  void step_ok() { ASSERT_EQ(hart_.step().kind, StepKind::kOk); }

  mem::PhysMem mem_;
  Hart hart_;
  u64 root_ = 1;
  u64 next_table_ = 2;
};

// --- code page -------------------------------------------------------------

TEST_F(PageCacheFixture, SatpSwitchWithoutFlushFollowsTheTlb) {
  // Two address spaces map kCodeVa to different frames.
  constexpr u64 kRoot2 = 0x40;
  map(kRoot2, kCodeVa, kAltCodePpn, kUserRwx);
  put(kCodePpn, {addi(isa::a0, isa::a0, 1), addi(isa::a0, isa::a0, 2)});
  put(kAltCodePpn, {addi(isa::a0, isa::a0, 10), addi(isa::a0, isa::a0, 20)});
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 1u);

  // No sfence.vma: the ITLB is not tagged by address space, so the stale
  // translation still serves the fetch, and counts as an ITLB hit.
  hart_.csrs().satp = csr::kSatpModeSv39 | kRoot2;
  const u64 hits = hart_.itlb().stats().hits;
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 3u);
  EXPECT_EQ(hart_.itlb().stats().hits, hits + 1);

  // A bare satp in U-mode translates nothing: the fetch reads the physical
  // page equal to the virtual one, whatever the ITLB holds.
  put(kCodeVa >> mem::kPageShift, {addi(isa::a0, isa::a0, 100)}, 2);
  hart_.csrs().satp = 0;
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 103u);
  EXPECT_EQ(hart_.itlb().stats().hits, hits + 1);

  // Back on the second space after a flush, its own frame is fetched.
  hart_.csrs().satp = csr::kSatpModeSv39 | kRoot2;
  hart_.flush_tlbs();
  hart_.set_pc(kCodeVa);
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 113u);
}

TEST_F(PageCacheFixture, ItlbInsertBetweenFetchesIsSeen) {
  put(kCodePpn, {addi(isa::a0, isa::a0, 1), addi(isa::a0, isa::a0, 2)});
  put(kAltCodePpn, {addi(isa::a0, isa::a0, 10), addi(isa::a0, isa::a0, 20)});
  step_ok();
  mem::TlbEntry e = *hart_.itlb().peek(kCodeVa >> mem::kPageShift);
  e.ppn = kAltCodePpn;
  hart_.itlb().insert(e);
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 21u);
}

TEST_F(PageCacheFixture, ItlbFlushAndFlushVpnBetweenFetchesAreSeen) {
  put(kCodePpn, {addi(isa::a0, isa::a0, 1), addi(isa::a0, isa::a0, 2),
                 addi(isa::a0, isa::a0, 4)});
  put(kAltCodePpn, {addi(isa::a0, isa::a0, 10), addi(isa::a0, isa::a0, 20),
                    addi(isa::a0, isa::a0, 40)});
  step_ok();
  // Repoint the PTE; only a TLB invalidation makes the walk see it.
  map(root_, kCodeVa, kAltCodePpn, kUserRwx);
  hart_.itlb().flush_vpn(kCodeVa >> mem::kPageShift);
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 21u);
  map(root_, kCodeVa, kCodePpn, kUserRwx);
  hart_.itlb().flush();
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 25u);
  EXPECT_EQ(hart_.itlb().stats().misses, 3u);
}

TEST_F(PageCacheFixture, CorruptSlotClearingXFaultsTheNextFetch) {
  put(kCodePpn, {addi(isa::a0, isa::a0, 1), addi(isa::a0, isa::a0, 2)});
  step_ok();
  ASSERT_TRUE(hart_.itlb().corrupt_slot(0, 0, /*perm_xor=*/4, false));
  const StepResult r = hart_.step();
  ASSERT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.cause, TrapCause::kInstPageFault);
  EXPECT_EQ(hart_.csrs().stval, kCodeVa + 4);
  // A retry faults again: the failed fetch left nothing cached.
  hart_.set_priv(Priv::kUser);
  hart_.set_pc(kCodeVa + 4);
  EXPECT_EQ(hart_.step().cause, TrapCause::kInstPageFault);
}

TEST_F(PageCacheFixture, ItlbLoadStateBetweenFetchesIsSeen) {
  put(kCodePpn, {addi(isa::a0, isa::a0, 1), addi(isa::a0, isa::a0, 2)});
  put(kAltCodePpn, {addi(isa::a0, isa::a0, 10), addi(isa::a0, isa::a0, 20)});
  step_ok();
  mem::Tlb other(hart_.itlb().capacity());
  mem::TlbEntry e = *hart_.itlb().peek(kCodeVa >> mem::kPageShift);
  e.ppn = kAltCodePpn;
  other.insert(e);
  ByteWriter w;
  other.save_state(w);
  ByteReader r(w.buffer());
  hart_.itlb().load_state(r);
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 21u);
}

TEST_F(PageCacheFixture, PhysMemLoadStateThenFetchReadsTheNewText) {
  put(kCodePpn, {addi(isa::a0, isa::a0, 1), addi(isa::a0, isa::a0, 100)});
  ByteWriter w;
  mem_.save_state(w);  // this image has +100 as its second instruction
  put(kCodePpn, {addi(isa::a0, isa::a0, 2)}, 1);
  step_ok();
  ByteReader r(w.buffer());
  mem_.load_state(r);  // frees the page the fetch just read
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 101u);
}

TEST_F(PageCacheFixture, SelfModifyingStoreIntoTheCurrentCodePage) {
  // The code page is also mapped writable at kDataVa.
  map(root_, kDataVa, kCodePpn, kUserRw);
  hart_.set_reg(isa::a1, kDataVa);
  hart_.set_reg(isa::t0, isa::encode(addi(isa::a0, isa::a0, 7)));
  put(kCodePpn, {Inst{.op = Op::kSw, .rs1 = isa::a1, .rs2 = isa::t0,
                      .imm = 12},
                 addi(isa::a0, isa::a0, 1), addi(isa::a0, isa::a0, 1),
                 addi(isa::a0, isa::a0, 1)});
  // Warm the decoded-instruction cache for offset 12 with the old word.
  hart_.set_pc(kCodeVa + 12);
  step_ok();
  hart_.set_pc(kCodeVa);
  for (int i = 0; i < 4; ++i) step_ok();
  EXPECT_EQ(hart_.reg(isa::a0), 1u + 2u + 7u);
}

TEST_F(PageCacheFixture, TrapToSupervisorLeavesTheCachesBehind) {
  // Supervisor mode translates nothing; its PC and data address share the
  // user pages' page numbers but must reach physical memory.
  constexpr u64 kLowDataVa = 0x200000;  // inside physical memory
  map(root_, kLowDataVa, kDataPpn, kUserRw);
  constexpr u64 kHandler = kCodeVa + 0x800;  // same page number as kCodeVa
  hart_.csrs().stvec = kHandler;
  mem_.write_u64(kDataPpn << mem::kPageShift, 5);
  mem_.write_u64(kLowDataVa, 9);  // the physical page at the data VA
  hart_.set_reg(isa::a1, kLowDataVa);
  put(kCodePpn, {Inst{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a1},
                 Inst{.op = Op::kEcall}});
  put(kCodeVa >> mem::kPageShift,
      {Inst{.op = Op::kLd, .rd = isa::a3, .rs1 = isa::a1}}, 0x800 / 4);
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a2), 5u);
  EXPECT_EQ(hart_.step().cause, TrapCause::kEcallFromU);
  EXPECT_EQ(hart_.priv(), Priv::kSupervisor);
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a3), 9u);
}

// --- data page -------------------------------------------------------------

TEST_F(PageCacheFixture, DtlbInsertAndFlushBetweenLoadsAreSeen) {
  map(root_, kDataVa, kDataPpn, kUserRw);
  mem_.write_u64(kDataPpn << mem::kPageShift, 5);
  mem_.write_u64(kAltDataPpn << mem::kPageShift, 6);
  hart_.set_reg(isa::a1, kDataVa);
  const Inst ld{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a1};
  put(kCodePpn, {ld, ld, ld});
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a2), 5u);
  mem::TlbEntry e = *hart_.dtlb().peek(kDataVa >> mem::kPageShift);
  e.ppn = kAltDataPpn;
  hart_.dtlb().insert(e);
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a2), 6u);
  hart_.dtlb().flush();
  step_ok();
  EXPECT_EQ(hart_.reg(isa::a2), 5u);
}

TEST_F(PageCacheFixture, CorruptedPkeyInTheDtlbDeniesTheNextLoad) {
  map(root_, kDataVa, kDataPpn, kUserRw, /*pkey=*/1);
  mem_.write_u64(kDataPpn << mem::kPageShift, 5);  // cacheable frame
  hart_.pkr().set_perm(1 ^ 4, hw::kPermNone);
  hart_.set_reg(isa::a1, kDataVa);
  const Inst ld{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a1};
  put(kCodePpn, {ld, ld});
  step_ok();
  size_t slot = 0;
  while (hart_.dtlb().peek_slot(slot) == nullptr) ++slot;
  ASSERT_TRUE(hart_.dtlb().corrupt_slot(slot, /*pkey_xor=*/4, 0, false));
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
  EXPECT_EQ(hart_.csrs().spkinfo, (u64{1} << 63) | (1 ^ 4));
  EXPECT_EQ(hart_.stats().pkey_denials, 1u);
}

TEST_F(PageCacheFixture, WrpkrRevokingTheCachedKeyFaultsTheNextLoad) {
  constexpr u32 kPkey = 7;
  map(root_, kDataVa, kDataPpn, kUserRw, kPkey);
  mem_.write_u64(kDataPpn << mem::kPageShift, 5);  // cacheable frame
  hart_.set_reg(isa::a1, kDataVa);
  hart_.set_reg(isa::t0, kPkey);
  // The PKR row value that makes key 7 no-access (both bits set).
  hart_.set_reg(isa::t1, u64{hw::kPermNone} << (2 * (kPkey % 32)));
  const Inst ld{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a1};
  put(kCodePpn, {ld, ld, Inst{.op = Op::kWrpkr, .rs1 = isa::t0,
                              .rs2 = isa::t1},
                 ld});
  step_ok();
  step_ok();
  const u64 lookups = hart_.pkr().stats().perm_lookups;
  EXPECT_EQ(lookups, 2u);  // one per access, hit or miss
  step_ok();
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
  EXPECT_EQ(hart_.csrs().spkinfo, (u64{1} << 63) | kPkey);
  EXPECT_EQ(hart_.pkr().stats().perm_lookups, lookups + 1);
}

TEST_F(PageCacheFixture, StoreToACleanPageTakesTheDirtyWalk) {
  // Mapped without D: the first store must walk to set it, and the counts
  // must be those of an uncached hart.
  map(root_, kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU);
  mem_.write_u64(kDataPpn << mem::kPageShift, 5);
  hart_.set_reg(isa::a1, kDataVa);
  const Inst ld{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a1};
  const Inst sd{.op = Op::kSd, .rs1 = isa::a1, .rs2 = isa::a2, .imm = 8};
  put(kCodePpn, {ld, ld, sd, sd, ld});
  for (int i = 0; i < 5; ++i) step_ok();
  const u64 pte = mem_.read_u64(leaf_slot(root_, kDataVa));
  EXPECT_NE(pte & mem::pte::kD, 0u);
  EXPECT_EQ(mem_.read_u64((kDataPpn << mem::kPageShift) + 8), 5u);
  EXPECT_EQ(hart_.dtlb().stats().misses, 1u);
  EXPECT_EQ(hart_.dtlb().stats().hits, 4u);
  const TimingModel& t = hart_.timing();
  // Five instructions, five memory accesses, one code walk, two data walks.
  EXPECT_EQ(hart_.cycles(), 5 * (t.base_cycles + t.mem_extra_cycles) +
                                3 * t.ptw_cost(mem::sv39::kLevels));
  EXPECT_EQ(hart_.itlb().stats().hits, 4u);
  EXPECT_EQ(hart_.itlb().stats().misses, 1u);
}

class MpkPageCacheFixture : public PageCacheFixture {
 protected:
  static HartConfig mpk_config() {
    HartConfig cfg;
    cfg.flavor = IsaFlavor::kIntelMpkCompat;
    return cfg;
  }
  MpkPageCacheFixture() : PageCacheFixture(mpk_config()) {}
};

TEST_F(MpkPageCacheFixture, WrpkruRevokingTheCachedKeyFaultsTheNextStore) {
  constexpr u32 kPkey = 3;
  map(root_, kDataVa, kDataPpn, kUserRw, kPkey);
  mem_.write_u64(kDataPpn << mem::kPageShift, 5);  // cacheable frame
  hart_.set_reg(isa::a1, kDataVa);
  hart_.set_reg(isa::t0, u64{2} << (2 * kPkey));  // write-disable key 3
  const Inst sd{.op = Op::kSd, .rs1 = isa::a1, .rs2 = isa::a1};
  put(kCodePpn, {sd, Inst{.op = Op::kWrpkru, .rs1 = isa::t0}, sd});
  step_ok();
  step_ok();
  EXPECT_EQ(hart_.step().cause, TrapCause::kStorePageFault);
  EXPECT_EQ(hart_.csrs().spkinfo, (u64{1} << 63) | kPkey);
}

// --- whole guests: caches warm vs. emptied by restores ---------------------

struct Counters {
  mem::TlbStats itlb, dtlb;
  hw::PkrStats pkr;
};

Counters counters_of(sim::Machine& m) {
  return {m.hart().itlb().stats(), m.hart().dtlb().stats(),
          m.hart().pkr().stats()};
}

void expect_same_counters(const Counters& a, const Counters& b) {
  EXPECT_EQ(a.itlb.hits, b.itlb.hits);
  EXPECT_EQ(a.itlb.misses, b.itlb.misses);
  EXPECT_EQ(a.itlb.flushes, b.itlb.flushes);
  EXPECT_EQ(a.dtlb.hits, b.dtlb.hits);
  EXPECT_EQ(a.dtlb.misses, b.dtlb.misses);
  EXPECT_EQ(a.dtlb.flushes, b.dtlb.flushes);
  EXPECT_EQ(a.pkr.perm_lookups, b.pkr.perm_lookups);
  EXPECT_EQ(a.pkr.row_reads, b.pkr.row_reads);
  EXPECT_EQ(a.pkr.row_writes, b.pkr.row_writes);
}

// For each k, runs a prefix of `image` straight through, then again with a
// save -> restore into a fresh Machine every k instructions. The prefix is
// kPrefixPerRestore * k instructions, capped at kMaxPrefix.
constexpr u64 kPrefixPerRestore = 250;
constexpr u64 kMaxPrefix = 8000;

void expect_restores_invisible(const isa::Image& image,
                               const sim::MachineConfig& config) {
  for (u64 k : {u64{1}, u64{7}, u64{64}}) {
    SCOPED_TRACE(k);
    const u64 prefix = std::min(kPrefixPerRestore * k, kMaxPrefix);
    sim::Machine straight(config);
    ASSERT_NE(straight.load(image), sim::Machine::kLoadRefused);
    straight.run(prefix);
    const std::vector<u8> want = snapshot::save(straight);
    const Counters want_counters = counters_of(straight);

    auto m = std::make_unique<sim::Machine>(config);
    ASSERT_NE(m->load(image), sim::Machine::kLoadRefused);
    u64 done = 0;
    while (done < prefix) {
      const sim::RunOutcome out = m->run(std::min(k, prefix - done));
      done += out.instructions;
      if (out.completed) break;
      const std::vector<u8> blob = snapshot::save(*m);
      m = std::make_unique<sim::Machine>(snapshot::config_from(blob));
      snapshot::restore(*m, blob);
    }
    const std::vector<u8> got = snapshot::save(*m);
    EXPECT_EQ(got, want) << (snapshot::diff(want, got).empty()
                                 ? std::string("(no section differs)")
                                 : snapshot::diff(want, got).front());
    expect_same_counters(counters_of(*m), want_counters);
  }
}

TEST(PageCacheDifferential, Fig5WorkloadsAtTestScale) {
  // Each workload under one of the Figure-5 instrumentation variants, so
  // the sealed WRPKR and mprotect shadow stacks are covered too.
  constexpr passes::ShadowStackKind kKinds[] = {
      passes::ShadowStackKind::kNone,      passes::ShadowStackKind::kInline,
      passes::ShadowStackKind::kFunc,      passes::ShadowStackKind::kSealPkWr,
      passes::ShadowStackKind::kSealPkRdWr, passes::ShadowStackKind::kMprotect,
  };
  size_t i = 0;
  for (const wl::Workload& w : wl::all_workloads()) {
    passes::ShadowStackOptions ss;
    ss.kind = kKinds[i % std::size(kKinds)];
    ss.perm_seal = ss.kind == passes::ShadowStackKind::kSealPkRdWr;
    ++i;
    SCOPED_TRACE(std::string(w.name) + "/" +
                 passes::shadow_stack_kind_name(ss.kind));
    isa::Program prog = w.build(w.test_scale);
    passes::apply_shadow_stack(prog, ss);
    expect_restores_invisible(prog.link(), sim::MachineConfig{});
  }
}

// A guest that allocates a keyed page, hammers it, and flips the key's
// rights with the flavour's own register write between accesses.
isa::Program keyed_page_guest(bool mpk) {
  using namespace isa;
  return testutil::make_main_program([mpk](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 8192);
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
    const Label loop = f.new_label();
    f.addi(s5, s0, 2047);
    f.addi(s5, s5, 2047);
    f.addi(s5, s5, 2);  // s0 + 4096: the second, unkeyed page
    f.li(s2, 0);
    f.li(s3, 200);
    f.bind(loop);
    f.sd(s2, 0, s0);
    f.ld(t0, 0, s0);
    f.sd(t0, 0, s5);
    f.add(s4, s4, t0);
    // Rewrite the key's rights to read-write (a no-op change that still
    // goes through the permission register on every iteration).
    if (mpk) {
      f.li(t1, 0);
      f.wrpkru(t1);
    } else {
      f.mv(t1, s1);
      f.li(t2, 0);
      f.wrpkr(t1, t2);
    }
    f.addi(s2, s2, 1);
    f.blt(s2, s3, loop);
    f.mv(a0, s4);
    rt::syscall(f, os::sys::kReport);
    f.li(a0, 0);
  });
}

TEST(PageCacheDifferential, MpkFlavourGuest) {
  sim::MachineConfig config;
  config.hart.flavor = IsaFlavor::kIntelMpkCompat;
  expect_restores_invisible(keyed_page_guest(true).link(), config);
}

TEST(PageCacheDifferential, Sv48Guest) {
  sim::MachineConfig config;
  config.kernel.sv48 = true;
  expect_restores_invisible(keyed_page_guest(false).link(), config);
}

}  // namespace
}  // namespace sealpk::core
