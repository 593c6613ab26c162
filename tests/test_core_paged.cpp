// Paged-mode hart tests: the Figure-2 effective-permission control logic
// (PTE perms ∩ pkey perms), the spkinfo fault augmentation, and TLB/pkey
// interactions.
#include <gtest/gtest.h>

#include <tuple>

#include "core/hart.h"
#include "guest_test_util.h"
#include "isa/program.h"
#include "snapshot/snapshot.h"

namespace sealpk::core {
namespace {

using isa::Inst;
using isa::Op;

class PagedFixture : public ::testing::Test {
 protected:
  static constexpr u64 kCodeVa = 0x10000;
  static constexpr u64 kDataVa = 0x40000000;
  static constexpr u64 kCodePpn = 0x80;
  static constexpr u64 kDataPpn = 0x90;

  explicit PagedFixture(const HartConfig& config = {})
      : mem_(16 << 20), hart_(mem_, config) {
    hart_.csrs().satp = csr::kSatpModeSv39 | root_;
    hart_.set_priv(Priv::kUser);
    hart_.set_pc(kCodeVa);
    map(kCodeVa, kCodePpn,
        mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU);
  }

  void map(u64 vaddr, u64 ppn, u64 flags, u32 pkey = 0) {
    u64 table = root_;
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
    const u64 slot = (table << mem::kPageShift) +
                     mem::sv39::vpn_slice(vaddr, 0) * 8;
    const unsigned pkey_bits =
        hart_.config().flavor == IsaFlavor::kSealPk
            ? mem::pte::kSealPkPkeyBits
            : mem::pte::kMpkPkeyBits;
    mem_.write_u64(slot, mem::pte::make(ppn, flags, pkey, pkey_bits));
  }

  void place(const std::vector<Inst>& insts) {
    for (size_t i = 0; i < insts.size(); ++i) {
      mem_.write_u32((kCodePpn << mem::kPageShift) + 4 * i,
                     isa::encode(insts[i]));
    }
    hart_.set_pc(kCodeVa);
  }

  mem::PhysMem mem_;
  Hart hart_;
  u64 root_ = 1;
  u64 next_table_ = 2;
};

// ---------------------------------------------------------------------------
// The effective-permission matrix (Figure 2), parameterized:
//   (PTE writable?, pkey 2-bit perm, access-is-store?)
// ---------------------------------------------------------------------------

using PermCase = std::tuple<bool, unsigned, bool>;

class EffectivePermTest
    : public PagedFixture,
      public ::testing::WithParamInterface<PermCase> {
 public:
  EffectivePermTest() : PagedFixture() {}
};

TEST_P(EffectivePermTest, IntersectionOfPteAndPkey) {
  const auto [pte_writable, pkey_perm, is_store] = GetParam();
  constexpr u32 kPkey = 0x3C1;  // Figure 2's example key
  u64 flags = mem::pte::kV | mem::pte::kR | mem::pte::kU;
  if (pte_writable) flags |= mem::pte::kW;
  map(kDataVa, kDataPpn, flags, kPkey);
  hart_.pkr().set_perm(kPkey, static_cast<u8>(pkey_perm));

  hart_.set_reg(isa::a0, kDataVa);
  place({is_store
             ? Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}
             : Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});

  const bool pte_ok = is_store ? pte_writable : true;
  const bool pkey_denies =
      is_store ? (pkey_perm & 0b01) != 0 : (pkey_perm & 0b10) != 0;
  const bool allowed = pte_ok && !pkey_denies;

  const StepResult r = hart_.step();
  if (allowed) {
    EXPECT_EQ(r.kind, StepKind::kOk);
  } else {
    ASSERT_EQ(r.kind, StepKind::kTrap);
    EXPECT_EQ(r.cause, is_store ? TrapCause::kStorePageFault
                                : TrapCause::kLoadPageFault);
    EXPECT_EQ(hart_.csrs().stval, kDataVa);
    // spkinfo flags the fault as pkey-caused exactly when the PTE alone
    // would have allowed it.
    const bool expect_pkey_fault = pte_ok && pkey_denies;
    EXPECT_EQ(hart_.csrs().spkinfo >> 63, expect_pkey_fault ? 1u : 0u);
    if (expect_pkey_fault) {
      EXPECT_EQ(hart_.csrs().spkinfo & 0x3FF, kPkey);
      EXPECT_EQ(hart_.stats().pkey_denials, 1u);
    }
  }
}

std::string perm_case_name(const ::testing::TestParamInfo<PermCase>& info) {
  static const char* const kPerms[] = {"PkeyRW", "PkeyRO", "PkeyWO",
                                       "PkeyNone"};
  std::string name = std::get<0>(info.param) ? "PteRW_" : "PteRO_";
  name += kPerms[std::get<1>(info.param)];
  name += std::get<2>(info.param) ? "_Store" : "_Load";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Figure2Matrix, EffectivePermTest,
    ::testing::Combine(::testing::Bool(),           // PTE writable
                       ::testing::Range(0u, 4u),    // pkey 2-bit perm
                       ::testing::Bool()),          // store?
    perm_case_name);

// ---------------------------------------------------------------------------
// Individual paged-mode behaviours.
// ---------------------------------------------------------------------------

TEST_F(PagedFixture, Figure2WorkedExample) {
  // "RW perm:11, pkey perm:01 -> effective:10": write to page #87 denied.
  constexpr u32 kPkey = 0b1111000001;
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kPkey);
  hart_.pkr().set_perm(kPkey, 0b01);
  hart_.set_reg(isa::a0, kDataVa);
  // Read succeeds...
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  // ...write faults.
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kStorePageFault);
}

TEST_F(PagedFixture, WriteOnlyDomain) {
  // §III-A: pkey (RD=1, WD=0) over an RW page yields a write-only page —
  // impossible through RISC-V PTE permissions alone.
  constexpr u32 kPkey = 12;
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kPkey);
  hart_.pkr().set_perm(kPkey, hw::kPermWriteOnly);
  hart_.set_reg(isa::a0, kDataVa);
  hart_.set_reg(isa::a1, 0x77);
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(mem_.read_u64(kDataPpn << mem::kPageShift), 0x77u);
  place({Inst{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
}

TEST_F(PagedFixture, FetchIgnoresPkey) {
  // The ITLB carries no pkey: code in a no-access domain still executes.
  constexpr u32 kPkey = 33;
  map(kCodeVa + mem::kPageSize, kCodePpn + 1,
      mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU, kPkey);
  hart_.pkr().set_perm(kPkey, hw::kPermNone);
  mem_.write_u32(((kCodePpn + 1) << mem::kPageShift),
                 isa::encode(Inst{.op = Op::kAddi,
                                  .rd = isa::a0,
                                  .rs1 = 0,
                                  .imm = 11}));
  hart_.set_pc(kCodeVa + mem::kPageSize);
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a0), 11u);
}

TEST_F(PagedFixture, NonUserPageFaultsFromUserMode) {
  map(kDataVa, kDataPpn, mem::pte::kV | mem::pte::kR);  // no U bit
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
  EXPECT_EQ(hart_.csrs().spkinfo, 0u);  // not a pkey fault
}

TEST_F(PagedFixture, UnmappedAddressFaults) {
  hart_.set_reg(isa::a0, 0x7000'0000);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
}

TEST_F(PagedFixture, ExecFromNonExecutableFaults) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kU);
  hart_.set_pc(kDataVa);
  EXPECT_EQ(hart_.step().cause, TrapCause::kInstPageFault);
}

TEST_F(PagedFixture, TlbCachesPkeyUntilFlush) {
  constexpr u32 kOld = 5, kNew = 6;
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kOld);
  hart_.pkr().set_perm(kNew, hw::kPermNone);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);  // caches pkey=5

  // Re-key the page in the PTE; without a flush the stale DTLB entry still
  // grants access...
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, kNew);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);

  // ...and after the kernel's sfence.vma the new key (no-access) applies.
  hart_.flush_tlbs();
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
  EXPECT_EQ(hart_.csrs().spkinfo & 0x3FF, kNew);
}

TEST_F(PagedFixture, StoreToCleanPageSetsDirtyBit) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU);
  hart_.set_reg(isa::a0, kDataVa);
  // Load first (fills the TLB with a clean entry).
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  // The store must re-walk and set D.
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  const auto wr = mem::walk(static_cast<const mem::PhysMem&>(mem_), root_,
                            kDataVa, mem::Access::kLoad);
  ASSERT_TRUE(wr.ok);
  EXPECT_TRUE((wr.pte & mem::pte::kD) != 0);
}

TEST_F(PagedFixture, TlbMissChargesWalkCycles) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kU);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0},
         Inst{.op = Op::kLd, .rd = isa::a2, .rs1 = isa::a0, .imm = 8}});
  const u64 c0 = hart_.cycles();
  hart_.step();  // miss: 3-level walk
  const u64 miss_cost = hart_.cycles() - c0;
  const u64 c1 = hart_.cycles();
  hart_.step();  // hit
  const u64 hit_cost = hart_.cycles() - c1;
  EXPECT_GE(miss_cost, hit_cost + hart_.timing().ptw_cost(3));
}

TEST_F(PagedFixture, TranslateDebugMatchesWalk) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kU);
  const auto pa = hart_.translate_debug(kDataVa + 0x123, mem::Access::kLoad);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa, (kDataPpn << mem::kPageShift) + 0x123);
  EXPECT_FALSE(
      hart_.translate_debug(0x5000'0000, mem::Access::kLoad).has_value());
}

// MPK-flavour paged behaviour: 4-bit keys and PKRU checks.
class MpkPagedFixture : public PagedFixture {
 protected:
  static HartConfig mpk_config() {
    HartConfig cfg;
    cfg.flavor = IsaFlavor::kIntelMpkCompat;
    return cfg;
  }
  MpkPagedFixture() : PagedFixture(mpk_config()) {}
};

TEST_F(MpkPagedFixture, PkruAccessDisableBlocksLoads) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, 0xA);
  hart_.pkru().set_perm(0xA, /*access_disable=*/true, false);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kLoadPageFault);
}

TEST_F(MpkPagedFixture, PkruWriteDisableAllowsLoads) {
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, 0xA);
  hart_.pkru().set_perm(0xA, false, /*write_disable=*/true);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(hart_.step().kind, StepKind::kOk);
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kStorePageFault);
}

TEST_F(MpkPagedFixture, NoWriteOnlyDomainsInMpk) {
  // Intel's (AD, WD) encoding cannot express write-only: disabling access
  // kills writes too. This is the §III-A contrast.
  map(kDataVa, kDataPpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU, 0x3);
  hart_.pkru().set_perm(0x3, /*access_disable=*/true, false);
  hart_.set_reg(isa::a0, kDataVa);
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(hart_.step().cause, TrapCause::kStorePageFault);
}

// ---------------------------------------------------------------------------
// Decoded-instruction cache under translation: the cache is keyed by
// physical address, so aliases of one frame share code writes, and a
// snapshot restore that brings different text runs that text.
// ---------------------------------------------------------------------------

TEST_F(PagedFixture, AliasedCodePagesSeeEachOthersWrites) {
  constexpr u64 kAliasVa = kCodeVa + 0x10000;
  const u64 frame = kCodePpn << mem::kPageShift;
  map(kAliasVa, kCodePpn,
      mem::pte::kV | mem::pte::kR | mem::pte::kX | mem::pte::kU);
  map(kDataVa, kCodePpn,  // a writable view of the same frame
      mem::pte::kV | mem::pte::kR | mem::pte::kW | mem::pte::kU);
  const Inst before{.op = Op::kAddi, .rd = isa::a3, .rs1 = 0, .imm = 1};
  const Inst after{.op = Op::kAddi, .rd = isa::a3, .rs1 = 0, .imm = 2};
  mem_.write_u32(frame, isa::encode(before));
  mem_.write_u32(frame + 4, isa::encode(Inst{
                                .op = Op::kSw, .rs1 = isa::a0,
                                .rs2 = isa::a1, .imm = 0}));
  hart_.set_reg(isa::a0, kDataVa);
  hart_.set_reg(isa::a1, isa::encode(after));

  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a3), 1u);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);  // store through the data VA
  hart_.set_pc(kAliasVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a3), 2u);
  hart_.set_reg(isa::a3, 0);
  hart_.set_pc(kCodeVa);
  ASSERT_EQ(hart_.step().kind, StepKind::kOk);
  EXPECT_EQ(hart_.reg(isa::a3), 2u);
}

// main returns 100 * step; the programs differ only in one immediate, so
// their text has the same layout and the differing word sits at the same
// physical address in both machines.
isa::Program make_counting_program(i64 step) {
  return testutil::make_main_program([step](isa::Program&, isa::Function& f) {
    const isa::Label loop = f.new_label();
    f.li(isa::t0, 100);
    f.li(isa::a0, 0);
    f.bind(loop);
    f.addi(isa::a0, isa::a0, step);
    f.addi(isa::t0, isa::t0, -1);
    f.bnez(isa::t0, loop);
  });
}

TEST(DecodedCacheRestore, RestoredTextRunsNotTheCachedText) {
  sim::Machine warm{sim::MachineConfig{}};
  const int pid = warm.load(make_counting_program(11).link());
  warm.run(150);  // mid-loop: the step-11 addi is in the decoded cache

  sim::Machine other{sim::MachineConfig{}};
  ASSERT_EQ(other.load(make_counting_program(22).link()), pid);
  other.run(150);
  const std::vector<u8> mid = snapshot::save(other);
  ASSERT_TRUE(other.run(1'000'000).completed);

  snapshot::restore(warm, mid);
  ASSERT_TRUE(warm.run(1'000'000).completed);
  EXPECT_EQ(warm.exit_code(pid), 2200);
  EXPECT_EQ(other.exit_code(pid), 2200);
  EXPECT_EQ(snapshot::save(warm), snapshot::save(other));
}

}  // namespace
}  // namespace sealpk::core
