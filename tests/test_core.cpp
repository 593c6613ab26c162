#include <gtest/gtest.h>

#include "core/hart.h"
#include "isa/program.h"

namespace sealpk::core {
namespace {

using isa::Inst;
using isa::Op;

// ---------------------------------------------------------------------------
// Bare-mode harness: user mode without translation (satp = bare), code
// placed directly in physical memory.
// ---------------------------------------------------------------------------

class BareHart : public ::testing::Test {
 protected:
  static constexpr u64 kCodeBase = 0x1000;

  explicit BareHart(const HartConfig& config = {})
      : mem_(1 << 20), hart_(mem_, config) {
    hart_.set_priv(Priv::kUser);
    hart_.set_pc(kCodeBase);
  }

  void place(const std::vector<Inst>& insts, u64 addr = kCodeBase) {
    for (size_t i = 0; i < insts.size(); ++i) {
      mem_.write_u32(addr + 4 * i, isa::encode(insts[i]));
    }
  }

  // Steps n instructions, asserting none traps.
  void run_ok(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const StepResult r = hart_.step();
      ASSERT_EQ(r.kind, StepKind::kOk)
          << "trap " << trap_cause_name(r.cause) << " at step " << i
          << " pc=0x" << std::hex << hart_.csrs().sepc;
    }
  }

  StepResult step() { return hart_.step(); }

  mem::PhysMem mem_;
  Hart hart_;
};

TEST_F(BareHart, AluBasics) {
  hart_.set_reg(isa::a0, 7);
  hart_.set_reg(isa::a1, 5);
  place({
      Inst{.op = Op::kAdd, .rd = isa::a2, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kSub, .rd = isa::a3, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kXor, .rd = isa::a4, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kSltu, .rd = isa::a5, .rs1 = isa::a1, .rs2 = isa::a0},
  });
  run_ok(4);
  EXPECT_EQ(hart_.reg(isa::a2), 12u);
  EXPECT_EQ(hart_.reg(isa::a3), 2u);
  EXPECT_EQ(hart_.reg(isa::a4), 2u);
  EXPECT_EQ(hart_.reg(isa::a5), 1u);
}

TEST_F(BareHart, X0IsHardwiredZero) {
  place({Inst{.op = Op::kAddi, .rd = 0, .rs1 = 0, .imm = 55},
         Inst{.op = Op::kAdd, .rd = isa::a0, .rs1 = 0, .rs2 = 0}});
  run_ok(2);
  EXPECT_EQ(hart_.reg(0), 0u);
  EXPECT_EQ(hart_.reg(isa::a0), 0u);
}

TEST_F(BareHart, Word32OpsSignExtend) {
  hart_.set_reg(isa::a0, 0x7FFFFFFF);
  place({
      Inst{.op = Op::kAddiw, .rd = isa::a1, .rs1 = isa::a0, .imm = 1},
      Inst{.op = Op::kSlliw, .rd = isa::a2, .rs1 = isa::a0, .imm = 1},
  });
  run_ok(2);
  EXPECT_EQ(hart_.reg(isa::a1), 0xFFFFFFFF80000000ULL);
  EXPECT_EQ(hart_.reg(isa::a2), 0xFFFFFFFFFFFFFFFEULL);
}

TEST_F(BareHart, ShiftSemantics) {
  hart_.set_reg(isa::a0, 0x8000000000000000ULL);
  place({
      Inst{.op = Op::kSrli, .rd = isa::a1, .rs1 = isa::a0, .imm = 63},
      Inst{.op = Op::kSrai, .rd = isa::a2, .rs1 = isa::a0, .imm = 63},
  });
  run_ok(2);
  EXPECT_EQ(hart_.reg(isa::a1), 1u);
  EXPECT_EQ(hart_.reg(isa::a2), ~u64{0});
}

TEST_F(BareHart, MulDivEdgeCases) {
  hart_.set_reg(isa::a0, static_cast<u64>(INT64_MIN));
  hart_.set_reg(isa::a1, static_cast<u64>(-1));
  hart_.set_reg(isa::a2, 0);
  place({
      Inst{.op = Op::kDiv, .rd = isa::a3, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kRem, .rd = isa::a4, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kDiv, .rd = isa::a5, .rs1 = isa::a0, .rs2 = isa::a2},
      Inst{.op = Op::kRem, .rd = isa::a6, .rs1 = isa::a0, .rs2 = isa::a2},
      Inst{.op = Op::kDivu, .rd = isa::a7, .rs1 = isa::a0, .rs2 = isa::a2},
  });
  run_ok(5);
  EXPECT_EQ(hart_.reg(isa::a3), static_cast<u64>(INT64_MIN));  // overflow
  EXPECT_EQ(hart_.reg(isa::a4), 0u);
  EXPECT_EQ(hart_.reg(isa::a5), ~u64{0});  // div by zero -> -1
  EXPECT_EQ(hart_.reg(isa::a6), static_cast<u64>(INT64_MIN));  // rem -> rs1
  EXPECT_EQ(hart_.reg(isa::a7), ~u64{0});
}

TEST_F(BareHart, MulHighVariants) {
  hart_.set_reg(isa::a0, ~u64{0});  // -1 signed, 2^64-1 unsigned
  hart_.set_reg(isa::a1, 2);
  place({
      Inst{.op = Op::kMulh, .rd = isa::a2, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kMulhu, .rd = isa::a3, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kMulhsu, .rd = isa::a4, .rs1 = isa::a0, .rs2 = isa::a1},
  });
  run_ok(3);
  EXPECT_EQ(hart_.reg(isa::a2), ~u64{0});  // -1 * 2 -> high = -1
  EXPECT_EQ(hart_.reg(isa::a3), 1u);       // (2^64-1)*2 -> high = 1
  EXPECT_EQ(hart_.reg(isa::a4), ~u64{0});
}

TEST_F(BareHart, LoadStoreWidthsAndSignExtension) {
  hart_.set_reg(isa::a0, 0x8000);
  hart_.set_reg(isa::a1, 0xFFFFFFFF80ABCDEFULL);
  place({
      Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0},
      Inst{.op = Op::kLb, .rd = isa::a2, .rs1 = isa::a0, .imm = 1},
      Inst{.op = Op::kLbu, .rd = isa::a3, .rs1 = isa::a0, .imm = 1},
      Inst{.op = Op::kLh, .rd = isa::a4, .rs1 = isa::a0, .imm = 0},
      Inst{.op = Op::kLwu, .rd = isa::a5, .rs1 = isa::a0, .imm = 0},
      Inst{.op = Op::kLd, .rd = isa::a6, .rs1 = isa::a0, .imm = 0},
  });
  run_ok(6);
  EXPECT_EQ(hart_.reg(isa::a2), static_cast<u64>(i64{-51}));  // 0xCD
  EXPECT_EQ(hart_.reg(isa::a3), 0xCDu);
  EXPECT_EQ(hart_.reg(isa::a4), static_cast<u64>(sext(0xCDEF, 16)));
  EXPECT_EQ(hart_.reg(isa::a5), 0x80ABCDEFu);
  EXPECT_EQ(hart_.reg(isa::a6), 0xFFFFFFFF80ABCDEFULL);
}

TEST_F(BareHart, MisalignedLoadTraps) {
  hart_.set_reg(isa::a0, 0x8001);
  place({Inst{.op = Op::kLw, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  const StepResult r = step();
  EXPECT_EQ(r.kind, StepKind::kTrap);
  EXPECT_EQ(r.cause, TrapCause::kLoadAddrMisaligned);
  EXPECT_EQ(hart_.csrs().stval, 0x8001u);
  EXPECT_EQ(hart_.priv(), Priv::kSupervisor);
}

TEST_F(BareHart, MisalignedStoreTraps) {
  hart_.set_reg(isa::a0, 0x8002);
  place({Inst{.op = Op::kSd, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0}});
  EXPECT_EQ(step().cause, TrapCause::kStoreAddrMisaligned);
}

TEST_F(BareHart, OutOfRangeAccessFaults) {
  hart_.set_reg(isa::a0, 0x200000);  // beyond the 1 MiB memory
  place({Inst{.op = Op::kLd, .rd = isa::a1, .rs1 = isa::a0, .imm = 0}});
  EXPECT_EQ(step().cause, TrapCause::kLoadAccessFault);
}

TEST_F(BareHart, BranchesAndJumps) {
  hart_.set_reg(isa::a0, 1);
  place({
      Inst{.op = Op::kBne, .rs1 = isa::a0, .rs2 = 0, .imm = 8},  // skip next
      Inst{.op = Op::kAddi, .rd = isa::a1, .rs1 = 0, .imm = 99},
      Inst{.op = Op::kJal, .rd = isa::ra, .imm = 8},             // skip next
      Inst{.op = Op::kAddi, .rd = isa::a1, .rs1 = 0, .imm = 98},
      Inst{.op = Op::kAddi, .rd = isa::a2, .rs1 = 0, .imm = 1},
  });
  run_ok(3);
  EXPECT_EQ(hart_.reg(isa::a1), 0u);
  EXPECT_EQ(hart_.reg(isa::a2), 1u);
  EXPECT_EQ(hart_.reg(isa::ra), kCodeBase + 12);
}

TEST_F(BareHart, JalrClearsLowBit) {
  hart_.set_reg(isa::a0, kCodeBase + 9);  // odd target
  place({Inst{.op = Op::kJalr, .rd = isa::ra, .rs1 = isa::a0, .imm = 0},
         Inst{.op = Op::kAddi, .rd = isa::a1, .rs1 = 0, .imm = 1},
         Inst{.op = Op::kAddi, .rd = isa::a2, .rs1 = 0, .imm = 2}});
  run_ok(2);
  EXPECT_EQ(hart_.reg(isa::a2), 2u);  // landed at +8
  EXPECT_EQ(hart_.reg(isa::a1), 0u);
}

TEST_F(BareHart, MisalignedFetchTraps) {
  hart_.set_pc(kCodeBase + 2);
  EXPECT_EQ(step().cause, TrapCause::kInstAddrMisaligned);
}

TEST_F(BareHart, IllegalInstructionTraps) {
  mem_.write_u32(kCodeBase, 0xFFFFFFFF);
  const StepResult r = step();
  EXPECT_EQ(r.cause, TrapCause::kIllegalInst);
  EXPECT_EQ(hart_.csrs().sepc, kCodeBase);
}

TEST_F(BareHart, EcallFromUserTraps) {
  place({Inst{.op = Op::kEcall}});
  const StepResult r = step();
  EXPECT_EQ(r.cause, TrapCause::kEcallFromU);
  EXPECT_EQ(hart_.pc(), hart_.csrs().stvec & ~u64{3});
}

TEST_F(BareHart, SretReturnsToUser) {
  hart_.set_priv(Priv::kSupervisor);
  hart_.csrs().sepc = 0x4000;
  place({Inst{.op = Op::kSret}});
  run_ok(1);
  EXPECT_EQ(hart_.pc(), 0x4000u);
  EXPECT_EQ(hart_.priv(), Priv::kUser);
}

TEST_F(BareHart, SretFromUserIsIllegal) {
  place({Inst{.op = Op::kSret}});
  EXPECT_EQ(step().cause, TrapCause::kIllegalInst);
}

TEST_F(BareHart, CsrAccessControl) {
  // U-mode may read cycle but not sstatus.
  place({Inst{.op = Op::kCsrrs, .rd = isa::a0, .rs1 = 0, .csr = 0xC00},
         Inst{.op = Op::kCsrrs, .rd = isa::a1, .rs1 = 0, .csr = 0x100}});
  run_ok(1);
  EXPECT_GT(hart_.reg(isa::a0), 0u);  // cycles accumulated
  EXPECT_EQ(step().cause, TrapCause::kIllegalInst);
}

TEST_F(BareHart, CsrReadWriteInSupervisor) {
  hart_.set_priv(Priv::kSupervisor);
  hart_.set_reg(isa::a0, 0xABCD);
  place({
      Inst{.op = Op::kCsrrw, .rd = isa::a1, .rs1 = isa::a0, .csr = 0x140},
      Inst{.op = Op::kCsrrs, .rd = isa::a2, .rs1 = 0, .csr = 0x140},
      Inst{.op = Op::kCsrrci, .rd = isa::a3, .imm = 0xD, .csr = 0x140},
      Inst{.op = Op::kCsrrs, .rd = isa::a4, .rs1 = 0, .csr = 0x140},
  });
  run_ok(4);
  EXPECT_EQ(hart_.reg(isa::a1), 0u);
  EXPECT_EQ(hart_.reg(isa::a2), 0xABCDu);
  EXPECT_EQ(hart_.reg(isa::a4), 0xABC0u);
}

TEST_F(BareHart, TrapChargesEntryCycles) {
  place({Inst{.op = Op::kEcall}});
  const u64 before = hart_.cycles();
  step();
  EXPECT_GE(hart_.cycles() - before,
            hart_.timing().trap_enter_cycles);
}

TEST_F(BareHart, InstretCountsOnlyRetired) {
  place({Inst{.op = Op::kAddi, .rd = isa::a0, .rs1 = 0, .imm = 1},
         Inst{.op = Op::kEcall}});
  step();
  step();
  EXPECT_EQ(hart_.instret(), 1u);  // the ecall did not retire
}

// ---------------------------------------------------------------------------
// Custom-0 extension in bare mode.
// ---------------------------------------------------------------------------

TEST_F(BareHart, RdpkrWrpkrRoundTrip) {
  hart_.set_reg(isa::a0, 97);  // row 3
  hart_.set_reg(isa::a1, 0xAABB);
  place({
      Inst{.op = Op::kWrpkr, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kRdpkr, .rd = isa::a2, .rs1 = isa::a0},
  });
  run_ok(2);
  EXPECT_EQ(hart_.reg(isa::a2), 0xAABBu);
  EXPECT_EQ(hart_.pkr().peek_row(3), 0xAABBu);
  EXPECT_EQ(hart_.stats().wrpkr_count, 1u);
  EXPECT_EQ(hart_.stats().rdpkr_count, 1u);
}

TEST_F(BareHart, SealLatchesRecordPc) {
  place({Inst{.op = Op::kSealStart, .rs1 = 0},
         Inst{.op = Op::kAddi, .rd = 0, .rs1 = 0, .imm = 0},
         Inst{.op = Op::kSealEnd, .rs1 = 0}});
  run_ok(3);
  EXPECT_EQ(hart_.csrs().seal_start, kCodeBase);
  EXPECT_EQ(hart_.csrs().seal_end, kCodeBase + 8);
}

TEST_F(BareHart, SpkSealRequiresSupervisor) {
  place({Inst{.op = Op::kSpkSeal, .rs1 = isa::a0}});
  EXPECT_EQ(step().cause, TrapCause::kIllegalInst);
}

TEST_F(BareHart, SpkRangeAndSealCommitFromSupervisor) {
  hart_.set_priv(Priv::kSupervisor);
  hart_.set_reg(isa::a0, 0x5000);
  hart_.set_reg(isa::a1, 0x6000);
  hart_.set_reg(isa::a2, 42);
  place({
      Inst{.op = Op::kSpkRange, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kSpkSeal, .rs1 = isa::a2},
  });
  run_ok(2);
  EXPECT_TRUE(hart_.seal_unit().sealed(42));
  const auto entry = hart_.seal_unit().cam_lookup(42);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->addr_start, 0x5000u);
  EXPECT_EQ(entry->addr_end, 0x6000u);
}

TEST_F(BareHart, DoubleSealIsIllegal) {
  hart_.set_priv(Priv::kSupervisor);
  hart_.set_reg(isa::a0, 0x5000);
  hart_.set_reg(isa::a1, 0x6000);
  hart_.set_reg(isa::a2, 42);
  place({
      Inst{.op = Op::kSpkRange, .rs1 = isa::a0, .rs2 = isa::a1},
      Inst{.op = Op::kSpkSeal, .rs1 = isa::a2},
      Inst{.op = Op::kSpkSeal, .rs1 = isa::a2},
  });
  run_ok(2);
  EXPECT_EQ(step().cause, TrapCause::kIllegalInst);
}

TEST_F(BareHart, WrpkrOnSealedKeyOutsideRangeTraps) {
  hart_.seal_unit().set_sealed(5);
  hart_.seal_unit().refill(5, 0x9000, 0x9100);  // code is at 0x1000: outside
  hart_.set_reg(isa::a0, 5);
  hart_.set_reg(isa::a1, 0);
  place({Inst{.op = Op::kWrpkr, .rs1 = isa::a0, .rs2 = isa::a1}});
  const StepResult r = step();
  EXPECT_EQ(r.cause, TrapCause::kSealViolation);
  EXPECT_EQ(hart_.csrs().stval, 5u);
}

TEST_F(BareHart, WrpkrOnSealedKeyInsideRangeExecutes) {
  hart_.seal_unit().set_sealed(5);
  hart_.seal_unit().refill(5, kCodeBase, kCodeBase + 0x100);
  hart_.set_reg(isa::a0, 5);
  hart_.set_reg(isa::a1, 0b01);
  place({Inst{.op = Op::kWrpkr, .rs1 = isa::a0, .rs2 = isa::a1}});
  run_ok(1);
  // WRPKR writes the whole 64-bit row; rs2 = 0b01 lands in key 0's field.
  EXPECT_EQ(hart_.pkr().peek_row(0), 0b01u);
}

TEST_F(BareHart, WrpkrCamMissTrapsForRefill) {
  hart_.seal_unit().set_sealed(6);
  hart_.set_reg(isa::a0, 6);
  place({Inst{.op = Op::kWrpkr, .rs1 = isa::a0, .rs2 = 0}});
  const StepResult r = step();
  EXPECT_EQ(r.cause, TrapCause::kPkCamMiss);
  EXPECT_EQ(hart_.csrs().stval, 6u);
  EXPECT_EQ(hart_.csrs().sepc, kCodeBase);  // re-executable
}

TEST_F(BareHart, WrpkrPreservesSealedNeighboursInRow) {
  // Keys 3 and 5 share row 0; seal key 3, write the row naming key 5.
  hart_.pkr().set_perm(3, hw::kPermNone);
  hart_.seal_unit().set_sealed(3);
  hart_.seal_unit().refill(3, 0x9000, 0x9100);
  hart_.set_reg(isa::a0, 5);
  hart_.set_reg(isa::a1, 0);  // attempt to zero the whole row
  place({Inst{.op = Op::kWrpkr, .rs1 = isa::a0, .rs2 = isa::a1}});
  run_ok(1);
  EXPECT_EQ(hart_.pkr().peek_perm(3), hw::kPermNone);  // survived
  EXPECT_EQ(hart_.pkr().peek_perm(5), hw::kPermRw);
}

TEST_F(BareHart, MpkInstructionsIllegalInSealPkFlavour) {
  place({Inst{.op = Op::kWrpkru, .rs1 = isa::a0}});
  EXPECT_EQ(step().cause, TrapCause::kIllegalInst);
}

// ---------------------------------------------------------------------------
// Intel-MPK flavour.
// ---------------------------------------------------------------------------

class MpkHart : public BareHart {
 protected:
  static HartConfig mpk_config() {
    HartConfig cfg;
    cfg.flavor = IsaFlavor::kIntelMpkCompat;
    return cfg;
  }
  MpkHart() : BareHart(mpk_config()) {}
};

TEST_F(MpkHart, WrpkruRdpkruRoundTrip) {
  hart_.set_reg(isa::a0, 0x0000000C);
  place({
      Inst{.op = Op::kWrpkru, .rs1 = isa::a0},
      Inst{.op = Op::kRdpkru, .rd = isa::a1},
  });
  run_ok(2);
  EXPECT_EQ(hart_.reg(isa::a1), 0x0000000Cu);
  EXPECT_TRUE(hart_.pkru().access_disabled(1));
  EXPECT_TRUE(hart_.pkru().write_disabled(1));
}

TEST_F(MpkHart, SealPkInstructionsIllegalInMpkFlavour) {
  place({Inst{.op = Op::kRdpkr, .rd = isa::a0, .rs1 = isa::a1}});
  EXPECT_EQ(step().cause, TrapCause::kIllegalInst);
}

// ---------------------------------------------------------------------------
// Decoded-instruction cache. Slots are reused only when their raw word
// equals the word just fetched, so code writes need no invalidation.
// ---------------------------------------------------------------------------

TEST(DecodedCache, DecodeOfZeroIsTheDefaultInst) {
  // An untouched slot holds Inst{}; it must be what word 0 decodes to, or a
  // fetched zero word would execute a stale entry.
  EXPECT_EQ(isa::decode(0), Inst{});
}

TEST_F(BareHart, StoreToCodeRunsTheNewInstruction) {
  const Inst before{.op = Op::kAddi, .rd = isa::a3, .rs1 = 0, .imm = 1};
  const Inst after{.op = Op::kAddi, .rd = isa::a3, .rs1 = 0, .imm = 2};
  hart_.set_reg(isa::a0, kCodeBase);
  hart_.set_reg(isa::a1, isa::encode(after));
  place({
      before,
      Inst{.op = Op::kSw, .rs1 = isa::a0, .rs2 = isa::a1, .imm = 0},
      Inst{.op = Op::kJal, .rd = 0, .imm = -8},
  });
  run_ok(1);
  EXPECT_EQ(hart_.reg(isa::a3), 1u);
  run_ok(2);  // overwrite the first instruction, jump back to it
  ASSERT_EQ(hart_.pc(), kCodeBase);
  run_ok(1);
  EXPECT_EQ(hart_.reg(isa::a3), 2u);
}

TEST_F(BareHart, CodeSharingACacheSlotAlternatesCorrectly) {
  // 4096 slots of 4 bytes: code 16 KiB apart maps to the same slot.
  constexpr u64 kFar = kCodeBase + 4096 * 4;
  place({Inst{.op = Op::kAddi, .rd = isa::a3, .rs1 = isa::a3, .imm = 1},
         Inst{.op = Op::kJal, .rd = 0, .imm = static_cast<i64>(kFar) -
                                              static_cast<i64>(kCodeBase) - 4}});
  place({Inst{.op = Op::kAddi, .rd = isa::a4, .rs1 = isa::a4, .imm = 5},
         Inst{.op = Op::kJal, .rd = 0, .imm = static_cast<i64>(kCodeBase) -
                                              static_cast<i64>(kFar) - 4}},
        kFar);
  run_ok(4 * 10);
  EXPECT_EQ(hart_.reg(isa::a3), 10u);
  EXPECT_EQ(hart_.reg(isa::a4), 50u);
  EXPECT_EQ(hart_.pc(), kCodeBase);
}

}  // namespace
}  // namespace sealpk::core
