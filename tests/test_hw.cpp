#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "hw/pkr.h"
#include "hw/pkru.h"
#include "hw/seal_unit.h"

namespace sealpk::hw {
namespace {

// ---------------------------------------------------------------------------
// PKR — 32x64 permission SRAM.
// ---------------------------------------------------------------------------

TEST(Pkr, Geometry) {
  EXPECT_EQ(kNumPkeys, 1024u);  // 64x Intel MPK's 16 (paper §III-A)
  EXPECT_EQ(kPkrRows * kKeysPerRow, kNumPkeys);
  EXPECT_EQ(kPkrRows * 64, 2048u);  // the paper's 2 Kb SRAM
}

TEST(Pkr, RowIndexing) {
  // Figure 2's example key 0b1111000001: row = upper 5 bits, slot = lower 5.
  EXPECT_EQ(pkr_row_of(0b1111000001), 0b11110u);
  EXPECT_EQ(pkr_slot_of(0b1111000001), 0b00001u);
  EXPECT_EQ(pkr_row_of(0), 0u);
  EXPECT_EQ(pkr_row_of(1023), 31u);
  EXPECT_EQ(pkr_slot_of(1023), 31u);
}

TEST(Pkr, RowReadWrite) {
  Pkr pkr;
  pkr.write_row(3, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(pkr.read_row(3), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(pkr.read_row(4), 0u);
  EXPECT_THROW(pkr.read_row(32), CheckError);
}

TEST(Pkr, PermFieldExtraction) {
  Pkr pkr;
  // Key 97 -> row 3, slot 1 -> bits [3:2] of row 3.
  pkr.write_row(3, 0b1100);
  EXPECT_EQ(pkr.perm_of(97), kPermNone);
  EXPECT_EQ(pkr.perm_of(96), kPermRw);
  EXPECT_TRUE(pkr.read_disabled(97));
  EXPECT_TRUE(pkr.write_disabled(97));
}

TEST(Pkr, SetPermIsolatesField) {
  Pkr pkr;
  pkr.set_perm(5, kPermReadOnly);
  pkr.set_perm(6, kPermWriteOnly);
  EXPECT_EQ(pkr.peek_perm(5), kPermReadOnly);
  EXPECT_EQ(pkr.peek_perm(6), kPermWriteOnly);
  EXPECT_EQ(pkr.peek_perm(4), kPermRw);
  EXPECT_EQ(pkr.peek_perm(7), kPermRw);
  pkr.set_perm(5, kPermRw);
  EXPECT_EQ(pkr.peek_perm(5), kPermRw);
  EXPECT_EQ(pkr.peek_perm(6), kPermWriteOnly);
}

TEST(Pkr, DisableBitsMatchEncoding) {
  Pkr pkr;
  pkr.set_perm(10, kPermReadOnly);  // WD
  EXPECT_FALSE(pkr.read_disabled(10));
  EXPECT_TRUE(pkr.write_disabled(10));
  pkr.set_perm(10, kPermWriteOnly);  // RD: the write-only domain the RISC-V
                                     // PTE cannot express (§III-A)
  EXPECT_TRUE(pkr.read_disabled(10));
  EXPECT_FALSE(pkr.write_disabled(10));
}

TEST(Pkr, SaveRestoreRoundTrip) {
  Pkr pkr;
  Rng rng(5);
  for (u32 row = 0; row < kPkrRows; ++row) pkr.write_row(row, rng.next());
  const auto snapshot = pkr.save();
  Pkr other;
  other.restore(snapshot);
  for (u32 row = 0; row < kPkrRows; ++row) {
    EXPECT_EQ(other.peek_row(row), pkr.peek_row(row));
  }
}

TEST(Pkr, StatsCountPorts) {
  Pkr pkr;
  pkr.write_row(0, 1);
  pkr.read_row(0);
  pkr.perm_of(3);
  EXPECT_EQ(pkr.stats().row_writes, 1u);
  EXPECT_EQ(pkr.stats().row_reads, 1u);
  EXPECT_EQ(pkr.stats().perm_lookups, 1u);
}

// Property sweep: every key's field is independent.
class PkrSlotTest : public ::testing::TestWithParam<u32> {};

TEST_P(PkrSlotTest, FieldIndependence) {
  const u32 pkey = GetParam();
  Pkr pkr;
  for (u32 row = 0; row < kPkrRows; ++row) pkr.write_row(row, 0);
  pkr.set_perm(pkey, kPermNone);
  for (u32 other = 0; other < kNumPkeys; other += 41) {
    if (other == pkey) continue;
    EXPECT_EQ(pkr.peek_perm(other), kPermRw) << "pkey=" << pkey;
  }
  EXPECT_EQ(pkr.peek_perm(pkey), kPermNone);
}

INSTANTIATE_TEST_SUITE_P(KeySweep, PkrSlotTest,
                         ::testing::Values(0u, 1u, 31u, 32u, 33u, 511u, 512u,
                                           959u, 1023u));

// ---------------------------------------------------------------------------
// SealReg + PK-CAM.
// ---------------------------------------------------------------------------

TEST(SealUnit, UnsealedKeysAlwaysAllowed) {
  SealUnit unit;
  EXPECT_EQ(unit.check_wrpkr(5, 0x1000), SealCheck::kAllowed);
  EXPECT_EQ(unit.stats().cam_hits, 0u);
}

TEST(SealUnit, SealedKeyInRangeAllowed) {
  SealUnit unit;
  unit.set_sealed(7);
  unit.refill(7, 0x103B8, 0x10728);  // Figure 4's example range
  EXPECT_EQ(unit.check_wrpkr(7, 0x103B8), SealCheck::kAllowed);  // inclusive
  EXPECT_EQ(unit.check_wrpkr(7, 0x10500), SealCheck::kAllowed);
  EXPECT_EQ(unit.check_wrpkr(7, 0x10728), SealCheck::kAllowed);  // inclusive
}

TEST(SealUnit, SealedKeyOutOfRangeViolates) {
  SealUnit unit;
  unit.set_sealed(7);
  unit.refill(7, 0x1000, 0x2000);
  EXPECT_EQ(unit.check_wrpkr(7, 0xFFF), SealCheck::kViolation);
  EXPECT_EQ(unit.check_wrpkr(7, 0x2004), SealCheck::kViolation);
  EXPECT_EQ(unit.stats().violations, 2u);
}

TEST(SealUnit, SealedKeyWithoutCamEntryMisses) {
  SealUnit unit;
  unit.set_sealed(9);
  EXPECT_EQ(unit.check_wrpkr(9, 0x1000), SealCheck::kMiss);
  EXPECT_EQ(unit.stats().cam_misses, 1u);
  unit.refill(9, 0x1000, 0x1100);  // the OS refill path
  EXPECT_EQ(unit.check_wrpkr(9, 0x1000), SealCheck::kAllowed);
}

TEST(SealUnit, CamFifoEviction) {
  SealUnit unit;
  for (u32 k = 0; k < kPkCamEntries + 1; ++k) {
    unit.set_sealed(k);
    unit.refill(k, 0x1000 * (k + 1), 0x1000 * (k + 1) + 0x100);
  }
  // Entry 0 was evicted FIFO; sealed keys falling out of the CAM miss again.
  EXPECT_EQ(unit.check_wrpkr(0, 0x1000), SealCheck::kMiss);
  EXPECT_EQ(unit.check_wrpkr(1, 0x2000), SealCheck::kAllowed);
  EXPECT_EQ(unit.cam_valid_count(), kPkCamEntries);
}

TEST(SealUnit, RefillUpdatesExistingEntryInPlace) {
  SealUnit unit;
  unit.set_sealed(3);
  unit.refill(3, 0x1000, 0x2000);
  unit.refill(3, 0x1000, 0x2000);  // re-refill after context switch
  EXPECT_EQ(unit.cam_valid_count(), 1u);
}

TEST(SealUnit, ClearKeyDissolvesSeal) {
  SealUnit unit;
  unit.set_sealed(4);
  unit.refill(4, 0x1000, 0x2000);
  unit.clear_key(4);
  EXPECT_FALSE(unit.sealed(4));
  EXPECT_EQ(unit.check_wrpkr(4, 0x9999), SealCheck::kAllowed);
  EXPECT_EQ(unit.cam_valid_count(), 0u);
}

TEST(SealUnit, SnapshotRoundTrip) {
  SealUnit unit;
  unit.set_sealed(100);
  unit.refill(100, 0xAAA0, 0xBBB0);
  const auto snap = unit.save();
  SealUnit other;
  other.restore(snap);
  EXPECT_TRUE(other.sealed(100));
  const auto entry = other.cam_lookup(100);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->addr_start, 0xAAA0u);
  EXPECT_EQ(entry->addr_end, 0xBBB0u);
}

TEST(SealUnit, ResetClearsEverything) {
  SealUnit unit;
  unit.set_sealed(1);
  unit.refill(1, 1, 2);
  unit.reset();
  EXPECT_FALSE(unit.sealed(1));
  EXPECT_EQ(unit.cam_valid_count(), 0u);
}

TEST(SealUnit, RejectsInvertedRange) {
  SealUnit unit;
  EXPECT_THROW(unit.refill(1, 0x2000, 0x1000), CheckError);
}

// ---------------------------------------------------------------------------
// PKRU (Intel MPK baseline).
// ---------------------------------------------------------------------------

TEST(Pkru, IntelBitLayout) {
  Pkru pkru;
  pkru.set(0b10'01 << 2);  // key 1: AD=1, WD=0; key 2: WD=1, AD=0 — wait:
  // value = 0b1001 << 2: key1 bits [3:2] = 0b01 -> AD; key2 bits [5:4]=0b10 -> WD
  EXPECT_TRUE(pkru.access_disabled(1));
  EXPECT_FALSE(pkru.write_disabled(1));
  EXPECT_FALSE(pkru.access_disabled(2));
  EXPECT_TRUE(pkru.write_disabled(2));
  EXPECT_FALSE(pkru.access_disabled(0));
}

TEST(Pkru, SetPermComposes) {
  Pkru pkru;
  pkru.set_perm(5, /*access_disable=*/false, /*write_disable=*/true);
  pkru.set_perm(6, /*access_disable=*/true, /*write_disable=*/false);
  EXPECT_TRUE(pkru.write_disabled(5));
  EXPECT_FALSE(pkru.access_disabled(5));
  EXPECT_TRUE(pkru.access_disabled(6));
  pkru.set_perm(5, false, false);
  EXPECT_FALSE(pkru.write_disabled(5));
  EXPECT_TRUE(pkru.access_disabled(6));  // untouched
}

TEST(Pkru, SixteenKeysOnly) {
  Pkru pkru;
  EXPECT_THROW(pkru.access_disabled(16), CheckError);
  EXPECT_EQ(kMpkNumPkeys, 16u);
}

// ---------------------------------------------------------------------------
// Canonical state + the reduced-CAM configuration (model-checker ports).
// ---------------------------------------------------------------------------

TEST(Pkr, CanonicalStateIsTheSnapshot) {
  Pkr pkr;
  pkr.set_perm(7, 0b10);
  pkr.set_perm(100, 0b01);
  EXPECT_EQ(pkr.canonical_state(), pkr.save());
  Pkr other;
  other.restore(pkr.canonical_state());
  EXPECT_EQ(other.peek_perm(7), 0b10u);
  EXPECT_EQ(other.peek_perm(100), 0b01u);
}

TEST(SealUnit, CanonicalStateRoundTripsThroughByteStream) {
  SealUnit unit;
  unit.set_sealed(5);
  unit.refill(5, 0x100, 0x200);
  const SealUnit::Snapshot snap = unit.canonical_state();
  ByteWriter w;
  SealUnit::snapshot_fields(w, snap);
  ByteReader r(w.buffer());
  SealUnit::Snapshot back;
  SealUnit::snapshot_fields(r, back);
  EXPECT_TRUE(r.done());
  // Canonical: re-serializing the parsed snapshot is byte-identical.
  ByteWriter w2;
  SealUnit::snapshot_fields(w2, back);
  EXPECT_EQ(w.buffer(), w2.buffer());
  SealUnit other;
  other.restore(back);
  EXPECT_TRUE(other.sealed(5));
  EXPECT_EQ(other.check_wrpkr(5, 0x150), SealCheck::kAllowed);
}

TEST(SealUnit, ReducedCamWrapsFifoWithinActiveEntries) {
  SealUnit unit(2);  // the model checker's 2-entry PK-CAM
  EXPECT_EQ(unit.active_cam_entries(), 2u);
  unit.set_sealed(0);
  unit.set_sealed(1);
  unit.set_sealed(2);
  unit.refill(0, 0x1000, 0x1100);
  unit.refill(1, 0x2000, 0x2100);
  unit.refill(2, 0x3000, 0x3100);  // FIFO wraps at 2: evicts key 0
  EXPECT_EQ(unit.cam_valid_count(), 2u);
  EXPECT_EQ(unit.check_wrpkr(0, 0x1000), SealCheck::kMiss);
  EXPECT_EQ(unit.check_wrpkr(1, 0x2000), SealCheck::kAllowed);
  EXPECT_EQ(unit.check_wrpkr(2, 0x3000), SealCheck::kAllowed);
  unit.refill(0, 0x1000, 0x1100);  // cursor wrapped to slot 1: evicts key 1
  EXPECT_EQ(unit.check_wrpkr(1, 0x2000), SealCheck::kMiss);
  EXPECT_EQ(unit.check_wrpkr(0, 0x1000), SealCheck::kAllowed);
}

TEST(SealUnit, DoubleSetSealedIsIdempotent) {
  SealUnit unit;
  unit.set_sealed(9);
  unit.set_sealed(9);  // the fuse latches; a second blow is a no-op
  EXPECT_TRUE(unit.sealed(9));
  unit.refill(9, 0x1000, 0x1100);
  EXPECT_EQ(unit.check_wrpkr(9, 0x1000), SealCheck::kAllowed);
  unit.clear_key(9);
  EXPECT_FALSE(unit.sealed(9));
}

TEST(SealUnit, MergeSealedRowPreservesOnlySealedNeighbours) {
  SealUnit unit;
  unit.set_sealed(1);  // row 0, slot 1
  // Row 0 currently: slot 1 holds 0b11, slot 2 holds 0b10.
  const u64 old_row = (u64{0b11} << 2) | (u64{0b10} << 4);
  // WRPKR names key 0 and writes an all-zero row.
  u64 next = merge_sealed_row(unit, old_row, 0, /*row=*/0, /*pkey=*/0);
  EXPECT_EQ(bits(next, 3, 2), 0b11u);  // sealed neighbour preserved
  EXPECT_EQ(bits(next, 5, 4), 0u);     // unsealed neighbour takes the write
  EXPECT_EQ(bits(next, 1, 0), 0u);     // the named key's own field is free
  // The named key's field is never merged back even when it is sealed.
  unit.set_sealed(0);
  next = merge_sealed_row(unit, (u64{0b01}) | old_row, 0, 0, 0);
  EXPECT_EQ(bits(next, 1, 0), 0u);
  EXPECT_EQ(bits(next, 3, 2), 0b11u);
}

}  // namespace
}  // namespace sealpk::hw
