// PKR — the protection-key rights memory (paper §III-A).
//
// A 2 Kb on-chip SRAM of 32 rows x 64 bits; each row holds the 2-bit
// permissions of 32 pkeys, so 1024 keys total. A pkey's upper 5 bits index
// the row, its lower 5 bits select the 2-bit field. Each field is
// (Read-Disable, Write-Disable); 00 grants everything the PTE grants and,
// because the two disables are independent, (RD=1, WD=0) yields a
// *write-only* domain — impossible with bare RISC-V PTE permissions.
#pragma once

#include <array>
#include <bit>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"

namespace sealpk::hw {

constexpr unsigned kNumPkeys = 1024;
constexpr unsigned kPkrRows = 32;
constexpr unsigned kKeysPerRow = 32;

// 2-bit pkey permission field values. Bit 1 = Read-Disable, bit 0 =
// Write-Disable (matching Figure 2's (RD, WD) ordering).
enum PkeyPerm : u8 {
  kPermRw = 0b00,        // no restriction beyond the PTE
  kPermReadOnly = 0b01,  // WD: write disabled
  kPermWriteOnly = 0b10, // RD: read disabled
  kPermNone = 0b11,      // no access
};

constexpr u32 pkr_row_of(u32 pkey) { return (pkey >> 5) & 0x1F; }
constexpr u32 pkr_slot_of(u32 pkey) { return pkey & 0x1F; }

struct PkrStats {
  u64 row_reads = 0;
  u64 row_writes = 0;
  u64 perm_lookups = 0;
};

class Pkr {
 public:
  using Snapshot = std::array<u64, kPkrRows>;

  // Architectural port: RDPKR reads one 64-bit row.
  u64 read_row(u32 row) {
    SEALPK_CHECK(row < kPkrRows);
    ++stats_.row_reads;
    return rows_[row];
  }

  // Architectural port: WRPKR overwrites one 64-bit row.
  void write_row(u32 row, u64 value) {
    SEALPK_CHECK(row < kPkrRows);
    ++stats_.row_writes;
    rows_[row] = value;
    parity_[row] = row_parity(value);
  }

  u64 peek_row(u32 row) const {
    SEALPK_CHECK(row < kPkrRows);
    return rows_[row];
  }

  // Control-logic port: the 2-bit permission of one pkey, read during the
  // effective-permission check on every data access.
  u8 perm_of(u32 pkey) {
    SEALPK_CHECK(pkey < kNumPkeys);
    ++stats_.perm_lookups;
    return static_cast<u8>(
        bits(rows_[pkr_row_of(pkey)], 2 * pkr_slot_of(pkey) + 1,
             2 * pkr_slot_of(pkey)));
  }

  u8 peek_perm(u32 pkey) const {
    SEALPK_CHECK(pkey < kNumPkeys);
    return static_cast<u8>(
        bits(rows_[pkr_row_of(pkey)], 2 * pkr_slot_of(pkey) + 1,
             2 * pkr_slot_of(pkey)));
  }

  // Kernel-path helper: set a single key's 2-bit field (used by pkey_alloc
  // / pkey_free, which run in supervisor mode and own the whole structure).
  void set_perm(u32 pkey, u8 perm) {
    SEALPK_CHECK(pkey < kNumPkeys && perm < 4);
    set_perm_in(rows_, pkey, perm);
    parity_[pkr_row_of(pkey)] = row_parity(rows_[pkr_row_of(pkey)]);
  }
  // The same write into a saved copy of the rows (a thread's context).
  static void set_perm_in(Snapshot& rows, u32 pkey, u8 perm) {
    const u32 row = pkr_row_of(pkey);
    rows[row] = deposit(rows[row], 2 * pkr_slot_of(pkey) + 1,
                        2 * pkr_slot_of(pkey), perm);
  }

  bool read_disabled(u32 pkey) { return (perm_of(pkey) & 0b10) != 0; }
  bool write_disabled(u32 pkey) { return (perm_of(pkey) & 0b01) != 0; }

  // Canonical architectural state: the 32 rows and nothing else (no parity,
  // no stats). This is the state the snapshot layer swaps per thread and the
  // state the model checker hashes for visited-set deduplication — two
  // observers of the same architecture, so they must share one accessor.
  const Snapshot& canonical_state() const { return rows_; }

  // Context-switch support (§III-B.2): the kernel saves/restores all 32
  // rows per thread.
  Snapshot save() const { return canonical_state(); }
  void restore(const Snapshot& snapshot) {
    rows_ = snapshot;
    for (u32 row = 0; row < kPkrRows; ++row)
      parity_[row] = row_parity(rows_[row]);
  }
  void reset() {
    rows_.fill(0);
    parity_.fill(false);
  }

  // --- SRAM fault model ----------------------------------------------------
  // Every legitimate write path above refreshes a per-row parity bit (one
  // even-parity bit per 64-bit word, the usual SRAM soft-error detector).
  // A fault injector flips *data only*, so a single-bit upset leaves the
  // stored parity stale and `parity_ok` reports the row as corrupt until a
  // kernel scrub rewrites it.

  // Flip one data bit without updating parity (models a particle strike).
  void corrupt_bit(u32 row, u32 bit) {
    SEALPK_CHECK(row < kPkrRows && bit < 64);
    rows_[row] ^= u64{1} << bit;
  }

  bool parity_ok(u32 row) const {
    SEALPK_CHECK(row < kPkrRows);
    return parity_[row] == row_parity(rows_[row]);
  }

  // Kernel scrub path: rewrite a row from the software shadow, restoring
  // data and parity together. Does not count as an architectural WRPKR.
  void scrub_row(u32 row, u64 value) {
    SEALPK_CHECK(row < kPkrRows);
    rows_[row] = value;
    parity_[row] = row_parity(value);
  }

  const PkrStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Snapshot port. Unlike restore(), this carries the parity bits verbatim:
  // a checkpoint taken while a row is corrupt must reproduce the stale
  // parity, not launder it by recomputing.
  void save_state(ByteWriter& w) const { fields(w, *this); }
  void load_state(ByteReader& r) { fields(r, *this); }

 private:
  static bool row_parity(u64 value) { return (std::popcount(value) & 1) != 0; }

  template <typename Io, typename Self>
  static void fields(Io& io, Self& self) {
    io.fields(self.rows_, self.parity_, self.stats_.row_reads,
              self.stats_.row_writes, self.stats_.perm_lookups);
  }

  Snapshot rows_{};
  std::array<bool, kPkrRows> parity_{};
  PkrStats stats_;
};

}  // namespace sealpk::hw
