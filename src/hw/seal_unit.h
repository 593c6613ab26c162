// SealReg + PK-CAM — the permission-sealing hardware (paper §IV, Fig. 4).
//
// SealReg tracks which pkeys have sealed permissions (a 1024-bit one-time
// fuse map). PK-CAM is a 16-entry content-addressable cache of
// pkey -> [addr_start, addr_end] permissible ranges. Before executing a
// WRPKR that names a sealed pkey, the pipeline consults PK-CAM:
//   - hit and PC inside the range  -> the write proceeds;
//   - hit and PC outside the range -> hardware exception;
//   - miss                         -> trap to the OS to refill the CAM.
#pragma once

#include <array>
#include <bitset>
#include <optional>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"
#include "hw/pkr.h"

namespace sealpk::hw {

constexpr unsigned kPkCamEntries = 16;

struct CamEntry {
  u16 pkey = 0;
  u64 addr_start = 0;
  u64 addr_end = 0;  // inclusive, per Figure 4's hit condition
};

struct SealUnitStats {
  u64 checks = 0;
  u64 cam_hits = 0;
  u64 cam_misses = 0;
  u64 violations = 0;
  u64 refills = 0;
};

enum class SealCheck : u8 {
  kAllowed,    // pkey unsealed, or sealed with PC in range
  kViolation,  // sealed, CAM hit, PC outside the permissible range
  kMiss,       // sealed but range not cached: OS refill required
};

class SealUnit {
 public:
  // `active_cam_entries` bounds the FIFO replacement cursor, modelling a
  // down-scaled CAM (the model checker explores with 2 entries so eviction
  // and refill dynamics are reachable within a tiny state space). The
  // default is the paper's full 16-entry CAM; the snapshot format is
  // unaffected — the active count is a build parameter, not state.
  explicit SealUnit(unsigned active_cam_entries = kPkCamEntries)
      : active_cam_entries_(active_cam_entries) {
    SEALPK_CHECK(active_cam_entries >= 1 &&
                 active_cam_entries <= kPkCamEntries);
  }

  unsigned active_cam_entries() const { return active_cam_entries_; }

  bool sealed(u32 pkey) const {
    SEALPK_CHECK(pkey < kNumPkeys);
    return seal_reg_[pkey];
  }

  // Supervisor commit path (spk.seal). One-time fuse: re-sealing an
  // already-sealed key is a hardware no-op the kernel screens earlier.
  void set_sealed(u32 pkey) {
    SEALPK_CHECK(pkey < kNumPkeys);
    seal_reg_[pkey] = true;
  }

  // Evaluates Figure 4's hit condition for a WRPKR at `pc` naming `pkey`.
  SealCheck check_wrpkr(u32 pkey, u64 pc) {
    SEALPK_CHECK(pkey < kNumPkeys);
    ++stats_.checks;
    if (!seal_reg_[pkey]) return SealCheck::kAllowed;
    for (const auto& slot : cam_) {
      if (slot.valid && slot.entry.pkey == pkey) {
        ++stats_.cam_hits;
        if (pc >= slot.entry.addr_start && pc <= slot.entry.addr_end) {
          return SealCheck::kAllowed;
        }
        ++stats_.violations;
        return SealCheck::kViolation;
      }
    }
    ++stats_.cam_misses;
    return SealCheck::kMiss;
  }

  // OS refill path (the paper handles the CAM-miss interrupt in the kernel).
  // FIFO replacement across the 16 entries.
  void refill(u32 pkey, u64 addr_start, u64 addr_end) {
    SEALPK_CHECK(pkey < kNumPkeys);
    SEALPK_CHECK(addr_start <= addr_end);
    ++stats_.refills;
    for (auto& slot : cam_) {
      if (slot.valid && slot.entry.pkey == pkey) {
        slot.entry = {static_cast<u16>(pkey), addr_start, addr_end};
        return;
      }
    }
    cam_[fifo_next_] = {
        {static_cast<u16>(pkey), addr_start, addr_end}, true};
    fifo_next_ = (fifo_next_ + 1) % active_cam_entries_;
  }

  // Fault-model port: a refill that skips the replace-in-place scan and
  // unconditionally consumes the FIFO slot, leaving two CAM entries for the
  // same pkey. Models a glitched refill handshake. check_wrpkr matches the
  // first valid entry, so the stale duplicate shadows the fresh one until
  // clear_key or an eviction removes it.
  void refill_duplicate(u32 pkey, u64 addr_start, u64 addr_end) {
    SEALPK_CHECK(pkey < kNumPkeys);
    SEALPK_CHECK(addr_start <= addr_end);
    ++stats_.refills;
    cam_[fifo_next_] = {
        {static_cast<u16>(pkey), addr_start, addr_end}, true};
    fifo_next_ = (fifo_next_ + 1) % active_cam_entries_;
  }

  // Auditor port: count valid CAM entries naming `pkey` (> 1 after a
  // duplicated refill).
  size_t cam_count_of(u32 pkey) const {
    size_t n = 0;
    for (const auto& slot : cam_)
      if (slot.valid && slot.entry.pkey == pkey) ++n;
    return n;
  }

  // Kernel scrub path for duplicated refills: invalidate every entry for
  // `pkey` beyond the first (match order equals check_wrpkr's search order,
  // so behaviour is unchanged and the wasted slots are reclaimed). Returns
  // the number of entries dropped.
  size_t drop_duplicates(u32 pkey) {
    size_t dropped = 0;
    bool seen = false;
    for (auto& slot : cam_) {
      if (!slot.valid || slot.entry.pkey != pkey) continue;
      if (seen) {
        slot.valid = false;
        ++dropped;
      }
      seen = true;
    }
    return dropped;
  }

  // Kernel drain path: when a freed pkey's last page disappears, its seal
  // dissolves so a future owner of the key starts unsealed (§IV).
  void clear_key(u32 pkey) {
    SEALPK_CHECK(pkey < kNumPkeys);
    seal_reg_[pkey] = false;
    for (auto& slot : cam_) {
      if (slot.valid && slot.entry.pkey == pkey) slot.valid = false;
    }
  }

  // Auditor port: the valid entry in CAM slot `i`, or nullptr when empty.
  const CamEntry* cam_slot(size_t i) const {
    SEALPK_CHECK(i < kPkCamEntries);
    return cam_[i].valid ? &cam_[i].entry : nullptr;
  }

  std::optional<CamEntry> cam_lookup(u32 pkey) const {
    for (const auto& slot : cam_) {
      if (slot.valid && slot.entry.pkey == pkey) return slot.entry;
    }
    return std::nullopt;
  }

  size_t cam_valid_count() const {
    size_t n = 0;
    for (const auto& slot : cam_)
      if (slot.valid) ++n;
    return n;
  }

  // Context-switch support: SealReg and PK-CAM are per-process state the
  // kernel swaps (§IV "we modify the Linux kernel to maintain the SealReg
  // information as well as permissible range of each pkey during context
  // switches").
  struct Snapshot {
    std::bitset<kNumPkeys> seal_reg;
    std::array<CamEntry, kPkCamEntries> cam_entries;
    std::array<bool, kPkCamEntries> cam_valid;
    unsigned fifo_next = 0;
  };

  // Canonical architectural state: SealReg, the CAM array, and the FIFO
  // cursor — exactly what context switches swap and the model checker
  // hashes. save() keeps its historical name for the kernel call sites.
  Snapshot canonical_state() const { return save(); }

  // Serialized form of a Snapshot. Both the process snapshot layer
  // (src/snapshot via the kernel's per-process seal images) and save_state
  // below emit this same byte layout; keeping it in one place means the two
  // can never drift.
  template <typename Io, typename S>
  static void snapshot_fields(Io& io, S& s) {
    io.field(s.seal_reg);
    for (unsigned i = 0; i < kPkCamEntries; ++i) {
      auto& e = s.cam_entries[i];
      io.fields(e.pkey, e.addr_start, e.addr_end, s.cam_valid[i]);
    }
    io.field(s.fifo_next);
    SEALPK_CHECK_MSG(s.fifo_next < kPkCamEntries,
                     "PK-CAM FIFO cursor " << s.fifo_next << " out of range");
  }

  Snapshot save() const {
    Snapshot s;
    s.seal_reg = seal_reg_;
    for (unsigned i = 0; i < kPkCamEntries; ++i) {
      s.cam_entries[i] = cam_[i].entry;
      s.cam_valid[i] = cam_[i].valid;
    }
    s.fifo_next = fifo_next_;
    return s;
  }

  void restore(const Snapshot& s) {
    seal_reg_ = s.seal_reg;
    for (unsigned i = 0; i < kPkCamEntries; ++i) {
      cam_[i].entry = s.cam_entries[i];
      cam_[i].valid = s.cam_valid[i];
    }
    fifo_next_ = s.fifo_next;
  }

  void reset() {
    seal_reg_.reset();
    for (auto& slot : cam_) slot.valid = false;
    fifo_next_ = 0;
  }

  const SealUnitStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Snapshot port: everything save()/restore() covers plus the stats, so a
  // resumed run's counters match an uninterrupted one.
  void save_state(ByteWriter& w) const { fields(w, *this); }
  void load_state(ByteReader& r) { fields(r, *this); }

 private:
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self) {
    Snapshot s = self.canonical_state();
    snapshot_fields(io, s);
    if constexpr (Io::kLoading) self.restore(s);
    auto& st = self.stats_;
    io.fields(st.checks, st.cam_hits, st.cam_misses, st.violations,
              st.refills);
  }

  struct Slot {
    CamEntry entry;
    bool valid = false;
  };
  unsigned active_cam_entries_ = kPkCamEntries;
  std::bitset<kNumPkeys> seal_reg_;
  std::array<Slot, kPkCamEntries> cam_{};
  unsigned fifo_next_ = 0;
  SealUnitStats stats_;
};

// WRPKR row-commit merge (§IV): a row write may only change the fields of
// unsealed keys plus the named key itself; every *other* sealed key in the
// row keeps its current 2-bit field. Shared by the hart's WRPKR commit and
// the model checker's harness so the two cannot diverge.
inline u64 merge_sealed_row(const SealUnit& unit, u64 old_row, u64 next,
                            u32 row, u32 pkey) {
  for (u32 slot = 0; slot < kKeysPerRow; ++slot) {
    const u32 other = row * kKeysPerRow + slot;
    if (other == pkey || !unit.sealed(other)) continue;
    next = deposit(next, 2 * slot + 1, 2 * slot,
                   bits(old_row, 2 * slot + 1, 2 * slot));
  }
  return next;
}

}  // namespace sealpk::hw
