// Fully-associative TLB model with the SealPK per-entry pkey field.
//
// Figure 2 of the paper: each DTLB line gains a 10-bit pkey entry copied
// from the PTE on refill, so the effective-permission check reads the pkey
// permission (from PKR) in the same cycle as the page permission. The ITLB
// is unmodified — pkey checks apply to data accesses only — so instruction
// harts instantiate this class with pkey always zero.
#pragma once

#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"

namespace sealpk::mem {

struct TlbEntry {
  u64 vpn = 0;
  u64 ppn = 0;
  bool r = false, w = false, x = false, user = false;
  bool dirty = false;  // PTE D bit at refill time
  u16 pkey = 0;        // SealPK: 10 bits; MPK flavour: 4 bits
};

struct TlbStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 flushes = 0;
  u64 evictions = 0;
};

class Tlb {
 public:
  explicit Tlb(size_t num_entries = 32) : entries_(num_entries) {
    SEALPK_CHECK(num_entries > 0);
  }

  size_t capacity() const { return entries_.size(); }

  // Looks up `vpn`; counts a hit or miss. Returns the first matching slot.
  //
  // The slot that hit last is tried before the scan. That is exact because
  // no valid slot before the hinted one ever holds the hinted slot's VPN:
  // the hint is only set to a first match (or reset to slot 0), insert()
  // never adds a VPN that some valid slot already holds (it overwrites
  // that first match in place), and nothing else changes a slot's VPN.
  std::optional<TlbEntry> lookup(u64 vpn) {
    const Slot& hinted = entries_[hint_];
    if (hinted.valid && hinted.entry.vpn == vpn) {
      ++stats_.hits;
      return hinted.entry;
    }
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Slot& slot = entries_[i];
      if (slot.valid && slot.entry.vpn == vpn) {
        hint_ = i;
        ++stats_.hits;
        return slot.entry;
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }

  // Peek without touching statistics (used by tests and debug dumps).
  std::optional<TlbEntry> peek(u64 vpn) const {
    for (const auto& slot : entries_) {
      if (slot.valid && slot.entry.vpn == vpn) return slot.entry;
    }
    return std::nullopt;
  }

  // Counts a hit without scanning. Only for a caller that already knows
  // lookup() would hit: it saw that VPN hit at the current epoch().
  void count_hit() { ++stats_.hits; }

  // Bumped by every mutator that can change what lookup() returns (insert,
  // flush, flush_vpn, corrupt_slot, load_state). While the epoch is
  // unchanged, a lookup of the same VPN returns the same entry.
  u64 epoch() const { return epoch_; }

  // Inserts after a miss; replaces an existing mapping for the same VPN,
  // otherwise evicts round-robin (Rocket's TLB uses a pseudo-random/rr
  // policy; round-robin keeps the model deterministic).
  void insert(const TlbEntry& entry) {
    ++epoch_;
    for (auto& slot : entries_) {
      if (slot.valid && slot.entry.vpn == entry.vpn) {
        slot.entry = entry;
        return;
      }
    }
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].valid) {
        entries_[i] = {entry, true};
        return;
      }
    }
    ++stats_.evictions;
    entries_[next_victim_] = {entry, true};
    next_victim_ = (next_victim_ + 1) % entries_.size();
  }

  // sfence.vma with rs1 = x0: global flush.
  void flush() {
    ++epoch_;
    for (auto& slot : entries_) slot.valid = false;
    ++stats_.flushes;
  }

  // sfence.vma with rs1 != x0: single-VPN invalidation.
  void flush_vpn(u64 vpn) {
    ++epoch_;
    for (auto& slot : entries_) {
      if (slot.valid && slot.entry.vpn == vpn) slot.valid = false;
    }
  }

  size_t valid_count() const {
    size_t n = 0;
    for (const auto& slot : entries_)
      if (slot.valid) ++n;
    return n;
  }

  // --- fault-model ports ---------------------------------------------------
  // Slot-indexed peek for the kernel's audit (no stats side effects).
  const TlbEntry* peek_slot(size_t i) const {
    SEALPK_CHECK(i < entries_.size());
    return entries_[i].valid ? &entries_[i].entry : nullptr;
  }

  // XOR-corrupt a cached entry's pkey / permission / dirty bits in place,
  // modelling a soft error in the TLB array. PPN and VPN are left alone:
  // the fault model covers the SealPK-added fields and permission bits, not
  // wild translations. perm_xor bits: 1 = r, 2 = w, 4 = x, 8 = user.
  // Returns false if the slot is empty (nothing to corrupt).
  bool corrupt_slot(size_t i, u16 pkey_xor, u8 perm_xor, bool flip_dirty) {
    SEALPK_CHECK(i < entries_.size());
    if (!entries_[i].valid) return false;
    ++epoch_;
    TlbEntry& e = entries_[i].entry;
    e.pkey ^= pkey_xor;
    if (perm_xor & 1) e.r = !e.r;
    if (perm_xor & 2) e.w = !e.w;
    if (perm_xor & 4) e.x = !e.x;
    if (perm_xor & 8) e.user = !e.user;
    if (flip_dirty) e.dirty = !e.dirty;
    return true;
  }

  const TlbStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Snapshot port: slots verbatim (including any injector-corrupted entry),
  // the round-robin cursor, and the stats.
  void save_state(ByteWriter& w) const { fields(w, *this); }
  void load_state(ByteReader& r) {
    ++epoch_;
    fields(r, *this);
    hint_ = 0;  // a blob may hold duplicate VPNs; slot 0 is never shadowed
  }

 private:
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self) {
    u64 slots = self.entries_.size();
    io.field(slots);
    SEALPK_CHECK_MSG(slots == self.entries_.size(),
                     "TLB capacity mismatch: snapshot has "
                         << slots << " slots, machine has "
                         << self.entries_.size());
    for (auto& slot : self.entries_) {
      auto& e = slot.entry;
      io.fields(e.vpn, e.ppn, e.r, e.w, e.x, e.user, e.dirty, e.pkey,
                slot.valid);
    }
    auto& st = self.stats_;
    io.fields(self.next_victim_, st.hits, st.misses, st.flushes,
              st.evictions);
    SEALPK_CHECK_MSG(self.next_victim_ < slots,
                     "TLB victim cursor past " << slots << " slots");
  }

  struct Slot {
    TlbEntry entry;
    bool valid = false;
  };
  std::vector<Slot> entries_;
  size_t next_victim_ = 0;
  size_t hint_ = 0;  // slot of the last lookup hit; see lookup()
  u64 epoch_ = 0;    // see epoch()
  TlbStats stats_;
};

}  // namespace sealpk::mem
