// Protection-key bookkeeping.
//
// KeyManager is the kernel-side state the paper adds for SealPK
// (§III-B.1): a 1024-bit allocation bitmap, a 1024-bit *dirty* map for lazy
// de-allocation, a per-key page counter map, and the sealed_domain /
// sealed_page maps of §IV. The Intel-MPK flavour (src/mpk) implements the
// same interface with Linux's eager-free semantics, preserving the pkey
// use-after-free bug for comparison.
#pragma once

#include <algorithm>
#include <array>
#include <bitset>
#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"
#include "hw/pkr.h"
#include "os/syscall_abi.h"

namespace sealpk::os {

struct SealRange {
  u64 start = 0;
  u64 end = 0;  // inclusive
};

class KeyManager {
 public:
  virtual ~KeyManager() = default;

  virtual unsigned num_keys() const = 0;
  // Returns a fresh pkey or a negative errno.
  virtual i64 alloc() = 0;
  virtual i64 free_key(u32 pkey) = 0;
  virtual bool allocated(u32 pkey) const = 0;
  // True if the key may be named by pkey_mprotect (allocated and, for
  // SealPK, not lazily de-allocated).
  virtual bool assignable(u32 pkey) const = 0;
  virtual bool dirty(u32 /*pkey*/) const { return false; }
  // Page-counter maintenance, driven by mmap/munmap/pkey_mprotect.
  // Returns true when it completed a lazy-free drain, which the caller
  // must scrub from the hardware (PkeyOps::drain in os/pkey_ops.h).
  virtual bool page_delta(u32 pkey, i64 pages) = 0;
  virtual u64 page_count(u32 /*pkey*/) const { return 0; }
  // Recovery port: force a counter to the recomputed truth after detected
  // drift (the kernel audit's bitmap/counter cross-check); returns like
  // page_delta. Flavours with no counts ignore it.
  virtual bool reconcile_page_count(u32 /*pkey*/, u64 /*pages*/) {
    return false;
  }

  // --- sealing (SealPK only; the MPK flavour returns -ENOSYS) -------------
  virtual i64 seal(u32 /*pkey*/, bool /*domain*/, bool /*page*/) {
    return err::kNoSys;
  }
  virtual bool domain_sealed(u32 /*pkey*/) const { return false; }
  virtual bool pages_sealed(u32 /*pkey*/) const { return false; }
  virtual i64 set_perm_seal(u32 /*pkey*/, SealRange /*range*/) {
    return err::kNoSys;
  }
  virtual std::optional<SealRange> perm_seal_range(u32 /*pkey*/) const {
    return std::nullopt;
  }

  // --- snapshot ports ------------------------------------------------------
  // Each flavour serializes its own bookkeeping.
  virtual void save_state(ByteWriter& w) const = 0;
  virtual void load_state(ByteReader& r) = 0;
};

// The SealPK kernel state with lazy de-allocation.
class SealPkKeyManager : public KeyManager {
 public:
  // The whole bookkeeping as one plain record: the snapshot port's field
  // list reads and writes it, and the model checker installs and extracts
  // its states through state()/set_state().
  struct State {
    std::bitset<hw::kNumPkeys> alloc, dirty, sealed_domain, sealed_page;
    std::array<u64, hw::kNumPkeys> counter{};
    std::array<std::optional<SealRange>, hw::kNumPkeys> perm_range{};
  };

  SealPkKeyManager() {
    s_.alloc.set(0);  // pkey 0 is the default domain, permanently allocated
  }

  const State& state() const { return s_; }
  void set_state(const State& state) { s_ = state; }

  // Copies `other`'s records of keys [0, count): the bitsets whole, the
  // counters and perm-seal ranges of those keys only. For a caller that
  // knows no key from `count` up differs, such as the model checker
  // resetting its scratch harness between transitions.
  void copy_keys_from(const SealPkKeyManager& other, u32 count) {
    SEALPK_CHECK(count <= hw::kNumPkeys);
    s_.alloc = other.s_.alloc;
    s_.dirty = other.s_.dirty;
    s_.sealed_domain = other.s_.sealed_domain;
    s_.sealed_page = other.s_.sealed_page;
    std::copy_n(other.s_.counter.begin(), count, s_.counter.begin());
    std::copy_n(other.s_.perm_range.begin(), count, s_.perm_range.begin());
  }

  unsigned num_keys() const override { return hw::kNumPkeys; }

  i64 alloc() override {
    // A dirty key still has pages carrying it, so it must not be handed
    // out — this is exactly what kills the use-after-free (paper
    // §III-B.1).
    for (u32 k = 1; k < hw::kNumPkeys; ++k) {
      if (!s_.alloc[k] && !s_.dirty[k]) {
        s_.alloc.set(k);
        return k;
      }
    }
    return err::kNoSpc;
  }

  i64 free_key(u32 pkey) override {
    if (pkey == 0 || pkey >= hw::kNumPkeys || !s_.alloc[pkey]) {
      return err::kInval;
    }
    s_.alloc.reset(pkey);
    if (s_.counter[pkey] > 0) {
      s_.dirty.set(pkey);  // lazy de-allocation: quarantine until drained
    } else {
      scrub(pkey);
    }
    return 0;
  }

  bool allocated(u32 pkey) const override {
    return pkey < hw::kNumPkeys && s_.alloc[pkey];
  }

  bool assignable(u32 pkey) const override {
    return pkey < hw::kNumPkeys && s_.alloc[pkey] && !s_.dirty[pkey];
  }

  bool dirty(u32 pkey) const override {
    return pkey < hw::kNumPkeys && s_.dirty[pkey];
  }

  bool page_delta(u32 pkey, i64 pages) override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    const i64 next = static_cast<i64>(s_.counter[pkey]) + pages;
    SEALPK_CHECK_MSG(next >= 0, "pkey page counter underflow");
    return set_count(pkey, static_cast<u64>(next));
  }

  u64 page_count(u32 pkey) const override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    return s_.counter[pkey];
  }

  bool reconcile_page_count(u32 pkey, u64 pages) override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    return set_count(pkey, pages);
  }

  i64 seal(u32 pkey, bool domain, bool page) override {
    if (!assignable(pkey)) return err::kInval;
    if (domain) s_.sealed_domain.set(pkey);
    if (page) s_.sealed_page.set(pkey);
    return 0;
  }

  bool domain_sealed(u32 pkey) const override {
    return pkey < hw::kNumPkeys && s_.sealed_domain[pkey];
  }

  bool pages_sealed(u32 pkey) const override {
    return pkey < hw::kNumPkeys && s_.sealed_page[pkey];
  }

  // One-time fuse per process (paper §IV): a second call fails.
  i64 set_perm_seal(u32 pkey, SealRange range) override {
    if (!assignable(pkey)) return err::kInval;
    if (s_.perm_range[pkey].has_value()) return err::kPerm;
    if (range.start > range.end || range.start == 0) return err::kInval;
    s_.perm_range[pkey] = range;
    return 0;
  }

  std::optional<SealRange> perm_seal_range(u32 pkey) const override {
    SEALPK_CHECK(pkey < hw::kNumPkeys);
    return s_.perm_range[pkey];
  }

  void save_state(ByteWriter& w) const override { fields(w, s_); }
  void load_state(ByteReader& r) override { fields(r, s_); }

 private:
  // Sets a counter; a quarantined key whose count reaches zero has
  // drained and is released (the return value).
  bool set_count(u32 pkey, u64 pages) {
    s_.counter[pkey] = pages;
    if (pages != 0 || !s_.dirty[pkey]) return false;
    scrub(pkey);
    return true;
  }

  // Full release: the key was freed and no page carries it any more, so
  // every seal attached to it dissolves (paper §IV: "the seal cannot be
  // broken unless the corresponding pkey and all its associated pages are
  // freed").
  void scrub(u32 pkey) {
    s_.dirty.reset(pkey);
    s_.sealed_domain.reset(pkey);
    s_.sealed_page.reset(pkey);
    s_.perm_range[pkey].reset();
  }

  // A perm-seal range travels as has | start | end (zeros when unset).
  template <typename Io, typename S>
  static void fields(Io& io, S& s) {
    io.fields(s.alloc, s.dirty, s.sealed_domain, s.sealed_page, s.counter);
    for (auto& range : s.perm_range) {
      bool has = range.has_value();
      SealRange r = range.value_or(SealRange{});
      io.fields(has, r.start, r.end);
      if constexpr (Io::kLoading) {
        range = has ? std::optional<SealRange>(r) : std::nullopt;
      }
    }
  }

  State s_;
};

}  // namespace sealpk::os
