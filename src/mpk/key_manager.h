// Intel-MPK-style key manager: 16 keys, *eager* free.
//
// This faithfully reproduces the Linux behaviour the paper criticises
// (§II-A): pkey_free only clears the allocation bit; the freed key remains
// in the PTEs of all pages that carried it, and a later pkey_alloc can hand
// the same key to a new domain — the pkey use-after-free. Tests and the
// `use_after_free` example demonstrate the bug here and its absence in the
// SealPK manager.
#pragma once

#include <bitset>

#include "hw/pkru.h"
#include "os/key_manager.h"

namespace sealpk::mpk {

class MpkKeyManager : public os::KeyManager {
 public:
  MpkKeyManager() {
    alloc_.set(0);  // pkey 0: default domain
  }

  unsigned num_keys() const override { return hw::kMpkNumPkeys; }

  i64 alloc() override {
    for (u32 k = 1; k < hw::kMpkNumPkeys; ++k) {
      if (!alloc_[k]) {
        alloc_.set(k);
        return k;
      }
    }
    return os::err::kNoSpc;
  }

  i64 free_key(u32 pkey) override {
    if (pkey == 0 || pkey >= hw::kMpkNumPkeys || !alloc_[pkey]) {
      return os::err::kInval;
    }
    // Eager free: no dirty map, no page scrub — the use-after-free window
    // opens here.
    alloc_.reset(pkey);
    return 0;
  }

  bool allocated(u32 pkey) const override {
    return pkey < hw::kMpkNumPkeys && alloc_[pkey];
  }

  bool assignable(u32 pkey) const override { return allocated(pkey); }

  bool page_delta(u32 /*pkey*/, i64 /*pages*/) override {
    return false;  // Linux's MPK support keeps no per-key page counts
  }

  void save_state(ByteWriter& w) const override { w.field(as<u64>(alloc_)); }
  void load_state(ByteReader& r) override { r.field(as<u64>(alloc_)); }

 private:
  std::bitset<hw::kMpkNumPkeys> alloc_;
};

}  // namespace sealpk::mpk
