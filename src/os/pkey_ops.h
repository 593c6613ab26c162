// The kernel's pkey glue: what the pkey syscalls and the CAM-miss handler
// do to the key manager, the PKR and SealReg/PK-CAM, free of the hart and
// the cycle model. The kernel and the model checker's harness both call
// it, so the model checks the kernel's own glue (DESIGN.md §12).
#pragma once

#include "hw/seal_unit.h"
#include "os/key_manager.h"

namespace sealpk::os {

// The shipping fault policy: every switch off. The model checker's
// mutation self-tests turn one on (model::Mutation names what each breaks).
struct FaithfulKernel {
  static constexpr bool kSkipFreeClear = false;
  static constexpr bool kSkipDrainScrub = false;
  static constexpr bool kEagerFreeClear = false;
  static constexpr bool kForgetDirty = false;
  static constexpr bool kRefillWrongRange = false;
};

// pkey_mprotect's seal vetoes (§IV) for moving a page keyed `from` to
// `to`: EPERM when `from`'s domain is sealed, or when `to`'s pages are
// sealed and it would gain one; else 0.
inline i64 retag_veto(const KeyManager& keys, u32 from, u32 to) {
  if (keys.domain_sealed(from)) return err::kPerm;
  if (from != to && keys.pages_sealed(to)) return err::kPerm;
  return 0;
}

// One process's pkey units. `Pkr` is hw::Pkr or any type with its
// set_perm(pkey, perm), such as the kernel's views that keep the threads'
// saved PKR rows in step.
template <class Fault = FaithfulKernel, class Pkr = hw::Pkr>
class PkeyOps {
 public:
  PkeyOps(KeyManager& keys, Pkr& pkr, hw::SealUnit& seal)
      : keys_(keys), pkr_(pkr), seal_(seal) {}

  KeyManager& keys() const { return keys_; }

  // pkey_alloc: a fresh key opens with the caller's initial permission.
  i64 alloc(u8 perm) const {
    const i64 pkey = keys_.alloc();
    if (pkey >= 0) pkr_.set_perm(static_cast<u32>(pkey), perm);
    return pkey;
  }

  // pkey_free, lazy de-allocation (§III-B.1): the key's PKR field drops to
  // (0,0) so the PTEs alone govern its orphan pages. A key no page carries
  // is released at once, SealReg bit and PK-CAM range included, or a later
  // pkey_alloc would hand out the previous owner's seal; one with pages
  // stays quarantined until count_pages() drains it.
  i64 free(u32 pkey) const {
    const i64 rc = keys_.free_key(pkey);
    if (rc != 0) return rc;
    pkr_.set_perm(pkey, 0);
    if (Fault::kEagerFreeClear ||
        (!Fault::kSkipFreeClear && !keys_.dirty(pkey))) {
      seal_.clear_key(pkey);
    }
    if constexpr (Fault::kForgetDirty) {
      auto& sealpk = dynamic_cast<SealPkKeyManager&>(keys_);
      SealPkKeyManager::State state = sealpk.state();
      state.dirty.reset(pkey);
      sealpk.set_state(state);
    }
    return 0;
  }

  // Moves `pages` pages onto `pkey` (negative: off it). Returns true when
  // that drained a quarantined key, which drain() has then scrubbed.
  bool count_pages(u32 pkey, i64 pages) const {
    if (!keys_.page_delta(pkey, pages)) return false;
    drain(pkey);
    return true;
  }

  // A quarantined key's last page is gone: its seal dissolves and its PKR
  // field closes, so the key's next owner starts fresh.
  void drain(u32 pkey) const {
    if (!Fault::kSkipDrainScrub) seal_.clear_key(pkey);
    pkr_.set_perm(pkey, 0);
  }

  // pkey_perm_seal (§IV): file the permissible range, burn the SealReg
  // fuse and warm the PK-CAM with the range.
  i64 perm_seal(u32 pkey, SealRange range) const {
    const i64 rc = keys_.set_perm_seal(pkey, range);
    if (rc != 0) return rc;
    seal_.set_sealed(pkey);
    refill(pkey, range);
    return 0;
  }

  // Installs `pkey`'s range in the PK-CAM: perm_seal's warm-up, and the
  // WRPKR CAM-miss service once the caller has found the range on file
  // (with none on file, the WRPKR is a fatal seal violation).
  void refill(u32 pkey, SealRange range) const {
    seal_.refill(pkey, range.start + (Fault::kRefillWrongRange ? 4 : 0),
                 range.end);
  }

 private:
  KeyManager& keys_;
  Pkr& pkr_;
  hw::SealUnit& seal_;
};

}  // namespace sealpk::os
