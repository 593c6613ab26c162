// The protection-key syscalls: pkey_mprotect/alloc/free, the SealPK
// sealing calls (paper §IV) and the virtualized vpkey_* calls.
#include "os/kernel.h"

namespace sealpk::os {

i64 Kernel::retag_pages(u64 addr, u64 len, u64 prot, u32 pkey) {
  const auto& t = hart_.timing();
  const i64 pages = current_aspace().protect_pkey(addr, len, prot, pkey,
                                                  &current_keys(),
                                                  page_delta_hook());
  hart_.add_cycles(t.vma_lookup_cycles);
  if (pages >= 0) {
    hart_.add_cycles(static_cast<u64>(pages) * t.pte_update_cycles);
    stats_.pte_pages_updated += static_cast<u64>(pages);
  }
  return pages;
}

i64 Kernel::sys_pkey_mprotect(u64 addr, u64 len, u64 prot, u64 pkey) {
  if (!current_keys().assignable(static_cast<u32>(pkey))) return err::kInval;
  const i64 pages = retag_pages(addr, len, prot, static_cast<u32>(pkey));
  if (pages < 0) return pages;
  hart_.add_cycles(hart_.timing().tlb_flush_cycles);
  hart_.flush_tlbs();
  emit(obs::EventKind::kPkeyMprotect, static_cast<u32>(pkey), addr,
       static_cast<u64>(pages));
  return 0;
}

i64 Kernel::sys_pkey_alloc(u64 flags, u64 init_perm) {
  if (flags != 0 || init_perm > 3) return err::kInval;
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  const i64 pkey = pkeys().alloc(static_cast<u8>(init_perm));
  if (pkey >= 0) {
    emit(obs::EventKind::kPkeyAlloc, static_cast<u32>(pkey), init_perm, 0);
  }
  return pkey;
}

i64 Kernel::sys_pkey_free(u64 pkey) {
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  const u32 k = static_cast<u32>(pkey);
  // The Intel-MPK flavour only drops the allocation bit, leaving PKRU and
  // the PTEs untouched: Linux's eager free, use-after-free bug included.
  const bool sealpk = hart_.config().flavor == core::IsaFlavor::kSealPk;
  const i64 rc = sealpk ? pkeys().free(k) : current_keys().free_key(k);
  if (rc != 0) return rc;
  emit(obs::EventKind::kPkeyFree, k, current_keys().page_count(k), 0);
  // The closed PKR field reaches every sibling's saved PKR too.
  if (sealpk) SavedPkr{*this, current_process()}.set_perm(k, 0);
  return 0;
}

i64 Kernel::sys_pkey_seal(u64 pkey, u64 seal_domain, u64 seal_page) {
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  const i64 rc = current_keys().seal(static_cast<u32>(pkey),
                                     seal_domain != 0, seal_page != 0);
  if (rc == 0) {
    emit(obs::EventKind::kPkeySeal, static_cast<u32>(pkey), seal_domain,
         seal_page);
  }
  return rc;
}

i64 Kernel::sys_pkey_perm_seal(u64 pkey) {
  const auto& t = hart_.timing();
  hart_.add_cycles(t.pkey_bookkeeping_cycles);
  const SealRange range{hart_.csrs().seal_start, hart_.csrs().seal_end};
  const i64 rc = pkeys().perm_seal(static_cast<u32>(pkey), range);
  if (rc != 0) return rc;
  // Committed via the supervisor-only custom instruction path (spk.range +
  // spk.seal), modelled as direct unit updates with the same cycle cost.
  hart_.add_cycles(2 * t.rocc_cycles);
  emit(obs::EventKind::kPkeyPermSeal, static_cast<u32>(pkey), range.start,
       range.end);
  return 0;
}

// Maps the vkey table's side-effect port onto the kernel's real mechanisms,
// with the same cycle charging as the raw pkey syscalls: rekey() is a
// pkey_mprotect minus its per-call TLB flush (the table batches those),
// acquire_phys() is a pkey_alloc, set_perm() is the shared PKR write path.
struct VkeyKernelOps final : mpk::VkeyOps {
  Kernel& k;
  explicit VkeyKernelOps(Kernel& kernel) : k(kernel) {}

  i64 acquire_phys() override {
    k.hart_.add_cycles(k.hart_.timing().pkey_bookkeeping_cycles);
    return k.current_keys().alloc();
  }

  i64 rekey(u64 addr, u64 len, u64 prot, u32 pkey) override {
    return k.retag_pages(addr, len, prot, pkey);
  }

  void set_perm(u32 pkey, u8 perm) override {
    k.live_pkr_.set_perm(pkey, perm);
  }

  void flush_tlb() override {
    k.hart_.add_cycles(k.hart_.timing().tlb_flush_cycles);
    k.hart_.flush_tlbs();
  }

  void note_map(u64 vkey, u32 phys, u64 pages) override {
    k.emit(obs::EventKind::kVkeyMap, phys, vkey, pages);
  }

  void note_evict(u64 vkey, u32 phys, bool drained) override {
    k.emit(obs::EventKind::kVkeyEvict, phys, vkey, drained ? 1 : 0);
  }

  void note_sync(u64 pages, u64 vkeys) override {
    k.emit(obs::EventKind::kVkeySync, obs::kNoPkey, pages, vkeys);
  }
};

mpk::VkeyTable& Kernel::ensure_vkeys(Process& proc) {
  if (!proc.vkeys) {
    mpk::VkeyTableConfig cfg;
    cfg.mru_slots = config_.vkey_mru_slots;
    cfg.lazy_sync = config_.vkey_lazy_sync;
    proc.vkeys = std::make_unique<mpk::VkeyTable>(cfg);
  }
  return *proc.vkeys;
}

i64 Kernel::sys_vpkey_alloc(u64 flags, u64 init_perm) {
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  // Pure metadata: the physical binding happens at first vpkey_set.
  return ensure_vkeys(current_process()).alloc(flags,
                                               static_cast<u8>(init_perm));
}

i64 Kernel::sys_vpkey_free(u64 vkey) {
  Process& proc = current_process();
  if (!proc.vkeys) return err::kInval;
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  VkeyKernelOps ops(*this);
  return proc.vkeys->free_vkey(ops, vkey);
}

i64 Kernel::sys_vpkey_mprotect(u64 addr, u64 len, u64 prot, u64 vkey) {
  Process& proc = current_process();
  if (!proc.vkeys) return err::kInval;
  VkeyKernelOps ops(*this);
  return proc.vkeys->mprotect(ops, addr, len, prot, vkey);
}

i64 Kernel::sys_vpkey_set(u64 vkey, u64 perm) {
  Process& proc = current_process();
  if (!proc.vkeys) return err::kInval;
  VkeyKernelOps ops(*this);
  const i64 rc = proc.vkeys->set(ops, vkey, static_cast<u8>(perm));
  if (rc < 0) return rc;
  // An MRU-cache hit is just the PKR write; anything deeper pays the
  // bookkeeping path (the rekey/flush costs were charged by the ops).
  const auto outcome = static_cast<mpk::VkeySetOutcome>(rc);
  hart_.add_cycles(outcome == mpk::VkeySetOutcome::kMruHit
                       ? hart_.timing().rocc_cycles
                       : hart_.timing().pkey_bookkeeping_cycles);
  return 0;
}

}  // namespace sealpk::os
