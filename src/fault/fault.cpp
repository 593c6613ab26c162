#include "fault/fault.h"

#include <algorithm>

#include "vault/format.h"

namespace sealpk::fault {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPkrBitFlip: return "pkr-bit-flip";
    case FaultKind::kTlbCorrupt: return "tlb-corrupt";
    case FaultKind::kPteCorrupt: return "pte-corrupt";
    case FaultKind::kCamDropRefill: return "cam-drop-refill";
    case FaultKind::kCamDupRefill: return "cam-dup-refill";
    case FaultKind::kSpuriousTrap: return "spurious-trap";
    case FaultKind::kVaultJournalCorrupt: return "vault-journal-corrupt";
    case FaultKind::kVaultCommitFlip: return "vault-commit-flip";
    case FaultKind::kVkeyTableCorrupt: return "vkey-table-corrupt";
    case FaultKind::kNumKinds: break;
  }
  return "unknown";
}

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {
  for (const FaultKind kind :
       {FaultKind::kPkrBitFlip, FaultKind::kTlbCorrupt,
        FaultKind::kPteCorrupt, FaultKind::kSpuriousTrap,
        FaultKind::kVaultJournalCorrupt, FaultKind::kVaultCommitFlip,
        FaultKind::kVkeyTableCorrupt}) {
    if (plan_.has(kind)) step_kinds_.push_back(kind);
  }
  if (plan_.enabled && !step_kinds_.empty()) schedule_next(0);
}

// Geometric-ish gap sampling: uniform in [1, 2/rate] has the right mean, is
// O(1) per fault, and stays bit-reproducible for a given seed.
void FaultInjector::schedule_next(u64 now) {
  if (plan_.rate <= 0.0) {
    next_fire_ = ~u64{0};
    return;
  }
  const u64 mean = std::max<u64>(1, static_cast<u64>(1.0 / plan_.rate));
  next_fire_ = now + 1 + rng_.below(2 * mean);
}

void FaultInjector::record(FaultKind kind, const core::Hart& hart,
                           u64 detail0, u64 detail1) {
  ++lifetime_injected_;
  events_.push_back({kind, hart.instret(), detail0, detail1,
                     FaultResolution::kOutstanding});
  if (recorder_ != nullptr) {
    recorder_->emit(obs::EventKind::kFaultInjected, hart.instret(),
                    hart.cycles(), obs::kNoPkey, static_cast<u64>(kind),
                    detail0);
  }
}

void FaultInjector::maybe_inject(core::Hart& hart, os::Kernel& kernel) {
  if (!plan_.enabled || hart.instret() < next_fire_) return;
  if (!budget_left()) {
    next_fire_ = ~u64{0};
    return;
  }
  // Only strike while a thread is actually running user code: the injected
  // state is per-process, and a spurious trap needs a victim to resume.
  if (hart.priv() != core::Priv::kUser || !kernel.has_current_thread()) {
    return;
  }
  if (suppress_ > 0) {
    // Post-rollback replay: swallow the firing that doomed the previous
    // attempt. The fire point is consumed so the window re-executes clean.
    --suppress_;
    schedule_next(hart.instret());
    return;
  }
  const bool sealpk = hart.config().flavor == core::IsaFlavor::kSealPk;
  const FaultKind kind = step_kinds_[rng_.below(step_kinds_.size())];
  switch (kind) {
    case FaultKind::kPkrBitFlip: {
      if (!sealpk) break;  // no PKR SRAM in the MPK flavour
      const u32 row = static_cast<u32>(rng_.below(hw::kPkrRows));
      const u32 bit = static_cast<u32>(rng_.below(64));
      hart.pkr().corrupt_bit(row, bit);
      record(kind, hart, row, bit);
      break;
    }
    case FaultKind::kTlbCorrupt: {
      mem::Tlb& tlb = hart.dtlb();
      const size_t cap = tlb.capacity();
      const size_t start = rng_.below(cap);
      for (size_t i = 0; i < cap; ++i) {
        const size_t slot = (start + i) % cap;
        if (tlb.peek_slot(slot) == nullptr) continue;
        u16 pkey_xor = 0;
        u8 perm_xor = 0;
        bool flip_dirty = false;
        const u32 max_pkey =
            sealpk ? hw::kNumPkeys : (u32{1} << mem::pte::kMpkPkeyBits);
        switch (rng_.below(3)) {
          case 0:
            pkey_xor = static_cast<u16>(1 + rng_.below(max_pkey - 1));
            break;
          case 1:
            perm_xor = static_cast<u8>(1 + rng_.below(15));
            break;
          default:
            flip_dirty = true;
            break;
        }
        tlb.corrupt_slot(slot, pkey_xor, perm_xor, flip_dirty);
        record(kind, hart, slot,
               (static_cast<u64>(pkey_xor) << 16) |
                   (static_cast<u64>(perm_xor) << 1) |
                   (flip_dirty ? 1 : 0));
        break;
      }
      break;
    }
    case FaultKind::kPteCorrupt: {
      os::Process& proc =
          kernel.process(kernel.thread(kernel.current_tid()).pid);
      os::AddressSpace& as = *proc.aspace;
      const auto& vmas = as.vmas();
      if (vmas.empty()) break;
      auto it = vmas.begin();
      std::advance(it, rng_.below(vmas.size()));
      const os::Vma& vma = it->second;
      const u64 page =
          vma.start + (rng_.below(vma.pages()) << mem::kPageShift);
      const u64 slot = as.leaf_pte_addr(page);
      if (slot == 0) break;
      const u32 bit = static_cast<u32>(mem::pte::kPkeyShift +
                                       rng_.below(as.pkey_bits()));
      hart.mem().write_u64(slot,
                           hart.mem().read_u64(slot) ^ (u64{1} << bit));
      record(kind, hart, page, bit);
      break;
    }
    case FaultKind::kSpuriousTrap: {
      record(kind, hart, hart.pc(), 0);
      const int pid = kernel.thread(kernel.current_tid()).pid;
      hart.inject_trap(core::TrapCause::kMachineCheck, 0);
      kernel.handle_trap();
      resolve(kind, kernel.process(pid).exited
                        ? FaultResolution::kProcessKilled
                        : FaultResolution::kRecovered);
      break;
    }
    case FaultKind::kVaultJournalCorrupt:
    case FaultKind::kVaultCommitFlip: {
      // Bit rot inside the sealed-storage region: flip one bit of a journal
      // record. kVaultJournalCorrupt draws from the whole journal (intents
      // and commits alike); kVaultCommitFlip aims at the kernel-owned odd
      // (commit) slots only. The per-record FNV-1a must turn either into a
      // detected refusal, never silently served data.
      os::Process& proc =
          kernel.process(kernel.thread(kernel.current_tid()).pid);
      const std::optional<vault::VaultLocation> loc =
          vault::find_vault(*proc.aspace);
      if (!loc) break;  // no vault mapped: nothing to strike
      u64 index = rng_.below(loc->geo.journal_cap);
      if (kind == FaultKind::kVaultCommitFlip) index |= 1;
      const u64 byte_off = rng_.below(vault::kRecordSize);
      const u32 bit = static_cast<u32>(rng_.below(8));
      const u64 addr = loc->base + loc->geo.record_off(index) + byte_off;
      u8 byte = 0;
      if (!proc.aspace->copy_in(addr, &byte, 1)) break;
      byte ^= static_cast<u8>(u8{1} << bit);
      if (!proc.aspace->copy_out(addr, &byte, 1)) break;
      record(kind, hart, addr, bit);
      break;
    }
    case FaultKind::kVkeyTableCorrupt: {
      // Flip low bits of a live mapping's recorded physical key. The table
      // is kernel metadata, not guest memory: only the vkey-coherence audit
      // (PTE ground truth vs table) can see and repair the drift.
      os::Process& proc =
          kernel.process(kernel.thread(kernel.current_tid()).pid);
      if (!proc.vkeys) break;  // process never virtualized
      std::vector<u64> live;
      for (const auto& [vkey, entry] : proc.vkeys->entries()) {
        // Only strike entries that own pages: a mapping with no groups has
        // no PTE ground truth, so its corruption could never be detected.
        if (entry.state != mpk::VkeyState::kUnmapped && !entry.groups.empty()) {
          live.push_back(vkey);
        }
      }
      if (live.empty()) break;
      const u64 vkey = live[rng_.below(live.size())];
      const u32 mask = static_cast<u32>(1 + rng_.below(hw::kNumPkeys - 1));
      mpk::VkeyEntry* entry = proc.vkeys->find(vkey);
      proc.vkeys->force_phys(vkey, (entry->phys ^ mask) % hw::kNumPkeys);
      record(kind, hart, vkey, mask);
      break;
    }
    case FaultKind::kCamDropRefill:
    case FaultKind::kCamDupRefill:
    case FaultKind::kNumKinds:
      break;  // never in step_kinds_
  }
  schedule_next(hart.instret());
}

bool FaultInjector::should_drop_refill(const core::Hart& hart) {
  if (!plan_.enabled || !plan_.has(FaultKind::kCamDropRefill)) return false;
  if (budget_left() && rng_.chance(plan_.cam_rate)) {
    if (suppress_ > 0) {
      --suppress_;  // swallowed: the refill goes through after all
    } else {
      record(FaultKind::kCamDropRefill, hart, 0, 0);
      return true;
    }
  }
  // This refill goes through, completing the retry of any earlier drop.
  resolve(FaultKind::kCamDropRefill, FaultResolution::kRecovered);
  return false;
}

bool FaultInjector::should_dup_refill(const core::Hart& hart) {
  if (!plan_.enabled || !plan_.has(FaultKind::kCamDupRefill)) return false;
  if (!budget_left() || !rng_.chance(plan_.cam_rate)) return false;
  if (suppress_ > 0) {
    --suppress_;
    return false;
  }
  record(FaultKind::kCamDupRefill, hart, 0, 0);
  return true;
}

void FaultInjector::note_recoveries(const os::Kernel& kernel) {
  const os::KernelStats& stats = kernel.stats();
  if (stats.pkr_scrubs > seen_pkr_scrubs_) {
    resolve(FaultKind::kPkrBitFlip, FaultResolution::kRecovered);
  }
  if (stats.tlb_flush_recoveries > seen_tlb_flushes_) {
    resolve(FaultKind::kTlbCorrupt, FaultResolution::kRecovered);
  }
  if (stats.pte_repairs > seen_pte_repairs_) {
    resolve(FaultKind::kPteCorrupt, FaultResolution::kRecovered);
  }
  if (stats.cam_dedups > seen_cam_dedups_) {
    resolve(FaultKind::kCamDupRefill, FaultResolution::kRecovered);
  }
  if (stats.vkey_repairs > seen_vkey_repairs_) {
    resolve(FaultKind::kVkeyTableCorrupt, FaultResolution::kRecovered);
  }
  // spurious_fault_fixes needs no kind mapping of its own: each fix bumps
  // one of the per-kind counters above as well (pte_repairs / pkr_scrubs /
  // tlb_flush_recoveries), which attributes the event.
  seen_pkr_scrubs_ = stats.pkr_scrubs;
  seen_tlb_flushes_ = stats.tlb_flush_recoveries;
  seen_pte_repairs_ = stats.pte_repairs;
  seen_cam_dedups_ = stats.cam_dedups;
  seen_vkey_repairs_ = stats.vkey_repairs;

  const u64 corruption_detected = kernel.vault_stats().corruption_detected;
  if (corruption_detected > seen_vault_detected_) {
    resolve(FaultKind::kVaultJournalCorrupt, FaultResolution::kRecovered);
    resolve(FaultKind::kVaultCommitFlip, FaultResolution::kRecovered);
  }
  seen_vault_detected_ = corruption_detected;
}

void FaultInjector::resolve(FaultKind kind, FaultResolution resolution) {
  for (auto& event : events_) {
    if (event.kind == kind &&
        event.resolution == FaultResolution::kOutstanding) {
      event.resolution = resolution;
    }
  }
}

void FaultInjector::resolve_all_outstanding(FaultResolution resolution) {
  for (auto& event : events_) {
    if (event.resolution == FaultResolution::kOutstanding) {
      event.resolution = resolution;
    }
  }
}

u64 FaultInjector::injected(FaultKind kind) const {
  u64 n = 0;
  for (const auto& event : events_) {
    if (event.kind == kind) ++n;
  }
  return n;
}

u64 FaultInjector::resolved(FaultKind kind,
                            FaultResolution resolution) const {
  u64 n = 0;
  for (const auto& event : events_) {
    if (event.kind == kind && event.resolution == resolution) ++n;
  }
  return n;
}

u64 FaultInjector::outstanding() const {
  u64 n = 0;
  for (const auto& event : events_) {
    if (event.resolution == FaultResolution::kOutstanding) ++n;
  }
  return n;
}

template <typename Io, typename Self>
void FaultInjector::fields(Io& io, Self& self) {
  u64 rng = self.rng_.state();
  io.fields(rng, self.next_fire_, self.suppress_);
  if constexpr (Io::kLoading) self.rng_.set_state(rng);
  // kind, instret, detail0, detail1, resolution.
  io.seq(self.events_, 1 + 8 + 8 + 8 + 1, [&](auto& event) {
    io.fields(as<u8>(event.kind), event.instret, event.detail0,
              event.detail1, as<u8>(event.resolution));
  });
  io.fields(self.seen_pkr_scrubs_, self.seen_tlb_flushes_,
            self.seen_pte_repairs_, self.seen_cam_dedups_);
}

void FaultInjector::save_state(ByteWriter& w) const { fields(w, *this); }

void FaultInjector::load_state(ByteReader& r) {
  fields(r, *this);
  // Deliberately NOT restored: across a rollback the lifetime count keeps
  // every firing of the doomed attempt, so max_faults stays a hard budget.
  // A fresh restore (new injector) starts from the recorded history.
  lifetime_injected_ = std::max<u64>(lifetime_injected_, events_.size());
}

}  // namespace sealpk::fault
