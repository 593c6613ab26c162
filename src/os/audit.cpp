// The kernel's consistency audit and every repair path that acts on it:
// the periodic audit (Kernel::audit / audit_and_recover), the page-fault
// path's spurious-fault repair and the machine-check handler. Each
// invariant's predicate is written once here and shared by all three.
#include "os/audit.h"

#include <map>
#include <set>
#include <vector>

#include "mem/pte.h"
#include "os/kernel.h"

namespace sealpk::os {

namespace {

// TLB line vs. live PTE: a cached translation must agree with the leaf PTE
// it caches. Only the DTLB carries a pkey; the cached dirty bit may lag the
// PTE's D (a flush-then-load refill), never lead it.
bool tlb_line_coherent(const mem::TlbEntry* cached, u64 pte, bool is_data,
                       unsigned pkey_bits) {
  return cached->ppn == mem::pte::ppn_of(pte) &&
         cached->r == ((pte & mem::pte::kR) != 0) &&
         cached->w == ((pte & mem::pte::kW) != 0) &&
         cached->x == ((pte & mem::pte::kX) != 0) &&
         cached->user == ((pte & mem::pte::kU) != 0) &&
         (!is_data || cached->pkey == mem::pte::pkey_of(pte, pkey_bits)) &&
         !(cached->dirty && (pte & mem::pte::kD) == 0);
}

// Per-pkey page counts recomputed from the VMAs: the key counters' truth.
std::vector<u64> vma_pages_by_pkey(const AddressSpace& as, unsigned num_keys) {
  std::vector<u64> pages(num_keys);
  for (const auto& [start, vma] : as.vmas()) {
    if (vma.pkey < num_keys) pages[vma.pkey] += vma.pages();
  }
  return pages;
}

// The detail1 values (vaddr / pkey / vkey) of the findings of a per-process
// `check`, grouped by their pid in ascending order.
std::map<int, std::vector<u64>> by_pid(const AuditReport& report,
                                       AuditCheck check) {
  std::map<int, std::vector<u64>> out;
  for (const AuditFinding& f : report.findings) {
    if (f.check == check) out[static_cast<int>(f.detail0)].push_back(f.detail1);
  }
  return out;
}

}  // namespace

const char* audit_check_name(AuditCheck check) {
  switch (check) {
    case AuditCheck::kPkrParity: return "pkr-parity";
    case AuditCheck::kPkrShadow: return "pkr-shadow";
    case AuditCheck::kTlbCoherence: return "tlb-coherence";
    case AuditCheck::kCamDuplicates: return "cam-duplicates";
    case AuditCheck::kKeyCounters: return "key-counters";
    case AuditCheck::kPteVsVma: return "pte-vs-vma";
    case AuditCheck::kScheduler: return "scheduler";
    case AuditCheck::kVkeyCoherence: return "vkey-coherence";
  }
  return "unknown";
}

size_t AuditReport::count(AuditCheck check) const {
  size_t n = 0;
  for (const AuditFinding& finding : findings) {
    if (finding.check == check) ++n;
  }
  return n;
}

// --- predicates ------------------------------------------------------------

bool Kernel::pkr_shadow_trusted() const {
  // Without PKR save/restore on switch the hardware rows are shared mutable
  // state and the thread context is stale by design.
  return config_.save_pkr_on_switch && has_current_thread();
}

std::optional<AuditCheck> Kernel::pkr_row_fault(u32 row) const {
  const hw::Pkr& pkr = hart_.pkr();
  if (!pkr.parity_ok(row)) return AuditCheck::kPkrParity;
  // The shadow compare catches even-weight corruption the parity misses.
  if (pkr_shadow_trusted() &&
      pkr.peek_row(row) != thread(current_tid_).ctx.pkr[row]) {
    return AuditCheck::kPkrShadow;
  }
  return std::nullopt;
}

bool Kernel::queued_tid_ok(int tid, std::set<int>& seen) const {
  const bool ok = has_thread(tid) && !thread(tid).exited &&
                  tid != current_tid_ && seen.count(tid) == 0;
  seen.insert(tid);
  return ok;
}

// --- detection (peek-only) -------------------------------------------------

AuditReport Kernel::audit() const {
  AuditReport report;
  audit_pkr(report);
  audit_tlbs(report);
  audit_cam(report);
  audit_processes(report);
  audit_scheduler(report);
  audit_vkeys(report);
  return report;
}

void Kernel::audit_pkr(AuditReport& report) const {
  if (hart_.config().flavor != core::IsaFlavor::kSealPk) return;
  // All parity findings first, then the shadow findings.
  for (const AuditCheck check :
       {AuditCheck::kPkrParity, AuditCheck::kPkrShadow}) {
    for (u32 row = 0; row < hw::kPkrRows; ++row) {
      if (pkr_row_fault(row) == check) {
        report.findings.push_back({check, row, hart_.pkr().peek_row(row)});
      }
    }
  }
}

void Kernel::audit_tlbs(AuditReport& report) const {
  // TLB contents cache the *current* address space (both TLBs are flushed
  // on process switch, munmap and mprotect), so there is nothing to check
  // against without a running thread.
  if (!has_current_thread()) return;
  const AddressSpace& as = *process(thread(current_tid_).pid).aspace;
  for (const bool is_data : {true, false}) {
    const mem::Tlb& tlb = is_data ? hart_.dtlb() : hart_.itlb();
    for (size_t i = 0; i < tlb.capacity(); ++i) {
      const mem::TlbEntry* cached = tlb.peek_slot(i);
      if (cached == nullptr) continue;
      const u64 vaddr = cached->vpn << mem::kPageShift;
      const auto leaf = as.leaf_pte(vaddr);
      if (!leaf.has_value() ||
          !tlb_line_coherent(cached, *leaf, is_data, as.pkey_bits())) {
        report.findings.push_back({AuditCheck::kTlbCoherence, i, vaddr});
      }
    }
  }
}

void Kernel::audit_cam(AuditReport& report) const {
  if (hart_.config().flavor != core::IsaFlavor::kSealPk) return;
  const hw::SealUnit& unit = hart_.seal_unit();
  std::set<u32> flagged;
  for (size_t i = 0; i < hw::kPkCamEntries; ++i) {
    const hw::CamEntry* entry = unit.cam_slot(i);
    if (entry == nullptr || flagged.count(entry->pkey)) continue;
    const size_t n = unit.cam_count_of(entry->pkey);
    if (n > 1) {
      flagged.insert(entry->pkey);
      report.findings.push_back({AuditCheck::kCamDuplicates, entry->pkey, n});
    }
  }
}

void Kernel::audit_processes(AuditReport& report) const {
  const bool sealpk = hart_.config().flavor == core::IsaFlavor::kSealPk;
  for (const auto& [pid, proc] : processes_) {
    if (proc->exited) continue;
    const AddressSpace& as = *proc->aspace;
    const u64 pid64 = static_cast<u64>(pid);
    for (const auto& [start, vma] : as.vmas()) {
      for (u64 va = vma.start; va < vma.end; va += mem::kPageSize) {
        const auto leaf = as.leaf_pte(va);
        if (!leaf.has_value() || *leaf != as.prescribed_pte(vma, *leaf)) {
          report.findings.push_back({AuditCheck::kPteVsVma, pid64, va});
        }
      }
    }
    if (!sealpk) continue;
    const KeyManager& keys = *proc->keys;
    const std::vector<u64> pages = vma_pages_by_pkey(as, keys.num_keys());
    for (u32 k = 0; k < keys.num_keys(); ++k) {
      // A dirty (lazily de-allocated) key with no pages should have been
      // drained; a key can never be both allocated and dirty.
      const bool dirty_bad =
          keys.dirty(k) && (keys.page_count(k) == 0 || keys.allocated(k));
      if (keys.page_count(k) != pages[k] || dirty_bad) {
        report.findings.push_back({AuditCheck::kKeyCounters, pid64, k});
      }
    }
  }
}

void Kernel::audit_scheduler(AuditReport& report) const {
  std::set<int> seen;
  for (const int tid : run_queue_) {
    if (!queued_tid_ok(tid, seen)) {
      report.findings.push_back(
          {AuditCheck::kScheduler, static_cast<u64>(tid)});
    }
  }
  if (has_current_thread() && thread(current_tid_).exited) {
    report.findings.push_back(
        {AuditCheck::kScheduler, static_cast<u64>(current_tid_), 1});
  }
}

void Kernel::audit_vkeys(AuditReport& report) const {
  for (const auto& [pid, proc] : processes_) {
    if (proc->exited || !proc->vkeys) continue;
    const AddressSpace& as = *proc->aspace;
    std::set<u32> in_use = {proc->vkeys->park_key()};
    for (const auto& [vkey, entry] : proc->vkeys->entries()) {
      if (entry.state == mpk::VkeyState::kUnmapped) continue;
      // A live vkey must hold its physical key exclusively (the park key
      // included — it backs *unmapped* pages only), and every group's
      // pages must be keyed to it in the PTEs. Draining entries count too:
      // the key is not released until the drain flush re-parks the pages.
      bool ok = in_use.insert(entry.phys).second;
      for (const mpk::VkeyGroup& group : entry.groups) {
        if (!ok) break;
        ok = as.page_pkey(group.addr) == entry.phys;
      }
      if (!ok) {
        report.findings.push_back(
            {AuditCheck::kVkeyCoherence, static_cast<u64>(pid), vkey});
      }
    }
  }
}

// --- repair ----------------------------------------------------------------

AuditReport Kernel::audit_and_recover() {
  AuditReport report = audit();
  ++stats_.audit_runs;
  stats_.audit_findings += report.findings.size();
  if (report.clean()) return report;

  // Repairs run in a fixed order: PTEs before the TLB flush so the rewalk
  // picks up the corrected entries.
  recover_pkr(report);
  for (const auto& [pid, vaddrs] : by_pid(report, AuditCheck::kPteVsVma)) {
    u64 repaired = 0;
    for (const u64 va : vaddrs) {
      if (process(pid).aspace->repair_page(va)) ++repaired;
    }
    if (repaired == 0) continue;
    stats_.pte_repairs += repaired;
    hart_.add_cycles(repaired * hart_.timing().pte_update_cycles);
    // Drop any cached copies of the bad translations.
    if (has_current_thread() && thread(current_tid_).pid == pid) {
      recover_tlb_flush();
    }
  }
  if (report.count(AuditCheck::kTlbCoherence) > 0) recover_tlb_flush();
  for (const AuditFinding& f : report.findings) {
    if (f.check == AuditCheck::kCamDuplicates) {
      stats_.cam_dedups +=
          hart_.seal_unit().drop_duplicates(static_cast<u32>(f.detail0));
    }
  }
  for (const auto& [pid, pkeys] : by_pid(report, AuditCheck::kKeyCounters)) {
    KeyManager& keys = *process(pid).keys;
    const std::vector<u64> pages =
        vma_pages_by_pkey(*process(pid).aspace, keys.num_keys());
    for (const u64 pkey : pkeys) {
      const u32 k = static_cast<u32>(pkey);
      // Only the counter can be repaired; a bad dirty bit stays flagged.
      if (keys.page_count(k) == pages[k]) continue;
      // The reconciled truth may complete a drain, in any process.
      if (keys.reconcile_page_count(k, pages[k])) drain_key(pid, k);
      ++stats_.key_counter_repairs;
    }
  }
  if (report.count(AuditCheck::kScheduler) > 0) {
    std::set<int> seen;
    stats_.run_queue_scrubs += std::erase_if(
        run_queue_, [&](int tid) { return !queued_tid_ok(tid, seen); });
  }
  for (const auto& [pid, vkeys] : by_pid(report, AuditCheck::kVkeyCoherence)) {
    Process& proc = process(pid);
    if (!proc.vkeys) continue;
    // The PTEs are the ground truth: a vkey's pages stay keyed to its
    // physical key until freed or drained, so the first page of any group
    // names the key the table should be recording.
    u64 fixed = 0;
    for (const u64 vkey : vkeys) {
      const mpk::VkeyEntry* entry = proc.vkeys->find(vkey);
      if (entry == nullptr || entry->state == mpk::VkeyState::kUnmapped ||
          entry->groups.empty()) {
        continue;
      }
      const auto truth = proc.aspace->page_pkey(entry->groups.front().addr);
      if (truth.has_value() && *truth != entry->phys) {
        proc.vkeys->force_phys(vkey, *truth);
        ++fixed;
      }
    }
    if (fixed > 0) {
      proc.vkeys->rebuild_pool();
      stats_.vkey_repairs += fixed;
    }
  }
  return report;
}

bool Kernel::recover_pkr(const AuditReport& report) {
  bool unrecoverable = false;
  for (const AuditFinding& f : report.findings) {
    if (f.check != AuditCheck::kPkrParity &&
        f.check != AuditCheck::kPkrShadow) {
      continue;
    }
    if (!pkr_shadow_trusted()) {
      unrecoverable = true;  // a parity error with no shadow to scrub from
      continue;
    }
    const u32 row = static_cast<u32>(f.detail0);
    hart_.pkr().scrub_row(row, thread(current_tid_).ctx.pkr[row]);
    hart_.add_cycles(hart_.timing().pkr_row_swap_cycles);
    ++stats_.pkr_scrubs;
  }
  if (unrecoverable) kill_current(kExitMachineCheck, KillOrigin::kMachineCheck);
  return !unrecoverable;
}

void Kernel::recover_tlb_flush() {
  hart_.flush_tlbs();
  hart_.add_cycles(hart_.timing().tlb_flush_cycles);
  ++stats_.tlb_flush_recoveries;
}

void Kernel::handle_machine_check() {
  ++stats_.machine_checks;
  hart_.add_cycles(hart_.timing().fault_handler_cycles);
  if (!has_current_thread()) return;
  const u64 resume = hart_.csrs().sepc;
  AuditReport pkr;
  audit_pkr(pkr);
  if (!recover_pkr(pkr)) return;
  // Whatever raised the check may have left stale translations behind;
  // flush-and-rewalk restores TLB/PTE coherence wholesale.
  recover_tlb_flush();
  return_to_user(resume);
}

// Inspects the machine state behind a page fault and repairs anything that
// disagrees with the kernel's software truth. Only fires when the owning
// VMA actually grants the attempted access — otherwise the fault is
// architecturally correct and must surface to the guest. In clean runs
// nothing ever mismatches, so the checks below are read-only and the
// outcome is always kNone.
Kernel::Recovery Kernel::try_fault_recovery(const FaultRecord& rec) {
  if (!has_current_thread()) return Recovery::kNone;
  AddressSpace& as = current_aspace();
  const Vma* vma = as.find_vma(rec.addr);
  if (vma == nullptr) return Recovery::kNone;
  const bool want_exec = rec.cause == core::TrapCause::kInstPageFault;
  const bool want_write = rec.cause == core::TrapCause::kStorePageFault;
  const u64 need =
      want_exec ? prot::kExec : (want_write ? prot::kWrite : prot::kRead);
  if ((vma->prot & need) == 0) return Recovery::kNone;

  bool changed = false;
  // 1. Leaf PTE vs. VMA (a flipped pkey or permission bit in DRAM).
  if (as.repair_page(rec.addr)) {
    ++stats_.pte_repairs;
    hart_.add_cycles(hart_.timing().pte_update_cycles);
    changed = true;
  }
  // 2. Cached translation vs. the (now repaired) live PTE.
  const auto leaf = as.leaf_pte(rec.addr);
  if (leaf.has_value()) {
    const u64 vpn = mem::svxx::vpn_of(rec.addr, as.levels());
    const auto cached =
        want_exec ? hart_.itlb().peek(vpn) : hart_.dtlb().peek(vpn);
    if (cached.has_value() &&
        !tlb_line_coherent(&*cached, *leaf, !want_exec, as.pkey_bits())) {
      recover_tlb_flush();
      changed = true;
    }
  }
  // 3. On a pkey denial, the PKR row itself may be corrupt.
  if (rec.pkey_fault && hart_.config().flavor == core::IsaFlavor::kSealPk) {
    const u32 row = hw::pkr_row_of(rec.pkey);
    if (pkr_row_fault(row).has_value()) {
      if (!pkr_shadow_trusted()) {
        // No trustworthy shadow to scrub from: unrecoverable corruption.
        kill_current(kExitMachineCheck, KillOrigin::kMachineCheck);
        return Recovery::kKilled;
      }
      hart_.pkr().scrub_row(row, thread(current_tid_).ctx.pkr[row]);
      ++stats_.pkr_scrubs;
      changed = true;
    }
  }
  return changed ? Recovery::kRecovered : Recovery::kNone;
}

}  // namespace sealpk::os
