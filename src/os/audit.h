// The kernel's consistency audit: the typed findings of Kernel::audit().
//
// SealPK's guarantees hold only while the hardware state matches the
// kernel's software truth. The audit cross-checks seven invariants (each a
// typed AuditCheck):
//   - PKR integrity: every SRAM row's stored parity matches its contents,
//     and (when the kernel swaps PKR on switch) the rows equal the running
//     thread's saved PKR context.
//   - TLB coherence: every valid DTLB/ITLB line agrees with the live leaf
//     PTE it caches (permissions, ppn, pkey; dirty may lag, never lead).
//   - PK-CAM duplicates: at most one CAM line per pkey.
//   - Key counters: the KeyManager's per-pkey page counters equal the page
//     counts recomputed from the VMAs, and the dirty bitmap only marks
//     keys that still have pages.
//   - PTE vs VMA: every leaf PTE carries the permission bits and pkey its
//     owning VMA prescribes (A/D bits excluded).
//   - Scheduler: run-queue tids exist, are not exited, are not duplicated,
//     and do not include the running thread.
//   - Vkey coherence: every live (mapped or draining) virtual key in a
//     process's vkey table records the physical key its pages are actually
//     keyed to in the PTEs, and no two live vkeys claim the same physical
//     key.
//
// Each predicate is written once (os/audit.cpp) and shared by the
// detector, the repair that acts on its findings, and the page-fault and
// machine-check recovery paths.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bits.h"

namespace sealpk::os {

enum class AuditCheck : u8 {
  kPkrParity = 0,
  kPkrShadow,
  kTlbCoherence,
  kCamDuplicates,
  kKeyCounters,
  kPteVsVma,
  kScheduler,
  kVkeyCoherence,
};

const char* audit_check_name(AuditCheck check);

struct AuditFinding {
  AuditCheck check = AuditCheck::kPkrParity;
  u64 detail0 = 0;  // check-specific: row / slot / pid / pkey / tid
  u64 detail1 = 0;  // check-specific: value / vaddr / key / count
};

struct AuditReport {
  std::vector<AuditFinding> findings;

  bool clean() const { return findings.empty(); }
  size_t count(AuditCheck check) const;
};

}  // namespace sealpk::os
