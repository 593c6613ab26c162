#include "obs/metrics.h"

#include <algorithm>

namespace sealpk::obs {

void Metrics::close_domain(u64 cycles) {
  // A rollback (or a mid-stream report) can place `cycles` before the
  // interval start; drop the interval instead of charging it negatively.
  if (cycles > domain_since_) {
    const u64 delta = cycles - domain_since_;
    auto& m = pkeys_[domain_];
    m.cycles_in_domain += delta;
    ++m.domain_visits;
    ++m.residency_log2[log2_bucket(delta)];
  }
  domain_since_ = cycles;
}

void Metrics::observe(const Event& e) {
  ++events_;
  switch (e.kind) {
    case EventKind::kPkeyAlloc:
      ++pkeys_[e.pkey].allocs;
      break;
    case EventKind::kPkeyFree:
      ++pkeys_[e.pkey].frees;
      break;
    case EventKind::kPkeyLazyDrain:
      ++pkeys_[e.pkey].lazy_drains;
      break;
    case EventKind::kPkeyMprotect:
      ++pkeys_[e.pkey].mprotects;
      break;
    case EventKind::kPkeySeal:
      ++pkeys_[e.pkey].seals;
      break;
    case EventKind::kPkeyPermSeal:
      ++pkeys_[e.pkey].perm_seals;
      break;
    case EventKind::kPkeyPages: {
      auto& m = pkeys_[e.pkey];
      m.pages_current = e.arg1;
      m.pages_hwm = std::max(m.pages_hwm, m.pages_current);
      break;
    }
    case EventKind::kWrpkr:
      ++pkeys_[e.pkey].wrpkr;
      close_domain(e.cycles);
      domain_ = e.pkey;
      break;
    case EventKind::kRdpkr:
      ++pkeys_[e.pkey].rdpkr;
      break;
    case EventKind::kPkeyDenial:
      ++pkeys_[e.pkey].denials;
      break;
    case EventKind::kSealViolation:
      ++pkeys_[e.pkey].seal_violations;
      break;
    case EventKind::kTrap:
      ++traps_;
      break;
    case EventKind::kPageFault:
      ++page_faults_;
      break;
    case EventKind::kSyscall:
      ++syscalls_;
      break;
    case EventKind::kContextSwitch:
      ++context_switches_;
      break;
    case EventKind::kCamRefill:
      ++pkeys_[e.pkey].cam_refills;
      break;
    case EventKind::kCheckpoint:
      ++checkpoints_;
      break;
    case EventKind::kRollback:
      ++rollbacks_;
      // Execution rewinds: restart the open residency interval at the
      // restored clock so the replayed span is charged exactly once.
      domain_since_ = e.cycles;
      break;
    case EventKind::kProcessExit:
    case EventKind::kProcessKill:
      break;
    case EventKind::kFaultInjected:
      ++faults_injected_;
      break;
    case EventKind::kSample:
      ++samples_;
      break;
    case EventKind::kGateEnter:
      ++gate_enters_;
      if (e.pkey != kNoPkey) ++pkeys_[e.pkey].gate_enters;
      break;
    case EventKind::kGateExit:
      ++gate_exits_;
      if (e.pkey != kNoPkey) ++pkeys_[e.pkey].gate_exits;
      break;
    case EventKind::kRequestDisposition:
      ++dispositions_;
      break;
    case EventKind::kQuarantine:
      ++quarantines_;
      break;
    // Vault and vkey events feed only the total event count.
    case EventKind::kVaultIntent:
    case EventKind::kVaultCommit:
    case EventKind::kVaultUnseal:
    case EventKind::kVaultDenied:
    case EventKind::kVkeyMap:
    case EventKind::kVkeyEvict:
    case EventKind::kVkeySync:
      break;
  }
}

void Metrics::finish(u64 cycles) { close_domain(cycles); }

TraceSummary Metrics::summary(u64 dropped) const {
  TraceSummary s;
  s.events = events_;
  s.dropped = dropped;
  s.samples = samples_;
  s.traps = traps_;
  s.syscalls = syscalls_;
  s.context_switches = context_switches_;
  for (const auto& [pkey, m] : pkeys_) {
    s.wrpkr += m.wrpkr;
    s.rdpkr += m.rdpkr;
    s.denials += m.denials;
    s.seal_violations += m.seal_violations;
    s.cam_refills += m.cam_refills;
    s.pages_hwm = std::max(s.pages_hwm, m.pages_hwm);
    const bool touched = m.allocs | m.frees | m.lazy_drains | m.mprotects |
                         m.seals | m.perm_seals | m.wrpkr | m.rdpkr |
                         m.denials | m.seal_violations | m.cam_refills |
                         m.pages_hwm;
    if (touched) ++s.pkeys_touched;
  }
  return s;
}

}  // namespace sealpk::obs
