// Observability event schema (DESIGN.md §10).
//
// One fixed-size record per interesting architectural moment: pkey
// lifecycle, domain transitions, traps/denials/violations, context
// switches, CAM refills, checkpoints/rollbacks, injected faults and
// profiler samples. Every event is timestamped with the hart's retired
// instruction count and modelled cycle count — never wall-clock — so a
// trace is a pure function of (program, config, seed) and byte-identical
// across hosts, runs and fleet thread counts.
#pragma once

#include "common/bits.h"
#include "common/serial.h"

namespace sealpk::obs {

// Events that concern the machine as a whole rather than one pkey carry
// this sentinel in Event::pkey.
inline constexpr u32 kNoPkey = 0xFFFFFFFFu;

enum class EventKind : u8 {
  // pkey lifecycle
  kPkeyAlloc = 0,    // arg0 = initial PKR permission bits
  kPkeyFree = 1,     // arg0 = pages still resident (lazy-drain pending)
  kPkeyLazyDrain = 2,
  kPkeyMprotect = 3, // arg0 = vaddr, arg1 = pages tagged
  kPkeySeal = 4,     // arg0 = seal_domain, arg1 = seal_page
  kPkeyPermSeal = 5, // arg0 = range start, arg1 = range end
  kPkeyPages = 6,    // arg0 = signed page delta, arg1 = resulting count
  // domain transitions
  kWrpkr = 7,        // arg0 = old PKR row, arg1 = new PKR row
  kRdpkr = 8,        // arg0 = PKR row read
  // faults and denials
  kPkeyDenial = 9,     // arg0 = faulting vaddr, arg1 = 1 if store
  kSealViolation = 10, // arg0 = faulting pc
  kTrap = 11,          // arg0 = scause, arg1 = stval
  kPageFault = 12,     // arg0 = faulting vaddr, arg1 = scause
  // kernel / machine
  kSyscall = 13,       // arg0 = syscall number
  kContextSwitch = 14, // arg0 = previous tid, arg1 = next tid
  kCamRefill = 15,     // arg0 = range start, arg1 = range end
  kCheckpoint = 16,    // arg0 = checkpoint ordinal, arg1 = blob bytes
  kRollback = 17,      // arg0 = rollback ordinal, arg1 = faults outstanding
  kProcessExit = 18,   // arg0 = exit code (sign-extended), arg1 = pid
  kProcessKill = 19,   // arg0 = exit code (sign-extended), arg1 = origin
  kFaultInjected = 20, // arg0 = fault kind, arg1 = detail
  // profiler
  kSample = 21, // arg0 = next pc, arg1 = its instruction word (0: unmapped)
  // request plane (src/serve)
  kGateEnter = 22,           // arg0 = request index, arg1 = handler slot
  kGateExit = 23,            // arg0 = request index, arg1 = checksum
  kRequestDisposition = 24,  // arg0 = request index, arg1 = disposition
  kQuarantine = 25,          // arg0 = handler slot, arg1 = strike count
  // sealed-storage vault (src/vault)
  kVaultIntent = 26,  // arg0 = bundle id, arg1 = sequence
  kVaultCommit = 27,  // arg0 = bundle id, arg1 = sequence
  kVaultUnseal = 28,  // arg0 = bundle id, arg1 = byte length
  kVaultDenied = 29,  // arg0 = bundle id, arg1 = errno (negated)
  // pkey virtualization (src/mpk/vkey_table.h); Event::pkey carries the
  // physical key involved, args carry the virtual key.
  kVkeyMap = 30,    // arg0 = vkey, arg1 = pages re-keyed at map-in
  kVkeyEvict = 31,  // arg0 = vkey, arg1 = 1 if lazily drained (queued)
  kVkeySync = 32,   // arg0 = pages parked, arg1 = vkeys drained in batch
};

inline constexpr u32 kEventKindCount = 33;

const char* event_kind_name(EventKind kind);

// Fixed-layout event record. `pid`/`tid` are stamped by the recorder from
// the scheduling context current at emit time; `instret`/`cycles` come from
// the publishing hart.
struct Event {
  EventKind kind = EventKind::kTrap;
  u32 pid = 0;
  u32 tid = 0;
  u32 pkey = kNoPkey;
  u64 instret = 0;
  u64 cycles = 0;
  u64 arg0 = 0;
  u64 arg1 = 0;

  bool operator==(const Event&) const = default;

  // Wire layout inside a SPKTRACE blob (obs/recorder.cpp).
  static constexpr u64 kWireBytes = 1 + 3 * 4 + 4 * 8;
  template <typename Io, typename Self>
  static void fields(Io& io, Self& e) {
    io.fields(as<u8>(e.kind), e.pid, e.tid, e.pkey, e.instret, e.cycles,
              e.arg0, e.arg1);
  }
};

}  // namespace sealpk::obs
