// Guest-program builder for the serve workload (DESIGN.md §13).
//
// The built image is a one-process plugin server: a trusted monitor domain
// (pkey 1) dispatches an embedded request table to 2*primaries untrusted
// handler domains (pkey 2+slot; slots [0,P) are primaries, [P,2P) their
// replicas) through perm-sealed call gates. Each gate crossing is two
// WRPKRs per direction — one naming the monitor key, one naming the
// handler key — because merge_sealed_row only lets a WRPKR change the
// field of the key it names once both keys are sealed. All gates live
// between __gate_region_start/__gate_region_end, whose seal markers stage
// the monitor key's permissible range; each gate carries its own markers
// for its handler key. The monitor keeps every piece of control state it
// relies on (loop index, saved sp, gate return address, served counter,
// canary) in its own protected page and re-derives all registers after
// every gate call, so untrusted handlers can forge nothing the monitor
// trusts — the stack included.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "isa/program.h"
#include "serve/redteam.h"

namespace sealpk::serve {

// Guest-visible constants (shared with the host-side model and tests).
inline constexpr u64 kCanary = 0x5EA1CAFEF00DULL;
inline constexpr u32 kMonitorPkey = 1;
inline constexpr i64 kExitBadPkey = 91;   // pkey numbering assert failed
inline constexpr i64 kExitSealFailed = 92;  // pkey_perm_seal returned error
inline constexpr i64 kExitVaultSetup = 93;  // side-vault bootstrap failed
// The monitor's sealed side-vault (DESIGN.md §14): one secret bundle the
// durability red team attacks. The vault key is allocated right after the
// slot keys; the monitor key is the owner domain.
inline constexpr u64 kVaultSecretId = 1;
inline constexpr u32 vault_pkey_for(u32 slots) { return 2 + slots; }
// Poison causes the gate itself writes (trap causes are small enum values,
// so these cannot collide with a delivered fault's cause).
inline constexpr u64 kPoisonGateEntry = 98;  // entry monotonic check failed
inline constexpr u64 kPoisonGateExit = 99;   // post-exit RDPKR mismatch
// Byte offset from the gate's handler-return point to the instruction
// after the handler-key drop — the jump target of the gate-exit-hijack
// attack (li + la + ld + wrpkr = 5 fixed-size instructions).
inline constexpr i64 kGateExitDropBytes = 20;
// Monitor-page layout (offsets in bytes).
inline constexpr i64 kMonCanary = 0;
inline constexpr i64 kMonServed = 8;
inline constexpr i64 kMonIndex = 16;
inline constexpr i64 kMonSavedSp = 24;
inline constexpr i64 kMonSavedRa = 32;
inline constexpr i64 kMonProbe = 40;  // the interrupted-gate probe's target

struct WorkloadSpec {
  u32 primaries = 3;  // 1..7 (slots = 2*primaries; CAM holds 16 ranges)
  u32 rounds = 8;     // checksum mixing rounds per request
  u64 seed = 1;
  redteam::AttackKind attack = redteam::AttackKind::kNone;
  // Dispatch order: (request index, handler slot) pairs, embedded as the
  // guest's request table.
  std::vector<std::pair<u32, u32>> requests;
};

struct BuiltServer {
  isa::Image image;
  // Gate regions, sealed ranges and trusted-gate names derived from the
  // linked layout — what the admission gate verifies against.
  analysis::VerifyOptions verify_options;
  std::vector<u32> slot_pkeys;  // slot -> pkey (2 + slot)
};

// Host-side model of the guest checksum arithmetic (sealpk::mix64 rounds).
u64 payload_for(u64 seed, u32 index);
u64 checksum_for(u64 seed, u32 index, u32 slot, u32 rounds);

u32 slot_count(const WorkloadSpec& spec);  // 2 * primaries

std::string gate_name(u32 slot);     // "__gate_<slot>"
std::string handler_name(u32 slot);  // "__handler_<slot>"

BuiltServer build_server(const WorkloadSpec& spec);

}  // namespace sealpk::serve
