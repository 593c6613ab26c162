// Host driver for the session-server workload (DESIGN.md §15): the
// key-churn benchmark behind BENCH_keychurn.json and `sealpk vkey`.
//
// One run builds the guest for a SessionConfig, executes it on a private
// Machine of either ISA flavour (SessionConfig::flavor: SealPK's 1023
// usable keys or Intel MPK's 15, both under the same in-kernel vkey table)
// and folds the result into an integer-only canonical record:
// guest checksum (verified against the host golden), the vkey table's churn
// counters, and a throughput headline — churn operations (alloc + free +
// mprotect + open/close) per second at the board's nominal 50 MHz, derived
// from modelled cycles. The op counts come from the host replay of the
// churn schedule, so raw and virtualized cells of the same shape divide the
// same numerator and the ratio is exactly the virtualization tax.
//
// The sweep fans its cells out through the shared pool (common/pool.h:
// one private machine per cell, results keyed by index), so the
// concatenated canonical records are byte-identical at any host thread
// count — the CLI's --selfcheck re-runs serially and compares.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "mpk/vkey_table.h"
#include "obs/recorder.h"
#include "os/kernel.h"

namespace sealpk::mpk {

// Raw (physical-pkey) cells must leave headroom under the 1023 usable keys
// for reconnect churn against lazily de-allocated keys.
inline constexpr u64 kRawSessionCap = 768;

// The most sessions one run can hold. The guest mmaps its arena, one page
// per session, from os::kMmapBase (64 GiB) and must end 1 GiB below the
// top of Sv39's user half (256 GiB), where the main stack sits.
// DRAM, sized to the arena plus a 1/64 page-table share plus 96 MiB, then
// stays under 200 GiB, so no size computed from the count can wrap.
inline constexpr u64 kMaxSessions =
    ((u64{1} << (mem::sv39::kVaBits - 1)) - os::kMmapBase - (u64{1} << 30)) /
    mem::kPageSize;
constexpr bool valid_sessions(u64 sessions) {
  return sessions >= 1 && sessions <= kMaxSessions;
}

// Thrown by run_session_server, before anything is allocated, for a
// session count outside [1, kMaxSessions].
struct SessionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SessionConfig {
  core::IsaFlavor flavor = core::IsaFlavor::kSealPk;
  u64 sessions = 1024;
  u64 ops = 2048;
  u64 seed = 0x5EED0F5EA1ULL;  // wl::kWorkloadSeed
  u32 mru_slots = 8;
  bool lazy_sync = false;  // eager park vs drain queue (vkey_lazy_sync)
  bool raw = false;        // physical pkeys; SealPK only, sessions <= cap
  u64 max_instructions = 4'000'000'000ULL;
  // Keep an obs event trace of the run (vkey map/evict/sync events feed
  // the span layer, DESIGN.md §16). Tracing never perturbs the machine,
  // so traced and untraced cells produce identical canonical records.
  bool trace = false;
};

struct SessionResult {
  bool completed = false;
  i64 exit_code = -1;
  bool checksum_ok = false;
  u64 checksum = 0;
  u64 expected = 0;
  u64 connects = 0;   // schedule replay: ramp + reconnects
  u64 reconnects = 0;
  u64 touches = 0;
  u64 churn_ops = 0;  // allocs + frees + mprotects + opens/closes
  u64 live = 0;       // live vkeys at exit (0 in raw mode)
  u64 mapped = 0;     // vkeys holding a physical key at exit
  u64 instructions = 0;
  u64 cycles = 0;
  VkeyStats vstats;   // all-zero in raw mode
  obs::Trace trace;   // populated when SessionConfig::trace is set

  bool ok() const { return completed && exit_code == 0 && checksum_ok; }
  // Integer ops/sec (core::kNominalHz): deterministic across hosts.
  u64 churn_per_sec() const {
    return cycles == 0 ? 0 : churn_ops * core::kNominalHz / cycles;
  }
};

// Throws SessionError for a session count outside [1, kMaxSessions].
SessionResult run_session_server(const SessionConfig& cfg);

// "raw", "virt-eager" or "virt-lazy" on SealPK; "mpk-eager" or "mpk-lazy"
// on the MPK flavour.
const char* session_mode(const SessionConfig& cfg);

// One integer-only line; byte-identical across host thread counts.
std::string session_record(const SessionConfig& cfg, const SessionResult& r);

// --- churn sweep (BENCH_keychurn.json) --------------------------------------
struct ChurnCell {
  SessionConfig cfg;
  SessionResult result;
};

// For every scale: virtualized eager + lazy cells, plus a raw cell while
// the scale fits under kRawSessionCap. ops = 2 * sessions. Drained through
// the shared pool on `threads` workers (0 = one per hardware thread).
std::vector<ChurnCell> run_churn_sweep(const std::vector<u64>& scales,
                                       u64 seed, unsigned threads);

// The concatenation of every cell's canonical record (the selfcheck unit).
std::string sweep_records(const std::vector<ChurnCell>& cells);

// Machine-readable sweep report; still integer-only, so a regenerated
// BENCH_keychurn.json diffs clean byte-for-byte.
std::string churn_json(const std::vector<ChurnCell>& cells);

}  // namespace sealpk::mpk
