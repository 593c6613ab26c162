// Host-side request plane for the in-process plugin server (DESIGN.md §13).
//
// run_server() drives the guest built by build_server() epoch by epoch:
// each epoch embeds the currently-pending requests, runs on a fresh
// Machine, and is parsed back out of the kernel's mark log. The plane is
// built to degrade gracefully, never to die:
//   - per-request instruction budgets (a handler that never returns gets
//     its epoch killed and the attempt counted against it),
//   - strike-based handler quarantine (a slot that keeps failing is taken
//     out of rotation; load-time refusal quarantines immediately),
//   - bounded retry with deterministic backoff onto the replica slot,
//   - load shedding once the epoch budget is exhausted.
// Every request ends in exactly one canonical disposition: served,
// retried (served after at least one failed attempt), shed, or
// quarantined. The ledger is integer-only and derived exclusively from
// guest-deterministic state, so it is byte-identical at any host thread
// count and reproducible under chaos.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/recorder.h"
#include "os/kernel.h"
#include "serve/program.h"
#include "serve/redteam.h"

namespace sealpk::serve {

enum class Disposition : u8 {
  kServed = 0,       // first attempt succeeded
  kRetried,          // succeeded after >= 1 failed attempt
  kShed,             // dropped by load shedding (epoch budget exhausted)
  kQuarantined,      // every allowed attempt failed
};
const char* disposition_name(Disposition d);

struct ChaosOptions {
  bool enabled = false;
  u64 seed = 7;
  double rate = 2e-4;   // per-instruction corruption probability
  u64 max_faults = 6;   // per epoch
};

struct ServeConfig {
  u32 primaries = 3;         // handler pairs; slots = 2 * primaries
  u32 requests = 24;
  u32 rounds = 8;            // guest mixing rounds per request
  u64 seed = 1;
  u64 request_budget = 60'000;  // instructions per attempt (timeout)
  u32 max_attempts = 3;         // failed attempts before quarantining
  u32 strike_limit = 2;         // failures before a slot is quarantined
  redteam::AttackKind attack = redteam::AttackKind::kNone;
  ChaosOptions chaos;
  bool trace = false;  // keep an obs ring (CLI exports it via sealpk-trace)
  analysis::LoadVerifyPolicy verify = analysis::LoadVerifyPolicy::kEnforce;
};

struct RequestRecord {
  u32 index = 0;
  u32 home_slot = 0;
  u32 attempts = 0;  // failed attempts
  Disposition disposition = Disposition::kShed;
  u32 served_by = 0xFFFFFFFF;  // slot that served it (0xFFFFFFFF = none)
  u64 latency = 0;             // instructions inside the successful crossing
};

struct ServeResult {
  bool monitor_alive = true;  // the monitor was never killed or corrupted
  bool canary_intact = true;
  bool config_ok = true;  // guest key-numbering/seal asserts all passed
  u64 epochs = 0;
  u64 crossings = 0;  // domain crossings (2 per completed gate round-trip)
  u64 instructions = 0;
  u64 cycles = 0;
  u64 served = 0, retried = 0, shed = 0, quarantined = 0;
  std::vector<RequestRecord> records;      // indexed by request index
  std::vector<u64> slot_strikes;           // per slot
  std::vector<bool> slot_quarantined;      // per slot
  redteam::CatchEvidence evidence;
  const redteam::Attack* attack = nullptr;  // registry entry, or nullptr
  bool attack_caught = false;  // declared catcher fired (attack runs only)
  os::KernelStats kstats;      // summed over epochs
  // When ServeConfig::trace is set: per-epoch event rings concatenated
  // (plus host-emitted kQuarantine transitions), ready for the obs
  // exporters (sealpk-serve --trace-out, rendered by sealpk-trace).
  obs::Trace trace;

  double crossings_per_sec() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(crossings) *
                             static_cast<double>(core::kNominalHz) /
                             static_cast<double>(cycles);
  }
};

ServeResult run_server(const ServeConfig& cfg);

struct AttackRun {
  ServeConfig cfg;  // the base config with one attack planted
  ServeResult result;
};

// `sealpk-serve attack --all`: every registered attack, in registry order,
// run on `base` through the shared pool on `threads` workers (0 = one per
// hardware thread). Ledgers and reports match at any thread count.
std::vector<AttackRun> run_attack_suite(const ServeConfig& base,
                                        unsigned threads);

// One line per request plus a summary line; integer-only, newline-
// terminated. Byte-identical across host thread counts and snapshot
// boundaries — the determinism tests compare it directly.
std::string canonical_ledger(const ServeResult& r);

// Full machine-readable report (includes the ledger fields, throughput,
// evidence and catcher verdict) for `sealpk-serve --json`.
void write_result_json(std::ostream& os, const ServeConfig& cfg,
                       const ServeResult& r);

}  // namespace sealpk::serve
