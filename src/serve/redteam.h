// Garmr-style adversarial suite for the serve request plane.
//
// Every attack is a deliberately hostile plugin body (or fault plan)
// registered together with the layer that is REQUIRED to catch it — the
// static verifier's admission gate, the hardware seal/permission checks,
// the gate's own monotonic PKR check, the kernel's audit, or the request
// plane's per-request instruction budget. tests/test_serve.cpp asserts,
// per attack, that the declared catcher fired, that the monitor canary was
// never reached, and that the server kept serving.
#pragma once

#include <string>
#include <vector>

#include "common/bits.h"

namespace sealpk::serve::redteam {

// Which hostile body build_server() plants in __handler_0 (kPkrGlitch
// leaves the handlers benign and attacks through the fault injector).
enum class AttackKind : u8 {
  kNone = 0,
  kGadgetWrpkr,      // literal WRPKR gadget in plugin text
  kRogueWrpkr,       // out-of-range WRPKR naming a perm-sealed key at run
                     // time (admission gate bypassed: models JIT'd code)
  kMonitorTamper,    // plugin stores straight into the monitor page
  kStackTamper,      // sprays the shared stack, then reaches for the
                     // monitor-held loop state
  kForgedPkrFlow,    // re-enters the call gate with a forged return path
  kGateExitHijack,   // jumps past the gate's handler-key drop on exit
  kInterruptedGate,  // sibling thread probes monitor memory across
                     // preemption traps landing inside half-open gates
  kRunawayHandler,   // infinite loop: never returns through the gate
  kPkrGlitch,        // seeded PKR bit flips via the FaultInjector
  kVaultProbe,       // plugin loads straight from the write-only vault
  kForgedUnseal,     // plugin ecalls vault_unseal with the owner key closed
};

// The layer contractually responsible for stopping the attack.
enum class Catcher : u8 {
  kVerifier,  // sealpk-verify admission gate (load refused)
  kHardware,  // seal/permission check -> delivered fault, attempt poisoned
  kGate,      // the gate's own post-exit monotonic RDPKR check
  kAuditor,   // kernel audit scrub / machine-check kill
  kWatchdog,  // per-request instruction budget (request-plane timeout)
  kVault,     // the kernel's vault ownership gate (denial notarised)
};

const char* catcher_name(Catcher catcher);

struct Attack {
  AttackKind kind = AttackKind::kNone;
  const char* name = "";
  Catcher catcher = Catcher::kHardware;
  const char* description = "";
};

// The registry, in canonical order (excludes kNone).
const std::vector<Attack>& attacks();

// nullptr when `name` is not a registered attack.
const Attack* find_attack(const std::string& name);

// Deterministic evidence the serve engine accumulates across epochs; the
// per-catcher predicates below decide "caught" from it.
struct CatchEvidence {
  bool verifier_refused = false;     // load refused under kEnforce
  u64 gate_escape_findings = 0;      // Check::kGateEscape errors
  u64 seal_violations = 0;           // hardware sealed-WRPKR check
  u64 monitor_denials = 0;           // delivered pkey faults on the monitor
                                     // key (stores/loads that never landed)
  u64 gate_scrubs = 0;               // post-exit RDPKR mismatches scrubbed
  u64 budget_timeouts = 0;           // request-budget epoch kills
  u64 faults_injected = 0;           // injector firings (kPkrGlitch)
  u64 faults_recovered_or_killed = 0;
  u64 probe_attempts = 0;            // sibling-thread probes issued
  u64 probe_successes = 0;           // sibling-thread probes that landed
  u64 vault_probe_denials = 0;       // delivered pkey faults on the vault
                                     // key (reads of write-only storage)
  u64 unseal_denials = 0;            // kernel vault ownership rejections
  u64 vault_leaks = 0;               // successful unseals — none is
                                     // legitimate in this workload
};

// True when `evidence` shows the declared catcher actually fired (and, for
// kHardware probes, that nothing got through).
bool caught_by(Catcher catcher, const CatchEvidence& evidence);

}  // namespace sealpk::serve::redteam
