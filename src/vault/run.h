// One clean vault run as a reusable primitive (extracted from the
// sealpk vault CLI so the SLO span bench and tests can drive it too):
// build the owner/vault guest for a spec, run it on a private machine,
// cold-replay the vault region into a ledger and compare against the
// build-time oracle. Optionally traced — vault intent/commit/unseal
// events feed the span layer (DESIGN.md §16) and tracing never perturbs
// the run.
#pragma once

#include <string>

#include "obs/recorder.h"
#include "os/kernel.h"
#include "vault/program.h"

namespace sealpk::vault {

struct VaultRunResult {
  bool completed = false;
  i64 exit_code = -1;
  std::string ledger;     // replayed from the vault region ("(no vault)\n"
                          // when the region was never mapped)
  bool ledger_ok = false; // ledger == the build-time expected ledger
  u64 instructions = 0;
  os::VaultStats stats;
  obs::Trace trace;       // populated when `trace` was requested

  bool ok() const { return completed && exit_code == 0 && ledger_ok; }
};

VaultRunResult run_vault_once(const VaultSpec& spec, bool trace = false);

}  // namespace sealpk::vault
