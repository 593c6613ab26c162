// Crash-anywhere durability sweep for the sealed-storage vault
// (DESIGN.md §14).
//
// The sweep first runs the vault workload to completion once (the learning
// run: it must exit cleanly and reproduce the builder's expected ledger),
// then kills a fresh machine at every sampled crash instret — densely
// around every journal-record write so each word boundary of every intent
// record is covered, plus a uniform stride across the whole run — and
// checks three invariants against the cold state:
//   (a) integrity: every recoverable bundle is byte-exact one of the
//       planned payload versions (never a torn or foreign payload),
//   (b) durability: every commit the kernel acknowledged (its kVaultCommit
//       mark) is still recoverable at that or a newer sequence number,
//   (c) confidentiality: no committed secret prefix is readable from any
//       mapping outside the vault region and the owner's reveal page.
// A subset of points additionally restores the machine's last known-good
// checkpoint and re-runs to completion, asserting the recovered run still
// lands on the expected final ledger. With `chaos` set, seeded vault-kind
// fault injection runs on top and the invariants weaken exactly to
// detection: a flipped record may lose data but must never be served.
//
// Per-point verdicts land in slots indexed by crash point, so the
// canonical report is byte-identical for any worker thread count.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "vault/program.h"

namespace sealpk::vault {

struct SweepConfig {
  VaultSpec spec;
  u64 min_points = 200;     // floor on sampled crash points
  u64 stride_points = 160;  // uniform samples across the learning run
  unsigned threads = 1;     // fleet workers (0 = one per hardware thread)
  u64 rollback_every = 4;   // every Nth point also resumes from checkpoint
  u64 checkpoint_interval = 2'000;
  bool chaos = false;
  u64 chaos_runs = 6;
  u64 chaos_seed = 7;
  double chaos_rate = 2e-4;
  u64 chaos_max_faults = 3;
};

struct PointVerdict {
  u64 instret = 0;
  bool ok = true;
  bool resumed = false;       // checkpoint-resume leg ran at this point
  std::string failure;        // first violated invariant ("" when ok)
  u64 live = 0;               // recoverable bundles at the crash point
  u64 commits = 0;
  u64 torn = 0;
};

struct ChaosVerdict {
  u64 seed = 0;
  bool ok = true;
  i64 exit_code = 0;
  u64 injected = 0;
  u64 detected = 0;  // kernel refusals + replay-level torn/mismatch counts
  std::string failure;
};

struct SweepResult {
  bool ok = false;
  std::string learning_failure;  // nonempty when the learning run failed
  u64 total_instructions = 0;    // learning-run length
  u64 points = 0;
  u64 boundary_points = 0;  // points from journal-record dense windows
  u64 resume_points = 0;
  u64 failures = 0;
  std::vector<PointVerdict> verdicts;  // ascending crash instret
  std::vector<ChaosVerdict> chaos;     // chaos mode only
  std::string final_ledger;            // canonical expected/observed ledger
  std::string canonical;               // the byte-identity oracle
};

SweepResult run_sweep(const SweepConfig& cfg);

// --- confidentiality scan (invariant (c); DESIGN.md §14) --------------------
// A scanned mapping is mostly zero pages, so the scan first finds the byte
// ranges [start, end) of its maximal runs of pages (4 KiB chunks from the
// buffer start; the last one may be short) that hold a non-zero byte, in
// ascending order.
struct ByteRun {
  size_t start = 0;
  size_t end = 0;

  bool operator==(const ByteRun&) const = default;
};
std::vector<ByteRun> nonzero_page_runs(const u8* data, size_t len);

// The lowest offset at which `needle` occurs in data[0, len), or len when it
// does not — the same answer as std::search over the whole buffer. `runs`
// must be nonzero_page_runs(data, len). A needle with a non-zero byte is
// only searched for near the runs; an all-zero needle searches everything.
size_t find_needle(const u8* data, size_t len,
                   const std::vector<ByteRun>& runs,
                   const std::vector<u8>& needle);

// Machine-readable verdict for `sealpk-vault sweep --json` (and the CI
// artifact uploaded on failure).
void write_sweep_json(std::ostream& os, const SweepConfig& cfg,
                      const SweepResult& r);

}  // namespace sealpk::vault
