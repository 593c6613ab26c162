// Crash-anywhere durability sweep for the sealed-storage vault
// (DESIGN.md §14).
//
// The sweep first runs the vault workload to completion once (the learning
// run: it must exit cleanly and reproduce the builder's expected ledger),
// then samples crash instrets — densely around every journal-record write
// so each word boundary of every intent record is covered, plus a uniform
// stride across the whole run — and checks three invariants against the
// cold state a crash at each of them leaves:
//   (a) integrity: every recoverable bundle is byte-exact one of the
//       planned payload versions (never a torn or foreign payload),
//   (b) durability: every commit the kernel acknowledged (its kVaultCommit
//       mark) is still recoverable at that or a newer sequence number,
//   (c) confidentiality: no committed secret prefix is readable from any
//       mapping outside the vault region and the owner's reveal page.
// The sorted points are split into contiguous shards, one per worker. Each
// shard runs one machine forward from instret 0, stopping at each of its
// points in turn: Machine::run keeps its whole schedule in the machine, so
// run(a) then run(b - a) reaches the state run(b) does, and the checks
// only read the stopped machine. A subset of points additionally restores
// the machine's last known-good checkpoint and re-runs to completion,
// asserting the recovered run still lands on the expected final ledger;
// that leg is a pure function of the sealed checkpoint bytes, so a shard
// runs it once per distinct checkpoint. With `chaos` set, seeded
// vault-kind fault injection runs on top and the invariants weaken
// exactly to detection: a flipped record may lose data but must never be
// served.
//
// Per-point verdicts land in slots indexed by crash point, so the
// canonical report is byte-identical for any worker thread count.
#pragma once

#include <bitset>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "vault/program.h"

namespace sealpk::vault {

struct SweepConfig {
  VaultSpec spec;
  u64 min_points = 200;     // floor on sampled crash points
  u64 stride_points = 160;  // uniform samples across the learning run
  unsigned threads = 1;     // pool workers (0 = one per hardware thread)
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
// Hunts secret byte strings (needles) in a guest address space, reading
// guest pages in place. All needles are searched in one pass over the
// pages that hold a non-zero byte (an 8-byte-prefix filter, then a full
// compare), so the cost does not grow with the number of needles.
class SecretScan {
 public:
  // `needles` in plan order; each is at least 8 bytes long.
  explicit SecretScan(std::vector<std::vector<u8>> needles);

  // Scans the mappings of `aspace` in ascending address order, each as its
  // own buffer (a match never spans two mappings), skipping the one at
  // `vault->base`, those keyed kOwnerPkey, those over 8 MiB and those the
  // page tables do not wholly map. Returns the vaddr of the first hit: in
  // the lowest mapping holding any needle, the lowest offset of the first
  // needle in plan order found there — the answer a per-needle
  // std::search over each mapping gives. nullopt when no needle occurs.
  std::optional<u64> find(const os::AddressSpace& aspace,
                          const std::optional<VaultLocation>& vault) const;

 private:
  static constexpr unsigned kFilterBits = 16;
  static size_t filter_slot(u64 prefix) {  // multiplicative hash
    return static_cast<size_t>((prefix * 0x9E3779B97F4A7C15ULL) >>
                               (64 - kFilterBits));
  }

  // The lowest-plan-order hit in one mapping, as a byte offset.
  std::optional<u64> find_in(const std::vector<const u8*>& pages) const;

  std::vector<std::vector<u8>> needles_;
  std::vector<u64> prefixes_;  // each needle's first 8 bytes, as loaded
  std::bitset<size_t{1} << kFilterBits> filter_;  // hashed prefixes
  size_t widen_ = 0;         // longest needle length - 1
  bool zero_needle_ = false;  // an all-zero needle: every page is searched
};

// The committed secret prefixes of `built` in plan order: the first
// min(16, len) bytes of each payload at least 8 bytes long.
SecretScan secret_scan(const BuiltVault& built);

// Machine-readable verdict for `sealpk vault sweep --json` (and the CI
// artifact uploaded on failure).
void write_sweep_json(std::ostream& os, const SweepConfig& cfg,
                      const SweepResult& r);

}  // namespace sealpk::vault
