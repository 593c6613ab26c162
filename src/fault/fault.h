// Seeded, deterministic fault injection for the simulated machine.
//
// The injector models soft errors and glitches in exactly the hardware
// state the paper's trust argument depends on: the PKR SRAM rows, the
// DTLB's pkey/permission fields, the PTE pkey bits in DRAM, the PK-CAM
// refill handshake, and the trap logic itself (spurious machine checks).
// Every injection is recorded as a typed FaultEvent; the kernel's recovery
// paths and its consistency audit (os/audit.h) later mark events recovered,
// killed, or masked-benign, so a run can prove that no injected fault went
// unaccounted.
//
// Resolution bookkeeping is kind-granular: a scrub/flush/repair action
// recovers *all* outstanding corruption of its kind (which matches the
// hardware semantics — a full TLB flush clears every corrupted line, a
// shadow scrub rewrites every row).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "core/hart.h"
#include "os/kernel.h"

namespace sealpk::fault {

enum class FaultKind : u8 {
  kPkrBitFlip = 0,   // single-bit upset in a PKR SRAM row
  kTlbCorrupt,       // pkey/permission/dirty flip in a cached DTLB entry
  kPteCorrupt,       // pkey-field bit flip in a leaf PTE in DRAM
  kCamDropRefill,    // PK-CAM refill lost by the handler
  kCamDupRefill,     // PK-CAM refill committed twice
  kSpuriousTrap,     // machine-check trap with no underlying corruption
  // Vault durability kinds (src/vault): bit rot inside the sealed-storage
  // region itself. Opt-in (not part of kAllFaultKinds) — a run without a
  // vault has nothing for them to hit.
  kVaultJournalCorrupt,  // bit flip in a journal record (intent or commit)
  kVaultCommitFlip,      // bit flip targeted at a commit record slot
  // Vkey-table corruption (src/mpk/vkey_table.h): flips bits of a mapped
  // virtual key's recorded physical key, desynchronizing the table from
  // the PTE ground truth. Opt-in like the vault kinds — a process that
  // never virtualizes has no table to strike.
  kVkeyTableCorrupt,
  kNumKinds,
};

const char* fault_kind_name(FaultKind kind);

constexpr u32 kind_bit(FaultKind kind) {
  return u32{1} << static_cast<u32>(kind);
}
// FROZEN at the six pre-vault kinds: kAllFaultKinds seeds the default
// FaultPlan, so widening it would silently change which kinds existing
// chaos seeds draw from and perturb every recorded RNG stream. Vault runs
// opt in with kVaultFaultKinds explicitly.
constexpr u32 kAllFaultKinds =
    (u32{1} << (static_cast<u32>(FaultKind::kSpuriousTrap) + 1)) - 1;
constexpr u32 kVaultFaultKinds = kind_bit(FaultKind::kVaultJournalCorrupt) |
                                 kind_bit(FaultKind::kVaultCommitFlip);
constexpr u32 kVkeyFaultKinds = kind_bit(FaultKind::kVkeyTableCorrupt);

enum class FaultResolution : u8 {
  kOutstanding,    // injected, not yet detected or explained
  kRecovered,      // a scrub/flush/repair/retry restored consistency
  kProcessKilled,  // surfaced as a machine-check or watchdog kill
  kMaskedBenign,   // never architecturally visible (verified by final audit)
};

struct FaultPlan {
  bool enabled = false;
  u64 seed = 1;
  // Expected per-retired-instruction probability of a state-corruption
  // fault (PKR/TLB/PTE/spurious-trap kinds, chosen uniformly per firing).
  double rate = 1e-5;
  // Per-refill probability for the CAM drop/duplicate hooks.
  double cam_rate = 0.02;
  u64 max_faults = 0;  // 0 = unlimited
  u32 kinds = kAllFaultKinds;

  bool has(FaultKind kind) const { return (kinds & kind_bit(kind)) != 0; }
};

// A rate (FaultPlan::rate or cam_rate) a machine can be built with.
inline bool valid_rate(double rate) {
  // schedule_next converts 1/rate to u64, which must not overflow.
  return rate == 0.0 || (rate > 0.0 && rate <= 1.0 && 1.0 / rate < 0x1p64);
}

struct FaultEvent {
  FaultKind kind = FaultKind::kPkrBitFlip;
  u64 instret = 0;   // retirement count at injection time
  u64 detail0 = 0;   // kind-specific: row / TLB slot / vaddr
  u64 detail1 = 0;   // kind-specific: bit index / corruption mask
  FaultResolution resolution = FaultResolution::kOutstanding;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  // Called by the run loop after each chunk or trap. O(1) when no fault is
  // due. Fires once instret has reached next_fire() and the hart is in
  // U-mode with a running thread (otherwise the firing stays due and is
  // retried next time). May corrupt PKR/TLB/PTE state or take a spurious
  // machine-check trap (dispatching the kernel handler in-place).
  void maybe_inject(core::Hart& hart, os::Kernel& kernel);

  // Instret at which the next state-corruption fault is due (~0 = none): a
  // run-loop deadline, so the machine ends a chunk there. Once past due it
  // makes every chunk a single step until the fault fires.
  u64 next_fire() const { return next_fire_; }

  // CAM-refill perturbation hooks, wired into KernelConfig by the machine.
  // A refill that goes through (drop hook returns false) completes the
  // retry of any earlier dropped refill.
  bool should_drop_refill(const core::Hart& hart);
  bool should_dup_refill(const core::Hart& hart);

  // Kind-granular resolution driven by the kernel's recovery counters:
  // deltas since the previous call mark the matching kinds recovered. The
  // vault analogue is a growing corruption_detected counter: the kernel
  // refused a checksum-bad record/payload, which is exactly how a vault
  // fault is survived, so both vault kinds count as recovered.
  void note_recoveries(const os::Kernel& kernel);

  void resolve(FaultKind kind, FaultResolution resolution);
  void resolve_all_outstanding(FaultResolution resolution);

  const std::vector<FaultEvent>& events() const { return events_; }
  u64 total_injected() const { return events_.size(); }
  u64 injected(FaultKind kind) const;
  u64 resolved(FaultKind kind, FaultResolution resolution) const;
  u64 outstanding() const;

  // --- rollback support ----------------------------------------------------
  // Arms the injector to swallow the next `n` would-be firings: the fire
  // point is consumed (and the next one rescheduled) but no corruption is
  // applied and no event recorded. The machine calls this after restoring a
  // checkpoint, with n = events injected since that checkpoint, so the
  // re-execution replays the doomed window fault-free.
  void suppress(u64 n) { suppress_ += n; }
  u64 suppressed_pending() const { return suppress_; }
  // Lifetime firings across every rollback attempt. NOT restored by
  // load_state (a rollback must not refill the max_faults budget, or an
  // aggressive plan could fire faults forever across retries).
  u64 lifetime_injected() const { return lifetime_injected_; }

  // Snapshot ports: RNG stream, fire schedule, event log and the
  // note_recoveries watermarks, so a restored run injects bit-identically.
  void save_state(ByteWriter& w) const;
  void load_state(ByteReader& r);

  // Observability sink (src/obs): every recorded injection is published as
  // a kFaultInjected event. Null = disabled.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

 private:
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self);

  bool budget_left() const {
    return plan_.max_faults == 0 || lifetime_injected_ < plan_.max_faults;
  }
  void record(FaultKind kind, const core::Hart& hart, u64 detail0,
              u64 detail1);
  void schedule_next(u64 now);

  FaultPlan plan_;
  Rng rng_;
  std::vector<FaultKind> step_kinds_;  // kinds fired from the step loop
  u64 next_fire_ = ~u64{0};
  std::vector<FaultEvent> events_;
  obs::Recorder* recorder_ = nullptr;
  u64 suppress_ = 0;
  u64 lifetime_injected_ = 0;  // survives rollback; see lifetime_injected()
  // Last-seen kernel recovery counters for note_recoveries deltas.
  u64 seen_pkr_scrubs_ = 0;
  u64 seen_tlb_flushes_ = 0;
  u64 seen_pte_repairs_ = 0;
  u64 seen_cam_dedups_ = 0;
  // NOT serialized (VaultStats itself is recounted after a restore; the
  // save/load layout below it is frozen by the committed golden snapshot).
  u64 seen_vault_detected_ = 0;
  // NOT serialized either (KernelStats::vkey_repairs is likewise recounted).
  u64 seen_vkey_repairs_ = 0;
};

}  // namespace sealpk::fault
