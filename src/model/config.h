// Model-checker configuration: the down-scaled SealPK machine.
//
// The explorer walks every op sequence over a reduced configuration — a few
// pkeys, a few pages, a 2-entry PK-CAM — chosen so that every interesting
// regime of each invariant is reachable (quarantined keys, CAM eviction,
// sealed and unsealed rows) while the state space stays exhaustively
// enumerable. DESIGN.md §12 gives the reduction argument.
#pragma once

#include <optional>
#include <string>

#include "common/bits.h"

namespace sealpk::model {

// Deliberate single-fault injections, used by the mutation self-tests to
// prove each invariant check actually fires. kNone is the shipping
// configuration; every other value breaks the machine (or, for the kSpec*
// values, the reference spec) in one specific way. The five kernel-side
// ones (kSkipFreeClear .. kRefillWrongRange) switch on the matching step
// of the pkey core's fault policy (os::FaithfulKernel in os/pkey_ops.h).
enum class Mutation : u8 {
  kNone,
  // Kernel free() of a zero-page key forgets to dissolve the hardware seal
  // (the historical bug this checker found; see tests/model_traces/).
  kSkipFreeClear,
  // A completed lazy-free drain forgets to scrub SealReg / PK-CAM.
  kSkipDrainScrub,
  // free() dissolves the hardware seal even while orphan pages remain.
  kEagerFreeClear,
  // Kernel forgets the dirty quarantine: a freed key with surviving pages
  // becomes immediately reallocatable.
  kForgetDirty,
  // WRPKR row commit skips the sealed-neighbour preservation merge.
  kSkipSealedNeighbourMerge,
  // The pipeline executes a WRPKR despite a PK-CAM range violation.
  kIgnoreSealViolation,
  // The CAM-miss refill installs a range shifted off the one on file.
  kRefillWrongRange,
  // Data-access checks consult only the PTE, ignoring the pkey term.
  kIgnorePkeyOnAccess,
  // Spec-side fault: the reference spec forgets the dirty quarantine,
  // demonstrating the oracle is two-sided.
  kSpecForgetDirty,
};

const char* mutation_name(Mutation m);
std::optional<Mutation> parse_mutation(const std::string& name);
constexpr unsigned kNumMutations = 10;

struct PcRange {
  u64 start = 0;
  u64 end = 0;  // inclusive
};

// Fixed op-alphabet tables. Two permissible ranges exercise CAM
// replace-vs-insert; three WRPKR sites cover in-range (per range) and
// out-of-range; the two permission values span both disable bits; the two
// protections make the PTE term of the intersection observable.
inline constexpr PcRange kModelRanges[] = {{0x1000, 0x1FFC},
                                           {0x2000, 0x2FFC}};
inline constexpr u64 kModelWrpkrPcs[] = {0x1004, 0x2004, 0x3000};
inline constexpr u8 kModelPerms[] = {0b00, 0b11};  // kPermRw, kPermNone
inline constexpr u8 kModelProts[] = {0b11, 0b01};  // R|W, read-only
inline constexpr unsigned kModelNumRanges = 2;
inline constexpr unsigned kModelNumWrpkrPcs = 3;
inline constexpr unsigned kModelNumPerms = 2;
inline constexpr unsigned kModelNumProts = 2;

struct ModelConfig {
  // Machine scale. Keys live in PKR row 0 (num_pkeys <= 32); key 0 is the
  // default domain, permanently allocated.
  // The default closes (~156k states, ~5.3M transitions); 3 pkeys or more
  // pages grow the reachable space into the millions — bound those runs
  // with depth= or a bigger max_states budget.
  unsigned num_pkeys = 2;
  unsigned num_pages = 2;
  unsigned cam_entries = 2;

  // Exploration bounds. depth 0 explores to closure; max_states caps the
  // visited set (exceeding it reports an incomplete run, never a wrong
  // one). Budgets are evaluated at BFS level boundaries so visited and
  // transition counts are deterministic across runs and thread counts.
  unsigned depth = 0;
  u64 max_states = 2000000;
  unsigned threads = 1;
  unsigned max_counterexamples = 8;

  Mutation mutation = Mutation::kNone;

  // Throws CheckError on an unusable configuration.
  void validate() const;
};

}  // namespace sealpk::model
