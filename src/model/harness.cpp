#include "model/harness.h"

#include <algorithm>

#include "common/check.h"
#include "os/pkey_ops.h"
#include "os/syscall_abi.h"

namespace sealpk::model {

namespace {

// The kernel-side mutations as fault policies of the kernel's pkey glue.
template <Mutation m>
struct MutantKernel {
  static constexpr bool kSkipFreeClear = m == Mutation::kSkipFreeClear;
  static constexpr bool kSkipDrainScrub = m == Mutation::kSkipDrainScrub;
  static constexpr bool kEagerFreeClear = m == Mutation::kEagerFreeClear;
  static constexpr bool kForgetDirty = m == Mutation::kForgetDirty;
  static constexpr bool kRefillWrongRange = m == Mutation::kRefillWrongRange;
};

// The outcome of a syscall that returns 0 or an errno.
Outcome syscall_outcome(i64 rc) {
  return {rc == 0 ? OpStatus::kOk : OpStatus::kError, rc};
}

}  // namespace

Harness::Harness(const ModelConfig& cfg)
    : cfg_(cfg), seal_(cfg.cam_entries), pages_(cfg.num_pages) {}

void Harness::install(const ModelState& s) {
  pkr_.reset();
  hw::SealUnit::Snapshot snap{};
  os::SealPkKeyManager::State ks;
  for (u32 k = 0; k < cfg_.num_pkeys; ++k) {
    const KeyState& key = s.keys[k];
    pkr_.set_perm(k, key.perm);
    snap.seal_reg[k] = key.hw_sealed;
    ks.alloc[k] = key.allocated;
    ks.dirty[k] = key.dirty;
    ks.sealed_domain[k] = key.sealed_domain;
    ks.sealed_page[k] = key.sealed_page;
    ks.counter[k] = key.pages;
    if (key.range != kNoRange) {
      ks.perm_range[k] = {kModelRanges[key.range].start,
                          kModelRanges[key.range].end};
    }
  }
  for (unsigned i = 0; i < cfg_.cam_entries; ++i) {
    snap.cam_entries[i] = {static_cast<u16>(s.cam[i].pkey), s.cam[i].start,
                           s.cam[i].end};
    snap.cam_valid[i] = s.cam[i].valid;
  }
  snap.fifo_next = s.fifo_next;
  seal_.restore(snap);
  keys_.set_state(ks);
  pages_ = s.pages;
}

void Harness::reset_to(const Harness& base) {
  pkr_ = base.pkr_;
  seal_ = base.seal_;
  pages_ = base.pages_;
  keys_.copy_keys_from(base.keys_,
                       std::min(cfg_.num_pkeys + 2, hw::kNumPkeys));
}

ModelState Harness::extract() const {
  ModelState s;
  s.keys.resize(cfg_.num_pkeys);
  s.pages = pages_;
  s.cam.resize(cfg_.cam_entries);

  const hw::SealUnit::Snapshot snap = seal_.canonical_state();
  const os::SealPkKeyManager::State& ks = keys_.state();
  for (u32 k = 0; k < cfg_.num_pkeys; ++k) {
    auto& key = s.keys[k];
    key.allocated = ks.alloc[k];
    key.dirty = ks.dirty[k];
    key.sealed_domain = ks.sealed_domain[k];
    key.sealed_page = ks.sealed_page[k];
    key.hw_sealed = snap.seal_reg[k];
    key.perm = pkr_.peek_perm(k);
    SEALPK_CHECK_MSG(ks.counter[k] <= cfg_.num_pages,
                     "page counter out of range");
    key.pages = static_cast<u8>(ks.counter[k]);
    const auto& range = ks.perm_range[k];
    if (range.has_value()) {
      key.range = kNoRange;
      for (unsigned r = 0; r < kModelNumRanges; ++r) {
        if (range->start == kModelRanges[r].start &&
            range->end == kModelRanges[r].end) {
          key.range = static_cast<u8>(r);
        }
      }
      SEALPK_CHECK_MSG(key.range != kNoRange,
                       "perm-seal range on file is off the model table");
    }
  }
  for (unsigned i = 0; i < hw::kPkCamEntries; ++i) {
    if (i < cfg_.cam_entries) {
      s.cam[i].valid = snap.cam_valid[i];
      s.cam[i].pkey = static_cast<u8>(snap.cam_entries[i].pkey);
      s.cam[i].start = snap.cam_entries[i].addr_start;
      s.cam[i].end = snap.cam_entries[i].addr_end;
      SEALPK_CHECK_MSG(!s.cam[i].valid || s.cam[i].pkey < cfg_.num_pkeys,
                       "CAM caches a key outside the model universe");
    } else {
      SEALPK_CHECK_MSG(!snap.cam_valid[i],
                       "CAM entry valid beyond the reduced CAM");
    }
  }
  SEALPK_CHECK(snap.fifo_next < cfg_.cam_entries);
  s.fifo_next = static_cast<u8>(snap.fifo_next);

  // Reduced-universe boundary: ops must never leak state onto keys outside
  // the model (the alloc mask below frees boundary keys immediately).
  for (u32 k = cfg_.num_pkeys; k < cfg_.num_pkeys + 2 && k < hw::kNumPkeys;
       ++k) {
    SEALPK_CHECK_MSG(!ks.alloc[k] && !ks.dirty[k] && !snap.seal_reg[k] &&
                         pkr_.peek_perm(k) == 0,
                     "state leaked onto out-of-model key " << k);
  }
  return s;
}

Outcome Harness::apply(const Op& op) {
  using enum Mutation;
  switch (cfg_.mutation) {
    case kSkipFreeClear: return apply_as<MutantKernel<kSkipFreeClear>>(op);
    case kSkipDrainScrub: return apply_as<MutantKernel<kSkipDrainScrub>>(op);
    case kEagerFreeClear: return apply_as<MutantKernel<kEagerFreeClear>>(op);
    case kForgetDirty: return apply_as<MutantKernel<kForgetDirty>>(op);
    case kRefillWrongRange:
      return apply_as<MutantKernel<kRefillWrongRange>>(op);
    default: return apply_as<os::FaithfulKernel>(op);
  }
}

template <class Fault>
Outcome Harness::apply_as(const Op& op) {
  const os::PkeyOps<Fault> ops(keys_, pkr_, seal_);
  const u32 k = op.pkey;
  switch (op.kind) {
    case OpKind::kAlloc: {
      const i64 rc = ops.alloc(op.perm);
      if (rc < 0) return {OpStatus::kError, rc};
      if (rc >= static_cast<i64>(cfg_.num_pkeys)) {
        // Reduced-universe mask: the real manager found a key outside the
        // model, which means every model key is allocated or quarantined.
        // Free the pageless key again and report exhaustion.
        SEALPK_CHECK(ops.free(static_cast<u32>(rc)) == 0);
        return {OpStatus::kError, os::err::kNoSpc};
      }
      return {OpStatus::kOk, rc};
    }

    case OpKind::kFree:
      return syscall_outcome(ops.free(k));

    case OpKind::kMprotect: {
      // sys_pkey_mprotect for one page: assignability, the seal vetoes,
      // then the PTE rewrite and the counter move (which may drain).
      if (!keys_.assignable(k)) return {OpStatus::kError, os::err::kInval};
      PageState& pg = pages_[op.page];
      const u32 old = pg.pkey;
      if (const i64 rc = os::retag_veto(keys_, old, k)) {
        return syscall_outcome(rc);
      }
      pg = {static_cast<u8>(k), op.prot};
      if (old != k) {
        ops.count_pages(old, -1);
        ops.count_pages(k, +1);
      }
      return {OpStatus::kOk, 0};
    }

    case OpKind::kSeal:
      return syscall_outcome(keys_.seal(k, op.seal_domain, op.seal_page));

    case OpKind::kPermSeal: {
      const PcRange range = kModelRanges[op.range];
      return syscall_outcome(ops.perm_seal(k, {range.start, range.end}));
    }

    case OpKind::kWrpkr: {
      // Hart::exec_custom's WRPKR path plus the kernel's CAM-miss
      // refill-and-retry handshake.
      const u64 pc = kModelWrpkrPcs[op.pc];
      hw::SealCheck check = seal_.check_wrpkr(k, pc);
      if (check == hw::SealCheck::kMiss) {
        const auto range = keys_.perm_seal_range(k);
        if (!range.has_value()) return {OpStatus::kTrap, 0};
        ops.refill(k, *range);
        check = seal_.check_wrpkr(k, pc);  // re-executed WRPKR
      }
      if (check == hw::SealCheck::kViolation &&
          cfg_.mutation != Mutation::kIgnoreSealViolation) {
        return {OpStatus::kTrap, 0};
      }
      const u32 row = hw::pkr_row_of(k);
      const u32 slot = hw::pkr_slot_of(k);
      u64 next = u64{op.perm} << (2 * slot);
      const u64 old = pkr_.peek_row(row);
      if (cfg_.mutation != Mutation::kSkipSealedNeighbourMerge) {
        next = hw::merge_sealed_row(seal_, old, next, row, k);
      }
      pkr_.write_row(row, next);
      return {OpStatus::kOk, 0};
    }
  }
  return {OpStatus::kError, os::err::kNoSys};
}

bool Harness::access_allowed(unsigned page, bool is_store) const {
  const PageState& pg = pages_[page];
  const bool pte_ok =
      is_store ? (pg.prot & 0b10) != 0 : (pg.prot & 0b01) != 0;
  if (cfg_.mutation == Mutation::kIgnorePkeyOnAccess) return pte_ok;
  // The hart's effective-permission check: PTE AND pkey (§III-A).
  const u8 perm = pkr_.peek_perm(pg.pkey);
  const bool pkey_ok = is_store ? (perm & 0b01) == 0 : (perm & 0b10) == 0;
  return pte_ok && pkey_ok;
}

bool Harness::fetch_allowed(unsigned page) const {
  (void)page;
  return true;  // the fetch path never consults the Pkr (hart.cpp)
}

}  // namespace sealpk::model
