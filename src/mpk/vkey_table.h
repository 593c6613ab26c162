// In-kernel pkey virtualization (ROADMAP item 3; DESIGN.md §15): unbounded
// virtual protection keys multiplexed onto the physical key space.
//
// The kernel runs this table under the vpkey syscalls: a per-process map
// of virtual keys (ids are monotonic and never reused, so the space is
// unbounded) onto physical pkeys drawn from the process's key manager —
// 1023 usable keys on SealPK, 15 on the Intel-MPK flavour (the libmpk
// setting the paper compares against in §VI). Using an unmapped vkey
// evicts the least-recently-used mapping and re-keys pages through the
// *live page tables* — every PTE rewrite and TLB shootdown happens for
// real via the VkeyOps port the kernel passes in, not as modelled cycles.
//
// Mechanics (each is a measured axis of the key-churn benchmarks):
//   - Parking: pages of an unmapped vkey are re-keyed to one reserved
//     physical "park" key whose PKR field is permanently no-access, so an
//     evicted domain's pages stay isolated without per-page PTE permission
//     edits.
//   - Grouped/batched mprotect: vpkey_mprotect on an unmapped vkey only
//     records the page group and parks it; the expensive re-key to a
//     physical key is deferred to map-in time, where all of the vkey's
//     groups are rewritten under a single TLB shootdown.
//   - MRU cache: the most-recently-set vkeys are pinned (exempt from
//     eviction) and their permission updates skip the bookkeeping path —
//     the libmpk "pkey cache" the paper's §VI comparison assumes.
//   - Eager vs lazy sync (KernelConfig::vkey_lazy_sync): eager parks a
//     victim's pages at eviction time (one shootdown per eviction); lazy
//     runs the drain queue as a victim cache. Victims keep exclusive
//     ownership of their physical key (its PKR field is no-access, so
//     isolation holds) with their pages not yet parked: when the free pool
//     runs dry the queue is topped up to kVkeyDrainBatch victims (perm-only
//     evictions, zero PTE work) and only the OLDEST half is parked, under
//     one batched shootdown. The younger half stays draining, so a set()
//     that returns to one of them revives the mapping with zero PTE
//     traffic — the paper's lazy de-allocation idea applied to
//     virtualization: amortized shootdowns plus a second chance for
//     recently evicted domains.
//
// Header-only on purpose: the kernel (repro_os) consumes this like
// mpk/key_manager.h, and repro_mpk links repro_os, so an out-of-line
// definition here would cycle the link graph.
#pragma once

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"
#include "os/syscall_abi.h"

namespace sealpk::mpk {

// Virtual key ids start above any physical key number, so a guest can never
// confuse the two ABIs (and a vkey accidentally passed to pkey_mprotect
// fails the physical range check instead of aliasing a real key).
inline constexpr u64 kVkeyBase = 0x10000;

// Lazy sync: when the free pool runs dry the drain queue is topped up to
// this many victims before the oldest half is parked in one shootdown.
inline constexpr u64 kVkeyDrainBatch = 32;

// Side-effect port the kernel passes into every table operation. The table
// owns the *policy* (who is mapped, who drains, who gets evicted); the
// kernel owns the *mechanism* (PTE rewrites through AddressSpace, PKR
// writes, TLB shootdowns, cycle charging). Implementations are stack
// adapters built per syscall — never stored, so snapshots carry no hooks.
class VkeyOps {
 public:
  virtual ~VkeyOps() = default;
  // A fresh physical key from the key manager, or a negative errno when
  // the physical space is exhausted (the table then starts evicting).
  virtual i64 acquire_phys() = 0;
  // Re-keys [addr, addr+len) to `pkey`, keeping `prot`. Returns pages
  // rewritten or a negative errno. Does NOT flush the TLB — the table
  // calls flush_tlb() once per batch.
  virtual i64 rekey(u64 addr, u64 len, u64 prot, u32 pkey) = 0;
  // Writes a physical key's live 2-bit PKR permission.
  virtual void set_perm(u32 pkey, u8 perm) = 0;
  // One TLB shootdown covering every rekey() since the previous flush.
  virtual void flush_tlb() = 0;
  // Observability notifications (default no-ops): the table makes the
  // policy decisions, so only it knows which vkey mapped in, which one was
  // evicted, and how big a drain batch was. The kernel adapter turns these
  // into kVkeyMap / kVkeyEvict / kVkeySync trace events.
  virtual void note_map(u64 vkey, u32 phys, u64 pages) {
    (void)vkey, (void)phys, (void)pages;
  }
  virtual void note_evict(u64 vkey, u32 phys, bool drained) {
    (void)vkey, (void)phys, (void)drained;
  }
  virtual void note_sync(u64 pages, u64 vkeys) { (void)pages, (void)vkeys; }
};

struct VkeyTableConfig {
  u32 mru_slots = 8;      // pinned most-recently-used vkeys (0 = no cache)
  bool lazy_sync = false; // eager (park at eviction) vs lazy (drain queue)
};

// Aggregate churn counters; the canonical benchmark record is derived from
// exactly these (integer-only, deterministic).
struct VkeyStats {
  u64 allocs = 0;
  u64 frees = 0;
  u64 sets = 0;          // vpkey_set calls
  u64 mprotects = 0;     // vpkey_mprotect calls
  u64 map_ins = 0;       // unmapped vkey bound to a physical key
  u64 revivals = 0;      // draining vkey re-mapped with zero PTE work
  u64 mru_hits = 0;      // sets served from the pinned MRU cache
  u64 evictions = 0;     // mappings reclaimed from the LRU tail
  u64 drains = 0;        // vkeys parked out of the drain queue
  u64 drain_flushes = 0; // batched shootdowns that emptied the queue
  u64 pte_rekeys = 0;    // leaf PTEs rewritten on behalf of the table
  u64 tlb_flushes = 0;   // shootdowns issued on behalf of the table

  bool operator==(const VkeyStats&) const = default;
};

enum class VkeyState : u8 {
  kUnmapped = 0,  // no physical key; pages (if any) carry the park key
  kMapped,        // physical key live; pages carry it
  kDraining,      // lazily evicted: still owns its physical key, PKR field
                  // no-access, pages not yet parked
};

// One contiguous page group assigned by vpkey_mprotect.
struct VkeyGroup {
  u64 addr = 0;
  u64 len = 0;
  u64 prot = 0;

  bool operator==(const VkeyGroup&) const = default;
};

struct VkeyEntry {
  VkeyState state = VkeyState::kUnmapped;
  u8 perm = 0;    // last requested 2-bit permission
  u32 phys = 0;   // valid in kMapped / kDraining
  u64 pages = 0;  // total pages across groups
  std::vector<VkeyGroup> groups;
};

// Outcomes of set() — the kernel charges cycles by how much machinery ran.
enum class VkeySetOutcome : u8 {
  kMruHit = 0,   // pinned cache: PKR write only
  kHit,          // mapped: PKR write + LRU touch
  kRevived,      // draining: re-mapped without any PTE traffic
  kMappedIn,     // unmapped: map-in (possibly after eviction/drain)
};

// Mapped vkeys in recency order (front = most recent), with an index from
// vkey to its list node so that touching or removing one is O(1) however
// many vkeys are mapped. Iteration order is the list order, which is what
// save_state writes.
class VkeyLru {
 public:
  VkeyLru() = default;
  // Not copyable: the index holds iterators into this object's list.
  VkeyLru(const VkeyLru&) = delete;
  VkeyLru& operator=(const VkeyLru&) = delete;

  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  u64 back() const { return order_.back(); }
  auto begin() const { return order_.begin(); }
  auto end() const { return order_.end(); }
  auto rbegin() const { return order_.rbegin(); }
  auto rend() const { return order_.rend(); }
  bool contains(u64 vkey) const { return pos_.count(vkey) != 0; }

  void push_front(u64 vkey) {
    SEALPK_CHECK(!contains(vkey));
    order_.push_front(vkey);
    pos_.emplace(vkey, order_.begin());
  }
  void push_back(u64 vkey) {
    SEALPK_CHECK(!contains(vkey));
    order_.push_back(vkey);
    pos_.emplace(vkey, std::prev(order_.end()));
  }
  void touch(u64 vkey) {
    const auto it = pos_.find(vkey);
    SEALPK_CHECK(it != pos_.end());
    order_.splice(order_.begin(), order_, it->second);
  }
  void remove(u64 vkey) {
    const auto it = pos_.find(vkey);
    SEALPK_CHECK(it != pos_.end());
    order_.erase(it->second);
    pos_.erase(it);
  }
  void clear() {
    order_.clear();
    pos_.clear();
  }

 private:
  std::list<u64> order_;
  std::unordered_map<u64, std::list<u64>::iterator> pos_;
};

// The table is parameterised on its LRU container only so that tests can
// run it against a reference container; everything else uses VkeyTable.
template <typename Lru>
class BasicVkeyTable {
 public:
  explicit BasicVkeyTable(VkeyTableConfig config = {}) : config_(config) {}

  const VkeyTableConfig& config() const { return config_; }
  const VkeyStats& stats() const { return stats_; }
  u64 live() const { return entries_.size(); }
  u64 mapped() const { return lru_.size(); }
  u64 draining() const { return drain_queue_.size(); }
  u32 park_key() const { return park_; }
  const std::map<u64, VkeyEntry>& entries() const { return entries_; }
  const std::vector<u32>& acquired() const { return acquired_; }
  const std::vector<u32>& pool() const { return pool_; }

  // --- vpkey_alloc: metadata only (the physical key is bound lazily) ------
  i64 alloc(u64 flags, u8 init_perm) {
    if (flags != 0 || init_perm > 3) return os::err::kInval;
    const u64 vkey = next_vkey_++;
    VkeyEntry e;
    e.perm = init_perm;
    entries_.emplace(vkey, std::move(e));
    ++stats_.allocs;
    return static_cast<i64>(vkey);
  }

  // --- vpkey_mprotect: record the group; re-key now only if mapped --------
  i64 mprotect(VkeyOps& ops, u64 addr, u64 len, u64 prot, u64 vkey) {
    VkeyEntry* e = find(vkey);
    if (e == nullptr) return os::err::kInval;
    // An unmapped vkey's pages go to the park key (isolated immediately,
    // re-keyed for real at map-in); a draining vkey still exclusively owns
    // its physical key, so new pages may carry it directly.
    u32 target = 0;
    if (e->state == VkeyState::kUnmapped) {
      const i64 rc = ensure_park(ops);
      if (rc < 0) return rc;
      target = park_;
    } else {
      target = e->phys;
    }
    const i64 pages = ops.rekey(addr, len, prot, target);
    if (pages < 0) return pages;
    flush(ops);
    stats_.pte_rekeys += static_cast<u64>(pages);
    e->groups.push_back({addr, len, prot});
    e->pages += static_cast<u64>(pages);
    ++stats_.mprotects;
    if (e->state == VkeyState::kMapped) touch_lru(vkey);
    return 0;
  }

  // --- vpkey_set: permission update, mapping the vkey in if needed --------
  i64 set(VkeyOps& ops, u64 vkey, u8 perm) {
    if (perm > 3) return os::err::kInval;
    VkeyEntry* e = find(vkey);
    if (e == nullptr) return os::err::kInval;
    ++stats_.sets;
    if (e->state == VkeyState::kMapped) {
      if (mru_contains(vkey)) {
        ++stats_.mru_hits;
        ops.set_perm(e->phys, perm);
        e->perm = perm;
        touch_mru(vkey);
        touch_lru(vkey);
        return static_cast<i64>(VkeySetOutcome::kMruHit);
      }
      ops.set_perm(e->phys, perm);
      e->perm = perm;
      touch_lru(vkey);
      touch_mru(vkey);
      return static_cast<i64>(VkeySetOutcome::kHit);
    }
    if (e->state == VkeyState::kDraining) {
      // Lazy revival: the physical key never left this vkey, so remapping
      // is pure bookkeeping — zero PTE traffic. This is the case lazy sync
      // exists for.
      drain_queue_.erase(
          std::find(drain_queue_.begin(), drain_queue_.end(), vkey));
      e->state = VkeyState::kMapped;
      insert_lru(vkey);
      ops.set_perm(e->phys, perm);
      e->perm = perm;
      touch_mru(vkey);
      ++stats_.revivals;
      return static_cast<i64>(VkeySetOutcome::kRevived);
    }
    // Unmapped: bind a physical key and replay every recorded group under
    // one shootdown (the batched-mprotect payoff).
    const i64 phys = take_phys(ops);
    if (phys < 0) return phys;
    e->phys = static_cast<u32>(phys);
    e->state = VkeyState::kMapped;
    for (const VkeyGroup& g : e->groups) {
      const i64 pages = ops.rekey(g.addr, g.len, g.prot, e->phys);
      if (pages >= 0) stats_.pte_rekeys += static_cast<u64>(pages);
    }
    if (!e->groups.empty()) flush(ops);
    insert_lru(vkey);
    ops.set_perm(e->phys, perm);
    e->perm = perm;
    touch_mru(vkey);
    ++stats_.map_ins;
    ops.note_map(vkey, e->phys, e->pages);
    return static_cast<i64>(VkeySetOutcome::kMappedIn);
  }

  // --- vpkey_free: pages return to the default domain ---------------------
  i64 free_vkey(VkeyOps& ops, u64 vkey) {
    VkeyEntry* e = find(vkey);
    if (e == nullptr) return os::err::kInval;
    for (const VkeyGroup& g : e->groups) {
      const i64 pages = ops.rekey(g.addr, g.len, g.prot, 0);
      if (pages >= 0) stats_.pte_rekeys += static_cast<u64>(pages);
    }
    if (!e->groups.empty()) flush(ops);
    switch (e->state) {
      case VkeyState::kMapped:
        remove_lru(vkey);
        remove_mru(vkey);
        release_phys(ops, e->phys);
        break;
      case VkeyState::kDraining:
        drain_queue_.erase(
            std::find(drain_queue_.begin(), drain_queue_.end(), vkey));
        release_phys(ops, e->phys);
        break;
      case VkeyState::kUnmapped:
        break;
    }
    entries_.erase(vkey);
    ++stats_.frees;
    return 0;
  }

  // --- audit / repair ports (Kernel::audit, fault injector) ---------------
  // Mutable entry access for the fault injector's table-corruption kind and
  // the audit's repair path. Policy state (LRU, pool, drain queue) stays
  // private; repair goes through force_phys/rebuild_pool below.
  VkeyEntry* find(u64 vkey) {
    auto it = entries_.find(vkey);
    return it == entries_.end() ? nullptr : &it->second;
  }
  const VkeyEntry* find(u64 vkey) const {
    auto it = entries_.find(vkey);
    return it == entries_.end() ? nullptr : &it->second;
  }

  // Overwrites a vkey's recorded physical key (audit repair: the leaf
  // PTEs are the ground truth a corrupted table field is rebuilt from).
  void force_phys(u64 vkey, u32 phys) {
    VkeyEntry* e = find(vkey);
    SEALPK_CHECK(e != nullptr);
    e->phys = phys;
  }

  // Recomputes the free pool as acquired − park − {keys owned by mapped or
  // draining vkeys}, in descending order so take order stays deterministic.
  void rebuild_pool() {
    std::vector<u32> in_use;
    for (const auto& [vkey, e] : entries_) {
      if (e.state != VkeyState::kUnmapped) in_use.push_back(e.phys);
    }
    pool_.clear();
    for (const u32 k : acquired_) {
      if (k == park_) continue;
      if (std::find(in_use.begin(), in_use.end(), k) != in_use.end()) {
        continue;
      }
      pool_.push_back(k);
    }
    std::sort(pool_.begin(), pool_.end(), std::greater<u32>());
  }

  // --- snapshot port (VKEY section, format v2) ----------------------------
  void save_state(ByteWriter& w) const { fields(w, *this); }
  void load_state(ByteReader& r) { fields(r, *this); }

 private:
  void flush(VkeyOps& ops) {
    ops.flush_tlb();
    ++stats_.tlb_flushes;
  }

  i64 ensure_park(VkeyOps& ops) {
    if (park_ != 0) return 0;
    const i64 k = ops.acquire_phys();
    if (k < 0) return k;
    park_ = static_cast<u32>(k);
    acquired_.push_back(park_);
    ops.set_perm(park_, 0b11);  // permanently no-access
    return 0;
  }

  // A physical key for a map-in: pool, then the key manager, then (pool
  // exhausted for real) the eviction path.
  i64 take_phys(VkeyOps& ops) {
    // The park key must exist before the first mapping: eviction parks
    // pages, and acquiring it *after* the space is exhausted would fail.
    const i64 prc = ensure_park(ops);
    if (prc < 0) return prc;
    if (!pool_.empty()) {
      const u32 k = pool_.back();
      pool_.pop_back();
      return k;
    }
    const i64 fresh = ops.acquire_phys();
    if (fresh >= 0) {
      acquired_.push_back(static_cast<u32>(fresh));
      return fresh;
    }
    if (config_.lazy_sync) {
      // Victim cache: top the queue up to the batch size (perm-only
      // evictions, no PTE work yet), then park only the oldest half under
      // one shootdown. The younger half keeps draining, so a set() on one
      // of those revives with zero PTE traffic, and each shootdown
      // amortizes over ~kVkeyDrainBatch/2 victims.
      while (drain_queue_.size() < kVkeyDrainBatch) {
        if (evict_to_drain(ops) < 0) break;
      }
      if (drain_queue_.empty()) return os::err::kNoSpc;
      drain_front(ops, (drain_queue_.size() + 1) / 2);
      SEALPK_CHECK(!pool_.empty());
      const u32 k = pool_.back();
      pool_.pop_back();
      return k;
    }
    return evict_eager(ops);
  }

  void release_phys(VkeyOps& ops, u32 phys) {
    ops.set_perm(phys, 0b11);
    pool_.push_back(phys);
  }

  // The LRU victim, skipping MRU-pinned vkeys when possible.
  u64 pick_victim() const {
    SEALPK_CHECK(!lru_.empty());
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (!mru_contains(*it)) return *it;
    }
    return lru_.back();  // everything pinned: evict the LRU tail anyway
  }

  // Eager eviction: park the victim's pages now, return its key.
  i64 evict_eager(VkeyOps& ops) {
    if (lru_.empty()) return os::err::kNoSpc;
    const u64 victim = pick_victim();
    VkeyEntry* v = find(victim);
    SEALPK_CHECK(v != nullptr && v->state == VkeyState::kMapped);
    remove_lru(victim);
    remove_mru(victim);
    const u32 phys = v->phys;
    ops.set_perm(phys, 0b11);
    for (const VkeyGroup& g : v->groups) {
      const i64 pages = ops.rekey(g.addr, g.len, g.prot, park_);
      if (pages >= 0) stats_.pte_rekeys += static_cast<u64>(pages);
    }
    if (!v->groups.empty()) flush(ops);
    v->state = VkeyState::kUnmapped;
    v->phys = 0;
    ++stats_.evictions;
    ops.note_evict(victim, phys, /*drained=*/false);
    return phys;
  }

  // Lazy eviction: the victim keeps its key (no-access) on the drain queue.
  i64 evict_to_drain(VkeyOps& ops) {
    if (lru_.empty()) return os::err::kNoSpc;
    const u64 victim = pick_victim();
    VkeyEntry* v = find(victim);
    SEALPK_CHECK(v != nullptr && v->state == VkeyState::kMapped);
    remove_lru(victim);
    remove_mru(victim);
    ops.set_perm(v->phys, 0b11);
    v->state = VkeyState::kDraining;
    drain_queue_.push_back(victim);
    ++stats_.evictions;
    ops.note_evict(victim, v->phys, /*drained=*/true);
    return 0;
  }

  // Parks the `n` oldest drained vkeys' pages under ONE shootdown and
  // refills the pool with their keys — the batched PTE traffic lazy sync
  // buys. Younger queue members keep draining as revival candidates.
  void drain_front(VkeyOps& ops, u64 n) {
    n = std::min<u64>(n, drain_queue_.size());
    if (n == 0) return;
    u64 batch_pages = 0;
    for (u64 i = 0; i < n; ++i) {
      const u64 vkey = drain_queue_[i];
      VkeyEntry* e = find(vkey);
      SEALPK_CHECK(e != nullptr && e->state == VkeyState::kDraining);
      for (const VkeyGroup& g : e->groups) {
        const i64 pages = ops.rekey(g.addr, g.len, g.prot, park_);
        if (pages >= 0) {
          stats_.pte_rekeys += static_cast<u64>(pages);
          batch_pages += static_cast<u64>(pages);
        }
      }
      e->state = VkeyState::kUnmapped;
      pool_.push_back(e->phys);
      e->phys = 0;
      ++stats_.drains;
    }
    drain_queue_.erase(drain_queue_.begin(),
                       drain_queue_.begin() + static_cast<ptrdiff_t>(n));
    if (batch_pages != 0) flush(ops);
    ++stats_.drain_flushes;
    ops.note_sync(batch_pages, n);
  }

  // Smallest encodings of one entry (vkey, state, perm, phys, pages, group
  // count) and of one group, for load_state's count checks.
  static constexpr u64 kEntryBytes = 8 + 1 + 1 + 4 + 8 + 8;
  static constexpr u64 kGroupBytes = 3 * 8;

  template <typename Io, typename Self>
  static void fields(Io& io, Self& self) {
    io.fields(self.config_.mru_slots, self.config_.lazy_sync,
              self.next_vkey_, self.park_);
    io.keyed(self.entries_, kEntryBytes, [&](auto& vkey, auto& e) {
      io.fields(vkey, as<u8>(e.state), e.perm, e.phys, e.pages);
      io.seq(e.groups, kGroupBytes,
             [&](auto& g) { io.fields(g.addr, g.len, g.prot); });
    });
    // Every LRU member must be a distinct mapped vkey: touch/remove and
    // pick_victim rely on it.
    io.seq(self.lru_, sizeof(u64), [&](auto& vkey) {
      io.field(vkey);
      if constexpr (Io::kLoading) {
        const VkeyEntry* e = self.find(vkey);
        SEALPK_CHECK_MSG(e != nullptr && e->state == VkeyState::kMapped,
                         "vkey LRU names vkey " << vkey
                                                << " which is not mapped");
        SEALPK_CHECK_MSG(!self.lru_.contains(vkey),
                         "vkey LRU repeats vkey " << vkey);
      }
    });
    io.seq(self.mru_, sizeof(u64));
    io.seq(self.pool_, sizeof(u32));
    io.seq(self.drain_queue_, sizeof(u64));
    io.seq(self.acquired_, sizeof(u32));
    auto& st = self.stats_;
    io.fields(st.allocs, st.frees, st.sets, st.mprotects, st.map_ins,
              st.revivals, st.mru_hits, st.evictions, st.drains,
              st.drain_flushes, st.pte_rekeys, st.tlb_flushes);
  }

  // --- LRU / MRU bookkeeping ----------------------------------------------
  void insert_lru(u64 vkey) { lru_.push_front(vkey); }
  void touch_lru(u64 vkey) { lru_.touch(vkey); }
  void remove_lru(u64 vkey) { lru_.remove(vkey); }
  bool mru_contains(u64 vkey) const {
    return std::find(mru_.begin(), mru_.end(), vkey) != mru_.end();
  }
  void touch_mru(u64 vkey) {
    auto it = std::find(mru_.begin(), mru_.end(), vkey);
    if (it != mru_.end()) mru_.erase(it);
    mru_.insert(mru_.begin(), vkey);
    if (mru_.size() > config_.mru_slots) mru_.resize(config_.mru_slots);
  }
  void remove_mru(u64 vkey) {
    auto it = std::find(mru_.begin(), mru_.end(), vkey);
    if (it != mru_.end()) mru_.erase(it);
  }

  VkeyTableConfig config_;
  std::map<u64, VkeyEntry> entries_;  // ordered: canonical serialization
  Lru lru_;                           // mapped vkeys, front = most recent
  std::vector<u64> mru_;              // pinned cache, front = most recent
  std::vector<u32> pool_;             // free acquired physical keys (stack)
  std::vector<u64> drain_queue_;      // lazily evicted vkeys, FIFO
  std::vector<u32> acquired_;         // every physical key ever acquired
  u32 park_ = 0;                      // 0 = not yet acquired
  u64 next_vkey_ = kVkeyBase;
  VkeyStats stats_;
};

using VkeyTable = BasicVkeyTable<VkeyLru>;

}  // namespace sealpk::mpk
