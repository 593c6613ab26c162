// Pkey virtualization (src/mpk, DESIGN.md §15): the in-kernel VkeyTable
// (policy exercised against a mock side-effect port), the vpkey guest
// syscall ABI and the session-server workload on both ISA flavours,
// snapshot round-trips of the vkey table, and corruption detect + repair
// through the kernel's consistency audit.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "fault/fault.h"
#include "guest_test_util.h"
#include "mpk/session.h"
#include "obs/span.h"
#include "mpk/vkey_table.h"
#include "os/audit.h"
#include "snapshot/snapshot.h"
#include "workloads/workload.h"

namespace sealpk {
namespace {

using namespace isa;

// ---------------------------------------------------------------------------
// VkeyTable — policy vs a recording mock of the kernel's side-effect port.
// ---------------------------------------------------------------------------

struct RekeyCall {
  u64 addr = 0;
  u64 len = 0;
  u32 pkey = 0;
};

class MockOps : public mpk::VkeyOps {
 public:
  explicit MockOps(u32 usable_keys) : limit_(usable_keys) {}

  i64 acquire_phys() override {
    if (next_ > limit_) return os::err::kNoSpc;
    return next_++;
  }
  i64 rekey(u64 addr, u64 len, u64 /*prot*/, u32 pkey) override {
    rekeys.push_back({addr, len, pkey});
    return static_cast<i64>((len + 4095) / 4096);
  }
  void set_perm(u32 pkey, u8 perm) override { perm_writes.push_back({pkey, perm}); }
  void flush_tlb() override { ++flushes; }
  void note_evict(u64 vkey, u32 /*phys*/, bool drained) override {
    evicts.push_back({vkey, drained});
  }
  void note_sync(u64 pages, u64 vkeys) override {
    syncs.push_back({pages, vkeys});
  }

  std::vector<RekeyCall> rekeys;
  std::vector<std::pair<u32, u8>> perm_writes;
  std::vector<std::pair<u64, bool>> evicts;
  std::vector<std::pair<u64, u64>> syncs;
  u64 flushes = 0;

 private:
  u32 next_ = 1;  // key 0 is the default domain
  u32 limit_;
};

// Allocates a vkey, assigns `pages` one-page groups and maps it in.
u64 map_in(mpk::VkeyTable& table, MockOps& ops, u64 base, u64 pages = 1) {
  const i64 vkey = table.alloc(0, 3);
  EXPECT_GT(vkey, 0);
  for (u64 p = 0; p < pages; ++p) {
    EXPECT_EQ(table.mprotect(ops, base + p * 4096, 4096, 3,
                             static_cast<u64>(vkey)),
              0);
  }
  EXPECT_GE(table.set(ops, static_cast<u64>(vkey), 0), 0);
  return static_cast<u64>(vkey);
}

TEST(VkeyTable, AllocIsMetadataOnly) {
  mpk::VkeyTable table;
  MockOps ops(4);
  const i64 vkey = table.alloc(0, 3);
  EXPECT_GE(vkey, static_cast<i64>(mpk::kVkeyBase));
  EXPECT_EQ(table.live(), 1u);
  EXPECT_EQ(table.mapped(), 0u);
  EXPECT_TRUE(ops.rekeys.empty());
  EXPECT_TRUE(ops.perm_writes.empty());
  EXPECT_EQ(table.alloc(1, 0), os::err::kInval);  // unknown flags
  EXPECT_EQ(table.alloc(0, 4), os::err::kInval);  // perm out of range
}

TEST(VkeyTable, UnmappedGroupsParkThenReplayUnderOneFlush) {
  mpk::VkeyTable table;
  MockOps ops(4);
  const i64 vkey = table.alloc(0, 3);
  ASSERT_GT(vkey, 0);
  // Two groups while unmapped: both re-key to the park key.
  ASSERT_EQ(table.mprotect(ops, 0x10000, 8192, 3, vkey), 0);
  ASSERT_EQ(table.mprotect(ops, 0x20000, 4096, 3, vkey), 0);
  ASSERT_EQ(ops.rekeys.size(), 2u);
  EXPECT_EQ(ops.rekeys[0].pkey, table.park_key());
  EXPECT_EQ(ops.rekeys[1].pkey, table.park_key());
  // Map-in: both groups replayed to the bound key, one extra flush total.
  const u64 flushes_before = ops.flushes;
  const size_t rekeys_before = ops.rekeys.size();
  ASSERT_EQ(table.set(ops, vkey, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kMappedIn));
  EXPECT_EQ(ops.flushes, flushes_before + 1);
  ASSERT_EQ(ops.rekeys.size(), rekeys_before + 2);
  const u32 phys = table.find(static_cast<u64>(vkey))->phys;
  EXPECT_EQ(ops.rekeys[rekeys_before].pkey, phys);
  EXPECT_EQ(ops.rekeys[rekeys_before + 1].pkey, phys);
  EXPECT_EQ(table.stats().pte_rekeys, 6u);  // 3 parked + 3 replayed
}

TEST(VkeyTable, ParkKeyIsPermanentlyNoAccessAndNeverPooled) {
  mpk::VkeyTable table;
  MockOps ops(4);
  map_in(table, ops, 0x10000);
  const u32 park = table.park_key();
  ASSERT_NE(park, 0u);
  // The very first PKR write is the park key going no-access.
  ASSERT_FALSE(ops.perm_writes.empty());
  EXPECT_EQ(ops.perm_writes.front().first, park);
  EXPECT_EQ(ops.perm_writes.front().second, 0b11);
  for (const u32 k : table.pool()) EXPECT_NE(k, park);
  for (const auto& [vkey, e] : table.entries()) {
    if (e.state != mpk::VkeyState::kUnmapped) {
      EXPECT_NE(e.phys, park);
    }
  }
}

TEST(VkeyTable, EagerEvictionPicksLeastRecentlyUsed) {
  mpk::VkeyTable table({.mru_slots = 0, .lazy_sync = false});
  MockOps ops(4);  // park + 3 usable
  const u64 a = map_in(table, ops, 0x10000);
  const u64 b = map_in(table, ops, 0x20000);
  const u64 c = map_in(table, ops, 0x30000);
  EXPECT_EQ(table.mapped(), 3u);
  ASSERT_EQ(table.set(ops, a, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kHit));  // a most recent
  const u64 d = map_in(table, ops, 0x40000);  // space exhausted: evict b
  ASSERT_EQ(ops.evicts.size(), 1u);
  EXPECT_EQ(ops.evicts[0].first, b);
  EXPECT_FALSE(ops.evicts[0].second);  // eager, not drained
  EXPECT_EQ(table.find(b)->state, mpk::VkeyState::kUnmapped);
  EXPECT_EQ(table.find(a)->state, mpk::VkeyState::kMapped);
  // The victim's page went back to the park key (the final rekey is d's
  // own group replayed onto its freshly bound physical key).
  ASSERT_GE(ops.rekeys.size(), 2u);
  EXPECT_EQ(ops.rekeys[ops.rekeys.size() - 2].pkey, table.park_key());
  EXPECT_EQ(table.stats().evictions, 1u);
  // Touch order continues to rotate: now c is the stale one.
  ASSERT_GE(table.set(ops, a, 0), 0);
  ASSERT_GE(table.set(ops, d, 0), 0);
  ASSERT_EQ(table.set(ops, b, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kMappedIn));
  ASSERT_EQ(ops.evicts.size(), 2u);
  EXPECT_EQ(ops.evicts[1].first, c);
}

TEST(VkeyTable, MruPinnedVkeysAreSkippedByEviction) {
  // mprotect touches the LRU but not the MRU pin list, so the two orders
  // can diverge: the LRU tail may be the one pinned vkey.
  mpk::VkeyTable table({.mru_slots = 1, .lazy_sync = false});
  MockOps ops(3);  // park + 2 usable
  const u64 a = map_in(table, ops, 0x10000);
  const u64 b = map_in(table, ops, 0x20000);  // MRU = {b}
  ASSERT_EQ(table.mprotect(ops, 0x11000, 4096, 3, a), 0);  // LRU: a, b
  map_in(table, ops, 0x30000);
  // LRU tail is b, but b is pinned — the victim must be a.
  ASSERT_EQ(ops.evicts.size(), 1u);
  EXPECT_EQ(ops.evicts[0].first, a);
  EXPECT_EQ(table.find(b)->state, mpk::VkeyState::kMapped);
}

TEST(VkeyTable, MruHitSkipsBookkeeping) {
  mpk::VkeyTable table({.mru_slots = 2, .lazy_sync = false});
  MockOps ops(8);
  const u64 a = map_in(table, ops, 0x10000);
  ASSERT_EQ(table.set(ops, a, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kMruHit));
  EXPECT_EQ(table.stats().mru_hits, 1u);
  // Push a out of the 2-slot cache; its next set is a plain hit.
  const u64 b = map_in(table, ops, 0x20000);
  const u64 c = map_in(table, ops, 0x30000);
  ASSERT_EQ(table.set(ops, a, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kHit));
  ASSERT_EQ(table.set(ops, b, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kHit));
  ASSERT_EQ(table.set(ops, c, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kHit));
  EXPECT_EQ(table.stats().mru_hits, 1u);
}

TEST(VkeyTable, LazySyncDrainsInBatchesAndRevives) {
  mpk::VkeyTable table({.mru_slots = 0, .lazy_sync = true});
  MockOps ops(8);  // park + 7 usable
  std::vector<u64> vkeys;
  for (u64 i = 0; i < 7; ++i) {
    vkeys.push_back(map_in(table, ops, 0x10000 + i * 0x10000));
  }
  EXPECT_EQ(table.mapped(), 7u);
  EXPECT_EQ(table.stats().evictions, 0u);
  // The 8th map-in exhausts the space: the queue tops up with every mapped
  // vkey (fewer than the batch size), the oldest half (4) is parked under
  // ONE shootdown and the younger 3 keep draining.
  const u64 h = map_in(table, ops, 0x90000);
  EXPECT_EQ(table.stats().evictions, 7u);
  EXPECT_EQ(table.stats().drains, 4u);
  EXPECT_EQ(table.stats().drain_flushes, 1u);
  EXPECT_EQ(table.draining(), 3u);
  ASSERT_EQ(ops.syncs.size(), 1u);
  EXPECT_EQ(ops.syncs[0].second, 4u);  // vkeys in the batch
  for (const auto& [vkey, drained] : ops.evicts) EXPECT_TRUE(drained);
  EXPECT_EQ(table.find(h)->state, mpk::VkeyState::kMapped);
  // A drained victim went through the park re-key...
  EXPECT_EQ(table.find(vkeys[0])->state, mpk::VkeyState::kUnmapped);
  // ...but a queue survivor revives with zero PTE traffic.
  const u64 survivor = vkeys[6];
  ASSERT_EQ(table.find(survivor)->state, mpk::VkeyState::kDraining);
  const size_t rekeys_before = ops.rekeys.size();
  ASSERT_EQ(table.set(ops, survivor, 0),
            static_cast<i64>(mpk::VkeySetOutcome::kRevived));
  EXPECT_EQ(ops.rekeys.size(), rekeys_before);
  EXPECT_EQ(table.stats().revivals, 1u);
  EXPECT_EQ(table.find(survivor)->state, mpk::VkeyState::kMapped);
}

TEST(VkeyTable, FreeReturnsPagesToTheDefaultDomain) {
  mpk::VkeyTable table({.mru_slots = 0, .lazy_sync = false});
  MockOps ops(4);
  const u64 a = map_in(table, ops, 0x10000);
  const u64 pool_before = table.pool().size();
  ASSERT_EQ(table.free_vkey(ops, a), 0);
  EXPECT_EQ(ops.rekeys.back().pkey, 0u);  // pages back to key 0
  EXPECT_EQ(table.pool().size(), pool_before + 1);
  EXPECT_EQ(table.live(), 0u);
  EXPECT_EQ(table.find(a), nullptr);
  EXPECT_EQ(table.free_vkey(ops, a), os::err::kInval);  // ids never reused
  EXPECT_EQ(table.stats().frees, 1u);
}

TEST(VkeyTable, PhysicalKeysStayExclusiveUnderChurn) {
  mpk::VkeyTable table({.mru_slots = 2, .lazy_sync = true});
  MockOps ops(6);  // park + 5 usable
  std::vector<u64> vkeys;
  for (u64 i = 0; i < 24; ++i) {
    vkeys.push_back(map_in(table, ops, 0x10000 + i * 0x10000));
    if (i % 5 == 3) {
      ASSERT_EQ(table.free_vkey(ops, vkeys[i / 2]), 0);
    }
    ASSERT_GE(table.set(ops, vkeys.back(), 1), 0);
  }
  // Exclusivity: no two live mappings share a physical key, none uses the
  // park key (the audit's kVkeyCoherence invariant, checked table-side).
  std::vector<u32> seen = {table.park_key()};
  for (const auto& [vkey, e] : table.entries()) {
    if (e.state == mpk::VkeyState::kUnmapped) continue;
    for (const u32 k : seen) EXPECT_NE(e.phys, k) << "vkey " << vkey;
    seen.push_back(e.phys);
  }
}

TEST(VkeyTable, SaveLoadRoundTripIsBitIdentical) {
  mpk::VkeyTable table({.mru_slots = 2, .lazy_sync = true});
  MockOps ops(5);
  std::vector<u64> vkeys;
  for (u64 i = 0; i < 9; ++i) {
    vkeys.push_back(map_in(table, ops, 0x10000 + i * 0x10000, 1 + i % 3));
  }
  ASSERT_EQ(table.free_vkey(ops, vkeys[2]), 0);

  ByteWriter w1;
  table.save_state(w1);
  mpk::VkeyTable restored;
  ByteReader r(w1.buffer());
  restored.load_state(r);
  ByteWriter w2;
  restored.save_state(w2);
  ASSERT_EQ(w1.buffer(), w2.buffer());
  EXPECT_EQ(restored.stats(), table.stats());
  EXPECT_EQ(restored.live(), table.live());
  EXPECT_EQ(restored.mapped(), table.mapped());
  EXPECT_EQ(restored.park_key(), table.park_key());

  // Post-restore behaviour matches too: same churn, same serialized state.
  // (Zero-key mocks: the physical space is exhausted, so continued churn
  // exercises only the pool/eviction paths — a fresh allocator would hand
  // out already-owned key numbers.)
  MockOps ops_a(0), ops_b(0);
  for (int round = 0; round < 6; ++round) {
    const u64 vkey = vkeys[(round * 5 + 1) % vkeys.size()];
    if (table.find(vkey) == nullptr) continue;
    EXPECT_EQ(table.set(ops_a, vkey, 0), restored.set(ops_b, vkey, 0));
  }
  ByteWriter wa, wb;
  table.save_state(wa);
  restored.save_state(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

// ---------------------------------------------------------------------------
// The O(1) LRU index against the list search it replaced: same decisions,
// same serialized bytes, op for op.
// ---------------------------------------------------------------------------

// The table's former LRU container: a list searched with std::find on every
// touch and removal.
class FindLru {
 public:
  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  u64 back() const { return order_.back(); }
  auto begin() const { return order_.begin(); }
  auto end() const { return order_.end(); }
  auto rbegin() const { return order_.rbegin(); }
  auto rend() const { return order_.rend(); }
  bool contains(u64 vkey) const {
    return std::find(order_.begin(), order_.end(), vkey) != order_.end();
  }
  void push_front(u64 vkey) { order_.push_front(vkey); }
  void push_back(u64 vkey) { order_.push_back(vkey); }
  void touch(u64 vkey) {
    remove(vkey);
    order_.push_front(vkey);
  }
  void remove(u64 vkey) {
    const auto it = std::find(order_.begin(), order_.end(), vkey);
    SEALPK_CHECK(it != order_.end());
    order_.erase(it);
  }
  void clear() { order_.clear(); }

 private:
  std::list<u64> order_;
};

template <typename Table>
std::vector<u8> table_state(const Table& table) {
  ByteWriter w;
  table.save_state(w);
  return w.take();
}

// A table plus the mock kernel it drives.
template <typename Lru>
struct Side {
  Side(mpk::VkeyTableConfig config, u32 keys)
      : table(std::make_unique<mpk::BasicVkeyTable<Lru>>(config)),
        ops(keys) {}

  // save_state -> load_state into a fresh table, as a snapshot restore does.
  void round_trip() {
    const std::vector<u8> bytes = table_state(*table);
    table = std::make_unique<mpk::BasicVkeyTable<Lru>>();
    ByteReader r(bytes);
    table->load_state(r);
    EXPECT_TRUE(r.done());
  }

  std::unique_ptr<mpk::BasicVkeyTable<Lru>> table;
  MockOps ops;
};

void run_against_reference(u32 keys, u64 live_target, bool lazy, u64 seed) {
  const mpk::VkeyTableConfig config{.mru_slots = 4, .lazy_sync = lazy};
  Side<mpk::VkeyLru> fast(config, keys);
  Side<FindLru> ref(config, keys);
  Rng rng(seed);
  std::vector<u64> live;
  std::map<u64, u64> next_page;  // per-vkey group placement
  constexpr int kOps = 2'500;
  for (int op = 0; op < kOps; ++op) {
    if (op == kOps / 2) {
      fast.round_trip();
      ref.round_trip();
      ASSERT_EQ(table_state(*fast.table), table_state(*ref.table));
    }
    const u64 roll = rng.below(100);
    i64 a = 0;
    i64 b = 0;
    if (live.empty() || (live.size() < live_target && roll < 30)) {
      const u8 perm = static_cast<u8>(rng.below(4));
      a = fast.table->alloc(0, perm);
      b = ref.table->alloc(0, perm);
      if (a > 0) live.push_back(static_cast<u64>(a));
    } else {
      const size_t pick = rng.below(live.size());
      const u64 vkey = live[pick];
      if (roll < 75) {
        const u8 perm = static_cast<u8>(rng.below(4));
        a = fast.table->set(fast.ops, vkey, perm);
        b = ref.table->set(ref.ops, vkey, perm);
      } else if (roll < 90) {
        const u64 addr = (vkey << 20) + 4096 * next_page[vkey]++;
        const u64 len = 4096 * rng.range(1, 3);
        a = fast.table->mprotect(fast.ops, addr, len, 3, vkey);
        b = ref.table->mprotect(ref.ops, addr, len, 3, vkey);
      } else {
        a = fast.table->free_vkey(fast.ops, vkey);
        b = ref.table->free_vkey(ref.ops, vkey);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    ASSERT_EQ(a, b) << "op " << op;
    ASSERT_EQ(table_state(*fast.table), table_state(*ref.table))
        << "op " << op;
  }
  EXPECT_EQ(fast.ops.perm_writes, ref.ops.perm_writes);
  EXPECT_EQ(fast.ops.evicts, ref.ops.evicts);
  EXPECT_EQ(fast.ops.syncs, ref.ops.syncs);
  EXPECT_EQ(fast.ops.flushes, ref.ops.flushes);
  // The sequence really churned: keys ran out and mappings were evicted.
  if (live_target > keys) {
    EXPECT_GT(fast.table->stats().evictions, 0u);
  }
}

TEST(VkeyLruIndex, MatchesListSearchReferenceEagerAndLazy) {
  constexpr u32 kKeys = 16;
  for (const bool lazy : {false, true}) {
    for (u64 mult = 1; mult <= 6; ++mult) {
      SCOPED_TRACE(::testing::Message()
                   << (lazy ? "lazy" : "eager") << " x" << mult);
      run_against_reference(kKeys, mult * kKeys, lazy, 100 * mult + lazy);
    }
  }
}

// A hand-built VKEY table stream: vkeys base+0 and base+1 mapped (keys 2
// and 3), base+2 unmapped, with the given LRU list.
std::vector<u8> table_stream(const std::vector<u64>& lru) {
  ByteWriter w;
  w.put_u32(8);                     // mru_slots
  w.put_bool(false);                // lazy_sync
  w.put_u64(mpk::kVkeyBase + 3);    // next_vkey
  w.put_u32(1);                     // park key
  w.put_u64(3);
  for (u64 i = 0; i < 3; ++i) {
    w.put_u64(mpk::kVkeyBase + i);
    w.put_u8(static_cast<u8>(i < 2 ? mpk::VkeyState::kMapped
                                   : mpk::VkeyState::kUnmapped));
    w.put_u8(0);                      // perm
    w.put_u32(i < 2 ? 2 + i : 0);     // phys
    w.put_u64(0);                     // pages
    w.put_u64(0);                     // groups
  }
  w.put_u64(lru.size());
  for (const u64 vkey : lru) w.put_u64(vkey);
  for (int list = 0; list < 4; ++list) w.put_u64(0);  // mru, pool, drain, acq
  for (int stat = 0; stat < 12; ++stat) w.put_u64(0);
  return w.take();
}

std::string load_error(const std::vector<u64>& lru) {
  mpk::VkeyTable table;
  const std::vector<u8> bytes = table_stream(lru);
  ByteReader r(bytes);
  try {
    table.load_state(r);
  } catch (const CheckError& e) {
    return e.what();
  }
  EXPECT_EQ(table_state(table), bytes);
  return "";
}

TEST(VkeyLruIndex, LoadRejectsAnInconsistentLru) {
  const u64 base = mpk::kVkeyBase;
  EXPECT_EQ(load_error({base + 1, base}), "");
  EXPECT_NE(load_error({base, base}).find("repeats vkey"), std::string::npos);
  EXPECT_NE(load_error({base + 2}).find("not mapped"), std::string::npos);
  EXPECT_NE(load_error({base + 9}).find("not mapped"), std::string::npos);
  // A count the stream cannot hold never reaches the loop.
  std::vector<u8> bytes = table_stream({base});
  mpk::VkeyTable table;
  ByteReader r(bytes.data(), bytes.size() - 12 * 8 - 4 * 8 - 8);
  EXPECT_THROW(table.load_state(r), CheckError);
}

// ---------------------------------------------------------------------------
// The vpkey syscall ABI, driven from real guest code.
// ---------------------------------------------------------------------------

sim::MachineConfig flavor_config(core::IsaFlavor flavor) {
  sim::MachineConfig config;
  config.hart.flavor = flavor;
  return config;
}

sim::MachineConfig sealpk_config() {
  return flavor_config(core::IsaFlavor::kSealPk);
}

// The vpkey ABI and the session server run on both ISA flavours.
constexpr core::IsaFlavor kFlavors[] = {core::IsaFlavor::kSealPk,
                                        core::IsaFlavor::kIntelMpkCompat};

// Body: mmap a page, alloc a vkey, protect the page, open, write 0x77,
// read it back and report, then leave the domain `final_perm`.
template <typename Extra>
isa::Program vkey_guest(u64 final_perm, Extra&& extra) {
  return testutil::make_main_program([&](isa::Program& prog,
                                         isa::Function& f) {
    (void)prog;
    const Label fail = f.new_label(), done = f.new_label();
    f.addi(sp, sp, -32);
    f.li(a0, 0);
    f.li(a1, 4096);
    f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
    rt::syscall(f, os::sys::kMmap);
    f.blez(a0, fail);
    f.sd(a0, 0, sp);  // page
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kNone));
    rt::syscall(f, os::sys::kVpkeyAlloc);
    f.blez(a0, fail);
    f.sd(a0, 8, sp);  // vkey
    f.mv(a3, a0);
    f.ld(a0, 0, sp);
    f.li(a1, 4096);
    f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
    rt::syscall(f, os::sys::kVpkeyMprotect);
    f.blt(a0, 0, fail);
    f.ld(a0, 8, sp);
    f.li(a1, static_cast<i64>(os::pkeyperm::kRw));
    rt::syscall(f, os::sys::kVpkeySet);
    f.blt(a0, 0, fail);
    f.ld(t0, 0, sp);
    f.li(t1, 0x77);
    f.sd(t1, 0, t0);
    f.ld(a0, 0, t0);
    rt::syscall(f, os::sys::kReport);
    f.ld(a0, 8, sp);
    f.li(a1, static_cast<i64>(final_perm));
    rt::syscall(f, os::sys::kVpkeySet);
    f.blt(a0, 0, fail);
    extra(f);
    f.li(a0, 0);
    f.addi(sp, sp, 32);
    f.j(done);
    f.bind(fail);
    f.li(a0, 9);
    f.addi(sp, sp, 32);
    f.bind(done);
  });
}

TEST(VpkeySyscalls, AllocProtectSetRoundTrip) {
  for (const core::IsaFlavor flavor : kFlavors) {
    SCOPED_TRACE(static_cast<int>(flavor));
    const auto run = testutil::run_guest(
        vkey_guest(os::pkeyperm::kNone, [](isa::Function&) {}),
        flavor_config(flavor));
    ASSERT_TRUE(run.outcome.completed);
    EXPECT_TRUE(run.faults.empty());
    EXPECT_EQ(run.exit_code, 0);
    ASSERT_EQ(run.reports.size(), 1u);
    EXPECT_EQ(run.reports[0], 0x77u);
  }
}

TEST(VpkeySyscalls, ClosedDomainStoreFaults) {
  // After vpkey_set(kNone) the store must raise an augmented pkey fault —
  // the virtual domain really is backed by a live physical key.
  for (const core::IsaFlavor flavor : kFlavors) {
    SCOPED_TRACE(static_cast<int>(flavor));
    const auto run = testutil::run_guest(
        vkey_guest(os::pkeyperm::kNone,
                   [](isa::Function& f) {
                     f.ld(t0, 0, sp);
                     f.li(t1, 0x88);
                     f.sd(t1, 0, t0);  // domain closed: faults
                   }),
        flavor_config(flavor));
    ASSERT_TRUE(run.outcome.completed);
    ASSERT_FALSE(run.faults.empty());
    EXPECT_EQ(run.faults[0].cause, core::TrapCause::kStorePageFault);
    EXPECT_TRUE(run.faults[0].pkey_fault);
    EXPECT_NE(run.exit_code, 0);
  }
}

TEST(VpkeySyscalls, BadArgumentsReturnEinval) {
  const auto run = testutil::run_guest(
      testutil::make_main_program([](isa::Program&, isa::Function& f) {
        // vpkey_set on a never-allocated vkey.
        f.li(a0, static_cast<i64>(mpk::kVkeyBase + 123));
        f.li(a1, 0);
        rt::syscall(f, os::sys::kVpkeySet);
        rt::syscall(f, os::sys::kReport);
        // vpkey_alloc with unknown flags.
        f.li(a0, 7);
        f.li(a1, 0);
        rt::syscall(f, os::sys::kVpkeyAlloc);
        rt::syscall(f, os::sys::kReport);
        f.li(a0, 0);
      }),
      sealpk_config());
  ASSERT_TRUE(run.outcome.completed);
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.reports.size(), 2u);
  EXPECT_EQ(run.reports[0], static_cast<u64>(os::err::kInval));
  EXPECT_EQ(run.reports[1], static_cast<u64>(os::err::kInval));
}

// ---------------------------------------------------------------------------
// The session-server workload and its driver.
// ---------------------------------------------------------------------------

TEST(SessionServer, SmallScaleMatchesGolden) {
  mpk::SessionConfig cfg;
  cfg.sessions = 64;
  cfg.ops = 128;
  const mpk::SessionResult r = mpk::run_session_server(cfg);
  EXPECT_TRUE(r.ok()) << mpk::session_record(cfg, r);
  EXPECT_EQ(r.live, 64u);
  EXPECT_EQ(r.checksum, r.expected);
  EXPECT_EQ(r.vstats.allocs, r.connects);
  EXPECT_EQ(r.vstats.frees, r.reconnects);
  EXPECT_EQ(r.connects, 64 + r.reconnects);
  EXPECT_EQ(r.reconnects + r.touches, cfg.ops);
}

// The vpkey syscalls are on the kernel's served list, so the static
// verifier admits the session server under the strict loader gate.
TEST(SessionServer, LoadsUnderTheEnforcingVerifier) {
  sim::MachineConfig config = sealpk_config();
  config.verify_policy = analysis::LoadVerifyPolicy::kEnforce;
  sim::Machine machine(config);
  const wl::SessionShape shape{.sessions = 64, .ops = 128};
  EXPECT_GE(machine.load(wl::build_session_prog(shape).link()), 0);
  EXPECT_EQ(machine.verify_report().count(analysis::Severity::kError), 0u);
}

TEST(SessionServer, RawAndVirtualizedChecksumsAgree) {
  // Virtualization transparency: the same churn schedule must produce the
  // same checksum on physical pkeys and on eager and lazy vkeys over
  // either flavour's physical keys (96 sessions overcommit MPK's 15).
  mpk::SessionConfig raw;
  raw.sessions = 96;
  raw.ops = 192;
  raw.raw = true;
  const mpk::SessionResult rr = mpk::run_session_server(raw);
  ASSERT_TRUE(rr.ok());
  for (const core::IsaFlavor flavor : kFlavors) {
    for (const bool lazy : {false, true}) {
      mpk::SessionConfig cfg = raw;
      cfg.raw = false;
      cfg.flavor = flavor;
      cfg.lazy_sync = lazy;
      const mpk::SessionResult r = mpk::run_session_server(cfg);
      ASSERT_TRUE(r.ok()) << mpk::session_record(cfg, r);
      EXPECT_EQ(r.checksum, rr.checksum) << mpk::session_mode(cfg);
    }
  }
}

TEST(SessionServer, SurvivesKeySpaceExhaustion) {
  // More live domains than the usable physical keys (1023 on SealPK, 15 on
  // MPK): the LRU layer must churn mappings (evictions > 0) while every
  // session keeps working.
  struct Case {
    core::IsaFlavor flavor;
    u64 sessions;
    u64 ops;
    u64 max_mapped;  // usable keys minus the park key
  };
  for (const Case& c : {Case{core::IsaFlavor::kSealPk, 1536, 1024, 1022},
                        Case{core::IsaFlavor::kIntelMpkCompat, 64, 128, 14}}) {
    mpk::SessionConfig cfg;
    cfg.flavor = c.flavor;
    cfg.sessions = c.sessions;
    cfg.ops = c.ops;
    const mpk::SessionResult r = mpk::run_session_server(cfg);
    ASSERT_TRUE(r.ok()) << mpk::session_record(cfg, r);
    EXPECT_EQ(r.live, c.sessions);
    EXPECT_LE(r.mapped, c.max_mapped);
    EXPECT_GT(r.vstats.evictions, 0u);
    EXPECT_GT(r.vstats.pte_rekeys, 0u);
  }
}

TEST(SessionServer, CanonicalRecordsAreDeterministic) {
  mpk::SessionConfig cfg;
  cfg.sessions = 64;
  cfg.ops = 128;
  const mpk::SessionResult a = mpk::run_session_server(cfg);
  const mpk::SessionResult b = mpk::run_session_server(cfg);
  EXPECT_EQ(mpk::session_record(cfg, a), mpk::session_record(cfg, b));
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
}

TEST(SessionServer, SweepIsThreadCountIndependent) {
  const std::vector<u64> scales = {48, 96};
  const auto parallel = mpk::run_churn_sweep(scales, wl::kWorkloadSeed, 4);
  const auto serial = mpk::run_churn_sweep(scales, wl::kWorkloadSeed, 1);
  EXPECT_EQ(mpk::sweep_records(parallel), mpk::sweep_records(serial));
  EXPECT_EQ(mpk::churn_json(parallel), mpk::churn_json(serial));
  // Each scale contributes eager + lazy + raw (both fit under the cap).
  EXPECT_EQ(parallel.size(), 6u);
}

// ---------------------------------------------------------------------------
// Snapshots: the v2 VKEY section round-trips bit-identically mid-run.
// ---------------------------------------------------------------------------

TEST(VkeySnapshot, MidRunRoundTripIsBitIdenticalAndResumes) {
  const wl::SessionShape shape{.sessions = 256, .ops = 512};
  for (const core::IsaFlavor flavor : kFlavors) {
    SCOPED_TRACE(static_cast<int>(flavor));
    sim::Machine machine(flavor_config(flavor));
    const int pid = machine.load(wl::build_session_prog(shape).link());
    ASSERT_GE(pid, 0);
    machine.run(30'000);  // mid-run: live vkey table with mapped entries
    ASSERT_FALSE(machine.kernel().all_exited());
    ASSERT_NE(machine.kernel().process(pid).vkeys, nullptr);

    const std::vector<u8> a = snapshot::save(machine);
    const snapshot::Info info = snapshot::info(a);
    EXPECT_EQ(info.version, snapshot::kFormatVersion);
    bool saw_vkey = false;
    for (const auto& s : info.sections) saw_vkey |= s.name == "VKEY";
    EXPECT_TRUE(saw_vkey);

    sim::Machine restored(snapshot::config_from(a));
    EXPECT_EQ(restored.config().hart.flavor, flavor);
    snapshot::restore(restored, a);
    EXPECT_EQ(snapshot::save(restored), a);

    // Both halves finish with the golden checksum.
    ASSERT_TRUE(machine.run(400'000'000).completed);
    ASSERT_TRUE(restored.run(400'000'000).completed);
    EXPECT_EQ(machine.exit_code(pid), 0);
    EXPECT_EQ(restored.exit_code(pid), 0);
    const u64 golden = wl::golden_session_sum(shape);
    ASSERT_EQ(machine.kernel().reports().size(), 1u);
    EXPECT_EQ(machine.kernel().reports()[0], golden);
    EXPECT_EQ(restored.kernel().reports(), machine.kernel().reports());
  }
}

TEST(VkeySnapshot, PolicyKnobsTravelInTheConfigTail) {
  const wl::SessionShape shape{.sessions = 16, .ops = 16};
  sim::MachineConfig config = sealpk_config();
  config.kernel.vkey_mru_slots = 3;
  config.kernel.vkey_lazy_sync = true;
  sim::Machine machine(config);
  machine.load(wl::build_session_prog(shape).link());
  machine.run(20'000);
  const std::vector<u8> blob = snapshot::save(machine);
  const sim::MachineConfig out = snapshot::config_from(blob);
  EXPECT_EQ(out.kernel.vkey_mru_slots, 3u);
  EXPECT_TRUE(out.kernel.vkey_lazy_sync);
}

// ---------------------------------------------------------------------------
// Corruption: the injector's vkey fault kind, audit detection and repair.
// ---------------------------------------------------------------------------

TEST(VkeyFault, PlantedCorruptionIsDetectedRepairedAndTheGuestFinishes) {
  const wl::SessionShape shape{.sessions = 256, .ops = 512};
  sim::Machine machine(sealpk_config());
  const int pid = machine.load(wl::build_session_prog(shape).link());
  ASSERT_GE(pid, 0);
  machine.run(25'000);
  ASSERT_FALSE(machine.kernel().all_exited());
  mpk::VkeyTable* table = machine.kernel().process(pid).vkeys.get();
  ASSERT_NE(table, nullptr);

  // Plant: point one mapped vkey at the wrong physical key.
  u64 victim = 0;
  u32 good_phys = 0;
  for (const auto& [vkey, e] : table->entries()) {
    if (e.state == mpk::VkeyState::kMapped && !e.groups.empty()) {
      victim = vkey;
      good_phys = e.phys;
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  table->force_phys(victim, good_phys ^ 0x155);

  const auto report = machine.kernel().audit();
  EXPECT_GE(report.count(os::AuditCheck::kVkeyCoherence), 1u);
  machine.kernel().audit_and_recover();
  EXPECT_TRUE(machine.kernel().audit().clean());
  EXPECT_GE(machine.kernel().stats().vkey_repairs, 1u);
  EXPECT_EQ(table->find(victim)->phys, good_phys);  // PTEs are ground truth

  ASSERT_TRUE(machine.run(400'000'000).completed);
  EXPECT_EQ(machine.exit_code(pid), 0);
  ASSERT_EQ(machine.kernel().reports().size(), 1u);
  EXPECT_EQ(machine.kernel().reports()[0], wl::golden_session_sum(shape));
}

TEST(VkeyFault, InjectedCorruptionIsResolvedByTheAuditCadence) {
  const wl::SessionShape shape{.sessions = 96, .ops = 256};
  sim::MachineConfig config = sealpk_config();
  config.fault_plan.enabled = true;
  config.fault_plan.seed = 11;
  config.fault_plan.rate = 2e-4;
  config.fault_plan.kinds = fault::kVkeyFaultKinds;
  config.audit_interval = 5'000;
  sim::Machine machine(config);
  const int pid = machine.load(wl::build_session_prog(shape).link());
  ASSERT_TRUE(machine.run(400'000'000).completed);
  fault::FaultInjector* injector = machine.injector();
  ASSERT_NE(injector, nullptr);
  EXPECT_GE(injector->total_injected(), 1u);
  EXPECT_EQ(injector->outstanding(), 0u);
  EXPECT_GE(machine.kernel().stats().vkey_repairs, 1u);
  // Repair restored exact table state, so the run still checks out.
  EXPECT_EQ(machine.exit_code(pid), 0);
  ASSERT_EQ(machine.kernel().reports().size(), 1u);
  EXPECT_EQ(machine.kernel().reports()[0], wl::golden_session_sum(shape));
}

TEST(SessionServer, TraceCapturesEvictionAndDrainEvents) {
  mpk::SessionConfig cfg;
  cfg.sessions = 1536;  // past the key budget so eviction actually runs
  cfg.ops = 1024;
  cfg.lazy_sync = true;
  cfg.trace = true;
  const mpk::SessionResult traced = mpk::run_session_server(cfg);
  ASSERT_TRUE(traced.ok()) << mpk::session_record(cfg, traced);
  u64 maps = 0, evicts = 0, syncs = 0;
  for (const obs::Event& e : traced.trace.events) {
    if (e.kind == obs::EventKind::kVkeyMap) ++maps;
    if (e.kind == obs::EventKind::kVkeyEvict) ++evicts;
    if (e.kind == obs::EventKind::kVkeySync) ++syncs;
  }
  EXPECT_GT(maps, 0u);
  EXPECT_GT(evicts, 0u);
  EXPECT_GT(syncs, 0u);

  // The span layer folds those events into evict/drain spans.
  const obs::SpanSet set = obs::build_spans(traced.trace);
  u64 evict_spans = 0, drain_spans = 0;
  for (const obs::Span& s : set.spans) {
    if (s.kind == obs::SpanKind::kVkeyEvict) ++evict_spans;
    if (s.kind == obs::SpanKind::kVkeyDrain) ++drain_spans;
  }
  EXPECT_EQ(evict_spans, evicts);
  EXPECT_GT(drain_spans, 0u);

  // Tracing never perturbs the run: the canonical record (which does not
  // include trace state) must be byte-identical with tracing off.
  mpk::SessionConfig off = cfg;
  off.trace = false;
  const mpk::SessionResult bare = mpk::run_session_server(off);
  EXPECT_EQ(mpk::session_record(off, bare), mpk::session_record(cfg, traced));
  EXPECT_TRUE(bare.trace.events.empty());
}

}  // namespace
}  // namespace sealpk
