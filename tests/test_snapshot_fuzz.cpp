// Seeded mutation fuzzing of snapshot restore (ROADMAP item 4) and of the
// SPKTRACE parser (ROADMAP item 7).
//
// Snapshot contract: for any blob, snapshot::config_from + snapshot::restore
// either succeed or throw snapshot::SnapshotError, and so does
// snapshot::diff against the unmutated blob. No other exception may escape,
// nothing may abort, and no single allocation may exceed kAllocCap. A blob
// that restores must also survive load-then-save as a fixed point: saving
// the restored machine, restoring that save into a fresh machine and saving
// again gives the same bytes. Each mutated blob is re-sealed, so the
// mutations reach the section decoders instead of stopping at the checksum.
// The starting points are a mid-run vault machine (checkpoints, vault
// state) and a mid-run vkey-churn machine (a live VKEY section). Mutations
// favour count fields: u64s in the non-memory sections whose value is
// small, which is what counts look like.
//
// Trace contract: obs::parse of any re-checksummed trace blob either
// succeeds or throws CheckError, under the same allocation cap.
//
// This binary replaces the global operator new/delete to enforce the cap, so
// it runs on its own rather than inside test_snapshot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "mpk/vkey_table.h"
#include "obs/recorder.h"
#include "passes/shadow_stack.h"
#include "snapshot/snapshot.h"
#include "snapshot_test_util.h"
#include "workloads/workload.h"

namespace {

// While armed, a single allocation above the cap is counted and refused
// with std::bad_alloc instead of being attempted.
constexpr size_t kAllocCap = size_t{64} << 20;
std::atomic<bool> g_armed{false};
std::atomic<size_t> g_oversized{0};

}  // namespace

// Replacing operator new/delete with malloc/free is what the standard
// allows; GCC's mismatch warning does not know these are the replacements.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t n) {
  if (n > kAllocCap && g_armed.load(std::memory_order_relaxed)) {
    g_oversized.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sealpk {
namespace {

constexpr u64 kMutationsPerSeed = 1'500;

struct Tally {
  u64 restored = 0;
  u64 typed_errors = 0;
};

// Both blob kinds share one envelope: a 28-byte header whose checksum of
// the payload sits at byte 20.
constexpr size_t kChecksumAt = 20;

void reseal_trace(std::vector<u8>& blob) {
  const size_t header = testutil::kSnapshotHeader;
  testutil::store_le64(blob, kChecksumAt,
                       checksum64(blob.data() + header, blob.size() - header));
}

// The snapshot's sections minus MEM, the regions a mutation aims at.
std::vector<testutil::SectionSpan> snapshot_bodies(
    const std::vector<u8>& blob) {
  std::vector<testutil::SectionSpan> bodies;
  for (const testutil::SectionSpan& s : testutil::sections_of(blob)) {
    if (s.name != "MEM") bodies.push_back(s);
  }
  return bodies;
}

class Mutator {
 public:
  using Seal = void (*)(std::vector<u8>&);

  Mutator(const std::vector<u8>& blob, u64 seed,
          std::vector<testutil::SectionSpan> bodies, Seal seal)
      : blob_(blob), rng_(seed), bodies_(std::move(bodies)), seal_(seal) {
    for (const testutil::SectionSpan& s : bodies_) {
      for (size_t at = s.body; at + 8 <= s.body + s.len; ++at) {
        const u64 v = testutil::load_le64(blob, at);
        if (v >= 1 && v <= 4096) counts_.push_back(at);
      }
    }
  }

  size_t count_candidates() const { return counts_.size(); }

  std::vector<u8> next() {
    std::vector<u8> out = blob_;
    for (u64 k = rng_.range(1, 3); k > 0; --k) mutate(out);
    seal_(out);
    return out;
  }

 private:
  // Any byte of the blob one time in five (header and memory included),
  // otherwise a byte of one of the aimed-at regions.
  size_t offset(size_t width) {
    if (rng_.below(5) == 0 || bodies_.empty()) {
      return rng_.below(blob_.size() - width + 1);
    }
    const testutil::SectionSpan& s = bodies_[rng_.below(bodies_.size())];
    if (s.len < width) return s.body;
    return s.body + rng_.below(s.len - width + 1);
  }

  void mutate(std::vector<u8>& out) {
    const u64 roll = rng_.below(100);
    if (roll < 40 && !counts_.empty()) {
      const size_t at = counts_[rng_.below(counts_.size())];
      const u64 was = testutil::load_le64(out, at);
      const u64 values[] = {u64{1} << rng_.range(16, 63), rng_.next(),
                            was + 1, was - 1, 0, ~u64{0}};
      testutil::store_le64(out, at, values[rng_.below(6)]);
    } else if (roll < 60) {
      out[offset(1)] ^= static_cast<u8>(1u << rng_.below(8));
    } else if (roll < 75) {
      out[offset(1)] = 0xFF;
    } else {
      testutil::store_le64(out, offset(8), rng_.next());
    }
  }

  const std::vector<u8>& blob_;
  Rng rng_;
  std::vector<testutil::SectionSpan> bodies_;
  Seal seal_;
  std::vector<size_t> counts_;
};

// Saves the restored machine, restores that save into a fresh machine and
// saves again: the two saves must be byte-identical.
void expect_fixed_point(sim::Machine& restored, const std::string& input) {
  try {
    const std::vector<u8> once = snapshot::save(restored);
    sim::Machine again(snapshot::config_from(once));
    snapshot::restore(again, once);
    EXPECT_EQ(snapshot::save(again), once)
        << input << ": load then save is not a fixed point";
  } catch (const std::exception& e) {
    ADD_FAILURE() << input << ": restoring its own save failed: " << e.what();
  }
}

// Runs one mutated blob through the restore path and classifies it, then
// diffs it against the blob it was mutated from.
void restore_one(const std::vector<u8>& seed_blob,
                 const std::vector<u8>& blob, const std::string& input,
                 Tally& tally) {
  std::unique_ptr<sim::Machine> target;
  g_armed = true;
  try {
    target = std::make_unique<sim::Machine>(snapshot::config_from(blob));
    snapshot::restore(*target, blob);
    g_armed = false;
    ++tally.restored;
  } catch (const snapshot::SnapshotError&) {
    g_armed = false;
    target.reset();
    ++tally.typed_errors;
  } catch (const std::exception& e) {
    g_armed = false;
    target.reset();
    ADD_FAILURE() << input << " escaped restore as a non-snapshot error: "
                  << e.what();
  }
  if (target != nullptr) expect_fixed_point(*target, input);
  g_armed = true;
  try {
    snapshot::diff(seed_blob, blob);
  } catch (const snapshot::SnapshotError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << input << " escaped diff as a non-snapshot error: "
                  << e.what();
  }
  g_armed = false;
  EXPECT_EQ(g_oversized.exchange(0), 0u)
      << input << " requested an allocation over " << kAllocCap << " bytes";
}

// `blob` with its MEM body cut to its first 4 bytes, re-sealed.
std::vector<u8> short_mem(const std::vector<u8>& blob) {
  const auto mem = testutil::section_named(blob, "MEM");
  SEALPK_CHECK(mem.has_value() && mem->len > 4);
  std::vector<u8> out(blob.begin(),
                      blob.begin() + static_cast<ptrdiff_t>(mem->body + 4));
  out.insert(out.end(),
             blob.begin() + static_cast<ptrdiff_t>(mem->body + mem->len),
             blob.end());
  testutil::store_le64(out, mem->body - 8, 4);
  testutil::store_le64(out, 12, out.size() - testutil::kSnapshotHeader);
  snapshot::seal(out);
  return out;
}

void fuzz(const std::vector<u8>& blob, u64 seed) {
  Mutator mutator(blob, seed, snapshot_bodies(blob), snapshot::seal);
  ASSERT_GT(mutator.count_candidates(), 0u);
  // Fixed inputs first, on their own tally.
  Tally fixed;
  restore_one(blob, short_mem(blob), "the short-MEM input", fixed);
  EXPECT_EQ(fixed.typed_errors, 1u);
  Tally tally;
  for (u64 i = 0; i < kMutationsPerSeed; ++i) {
    restore_one(blob, mutator.next(), "mutation " + std::to_string(i), tally);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(tally.restored + tally.typed_errors, kMutationsPerSeed);
  // Both outcomes occur: the mutations get past the checksum and some of
  // them reach a decoder that refuses them.
  EXPECT_GT(tally.restored, 0u);
  EXPECT_GT(tally.typed_errors, 0u);
  std::printf("seed 0x%llx: %llu restored, %llu typed errors\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(tally.restored),
              static_cast<unsigned long long>(tally.typed_errors));
}

TEST(SnapshotFuzz, MidRunVaultMachine) {
  const auto m = testutil::mid_run_vault_machine();
  ASSERT_NE(m, nullptr);
  fuzz(snapshot::save(*m), 0x5eed0001);
}

TEST(SnapshotFuzz, MidRunVkeyChurnMachine) {
  const auto m = testutil::mid_run_vkey_machine();
  ASSERT_NE(m, nullptr);
  ASSERT_NE(m->kernel().process(1).vkeys, nullptr);
  fuzz(snapshot::save(*m), 0x5eed0002);
}

// `sha` under the perm-sealed write-only shadow stack, 50,000 instructions
// in (`sealpk snapshot replay sha --at=50000 --ss=sealpk-wr --seal`).
std::vector<u8> sealed_sha_blob() {
  for (const wl::Workload& w : wl::all_workloads()) {
    if (std::string(w.name) != "sha") continue;
    isa::Program prog = w.build(w.test_scale);
    passes::apply_shadow_stack(
        prog, {.kind = passes::ShadowStackKind::kSealPkWr, .perm_seal = true});
    sim::Machine machine;
    if (machine.load(prog.link()) < 0) break;
    machine.run(50'000);
    return snapshot::save(machine);
  }
  ADD_FAILURE() << "sha did not load";
  return {};
}

// `blob` with the `width`-byte little-endian field that ends `back` bytes
// before the end of section `name` set to `value`, re-sealed.
std::vector<u8> with_field(std::vector<u8> blob, const std::string& name,
                           size_t back, size_t width, u64 value) {
  const auto sec = testutil::section_named(blob, name);
  SEALPK_CHECK(sec.has_value() && sec->len >= back);
  const size_t at = sec->body + sec->len - back;
  for (size_t i = 0; i < width; ++i) {
    blob[at + i] = static_cast<u8>(value >> (8 * i));
  }
  snapshot::seal(blob);
  return blob;
}

// A restored PK-CAM FIFO cursor or TLB victim cursor indexes its array on
// the next CAM refill or TLB eviction, so one out of range is refused. Each
// cursor sits just before its section's trailing stats: five u64s after
// the SEAL unit's u32 cursor, four after the DTLB's u64 cursor.
TEST(SnapshotFuzz, OutOfRangeCursorsAreRefused) {
  const std::vector<u8> blob = sealed_sha_blob();
  const auto dtlb = testutil::section_named(blob, "DTLB");
  ASSERT_TRUE(dtlb.has_value());
  const u64 slots = testutil::load_le64(blob, dtlb->body);
  Tally fixed;
  restore_one(blob, with_field(blob, "SEAL", 5 * 8 + 4, 4, 100'000),
              "SEAL cursor 100000", fixed);
  restore_one(blob, with_field(blob, "DTLB", 4 * 8 + 8, 8, slots),
              "DTLB cursor one past capacity", fixed);
  EXPECT_EQ(fixed.typed_errors, 2u);
}

// Offset of the only u64 in section `name` equal to `value`.
size_t unique_u64_at(const std::vector<u8>& blob, const std::string& name,
                     u64 value) {
  const auto sec = testutil::section_named(blob, name);
  SEALPK_CHECK(sec.has_value());
  std::vector<size_t> hits;
  for (size_t at = sec->body; at + 8 <= sec->body + sec->len; ++at) {
    if (testutil::load_le64(blob, at) == value) hits.push_back(at);
  }
  SEALPK_CHECK_MSG(hits.size() == 1, hits.size() << " u64s equal " << value
                                                 << " in " << name);
  return hits.front();
}

std::vector<u8> with_u64(std::vector<u8> blob, size_t at, u64 value) {
  testutil::store_le64(blob, at, value);
  snapshot::seal(blob);
  return blob;
}

// Nothing in a machine may be sized from its configured DRAM, which a blob
// carries unchecked beyond page alignment. A CFG claiming 2^46 B against a
// 256 MiB MEM section is refused; a machine really built with 2^46 B runs,
// saves and restores as a load-then-save fixed point. Neither asks for an
// allocation over the cap.
TEST(SnapshotFuzz, HugeDramIsNeverAllocated) {
  const std::vector<u8> blob = sealed_sha_blob();
  constexpr u64 kHuge = u64{1} << 46;
  // mem_bytes is followed by 90 bytes of CFG: the preemption quantum, the
  // fault plan (45), the audit and watchdog fields (40) and the vkey
  // config (5).
  const auto cfg = testutil::section_named(blob, "CFG");
  ASSERT_TRUE(cfg.has_value());
  const size_t mem_at = cfg->body + cfg->len - 90 - 8;
  ASSERT_EQ(testutil::load_le64(blob, mem_at), u64{256} << 20);
  Tally fixed;
  restore_one(blob, with_u64(blob, mem_at, kHuge),
              "CFG claiming 2^46 B of DRAM", fixed);
  EXPECT_EQ(fixed.typed_errors, 1u);

  sim::MachineConfig config;
  config.mem_bytes = kHuge;
  sim::Machine machine(config);
  for (const wl::Workload& w : wl::all_workloads()) {
    if (std::string(w.name) != "sha") continue;
    ASSERT_GE(machine.load(w.build(w.test_scale).link()), 0);
  }
  machine.run(50'000);
  ASSERT_EQ(machine.hart().instret(), 50'000u);
  const std::vector<u8> huge = snapshot::save(machine);
  restore_one(huge, huge, "a machine with 2^46 B of DRAM", fixed);
  EXPECT_EQ(fixed.restored, 1u);
}

// Vkey ids are unbounded, so nothing may be sized from one: a VKEY section
// naming id 2^40 (as an entry, or as the next id to hand out) restores or
// is refused without an allocation over the cap.
TEST(SnapshotFuzz, HugeVkeyIdIsNeverAllocated) {
  const auto m = testutil::mid_run_vkey_machine();
  ASSERT_NE(m, nullptr);
  const mpk::VkeyTable* table = m->kernel().process(1).vkeys.get();
  ASSERT_NE(table, nullptr);
  ASSERT_FALSE(table->entries().empty());
  const std::vector<u8> blob = snapshot::save(*m);
  constexpr u64 kHuge = u64{1} << 40;
  // The first entry's id follows next_vkey (u64), park (u32) and the entry
  // count (u64).
  const size_t next_at = unique_u64_at(
      blob, "VKEY", mpk::kVkeyBase + table->stats().allocs);
  const size_t first_at = next_at + 8 + 4 + 8;
  ASSERT_EQ(testutil::load_le64(blob, first_at),
            table->entries().begin()->first);
  Tally fixed;
  restore_one(blob, with_u64(blob, first_at, kHuge), "VKEY entry id 2^40",
              fixed);
  restore_one(blob, with_u64(blob, next_at, kHuge), "VKEY next id 2^40",
              fixed);
  std::vector<u8> both = with_u64(blob, next_at, kHuge + 1);
  restore_one(blob, with_u64(both, first_at, kHuge),
              "VKEY entry id 2^40 below next id 2^40 + 1", fixed);
  EXPECT_EQ(fixed.restored + fixed.typed_errors, 3u);
}

// A recorded trace of the qsort workload.
std::vector<u8> qsort_trace() {
  for (const wl::Workload& w : wl::all_workloads()) {
    if (std::string(w.name) != "qsort") continue;
    sim::MachineConfig config;
    config.trace.enabled = true;
    config.trace.sample_interval = 512;
    sim::Machine machine(config);
    if (machine.load(w.build(w.test_scale).link()) < 0) break;
    machine.run();
    return machine.recorder()->serialize_blob();
  }
  ADD_FAILURE() << "qsort did not load";
  return {};
}

// Parses one trace blob; false if anything but CheckError escaped or an
// allocation went over the cap.
bool parse_one(const std::vector<u8>& blob, const std::string& input,
               Tally& tally) {
  g_armed = true;
  try {
    obs::parse(blob);
    ++tally.restored;
  } catch (const CheckError&) {
    ++tally.typed_errors;
  } catch (const std::exception& e) {
    ADD_FAILURE() << input << " escaped parse as a non-check error: "
                  << e.what();
  }
  g_armed = false;
  EXPECT_EQ(g_oversized.exchange(0), 0u)
      << input << " requested an allocation over " << kAllocCap << " bytes";
  return !::testing::Test::HasFailure();
}

TEST(TraceFuzz, RecordedQsortTrace) {
  const std::vector<u8> blob = qsort_trace();
  ASSERT_GT(blob.size(), testutil::kSnapshotHeader);
  const obs::Trace trace = obs::parse(blob);
  ASSERT_FALSE(trace.events.empty());

  // Fixed inputs: event counts far past the payload, which must be refused
  // before anything is sized by them.
  const size_t nevents_at =
      blob.size() - trace.events.size() * obs::Event::kWireBytes - 8;
  ASSERT_EQ(testutil::load_le64(blob, nevents_at), trace.events.size());
  Tally fixed;
  for (const unsigned shift : {26u, 60u}) {
    std::vector<u8> bad = blob;
    testutil::store_le64(bad, nevents_at, u64{1} << shift);
    reseal_trace(bad);
    ASSERT_TRUE(
        parse_one(bad, "nevents 2^" + std::to_string(shift), fixed));
  }
  EXPECT_EQ(fixed.typed_errors, 2u);

  const testutil::SectionSpan payload{
      "payload", testutil::kSnapshotHeader,
      blob.size() - testutil::kSnapshotHeader};
  Mutator mutator(blob, 0x5eed0003, {payload}, reseal_trace);
  ASSERT_GT(mutator.count_candidates(), 0u);
  Tally tally;
  for (u64 i = 0; i < kMutationsPerSeed; ++i) {
    if (!parse_one(mutator.next(), "trace mutation " + std::to_string(i),
                   tally)) {
      break;
    }
  }
  EXPECT_EQ(tally.restored + tally.typed_errors, kMutationsPerSeed);
  EXPECT_GT(tally.restored, 0u);
  EXPECT_GT(tally.typed_errors, 0u);
  std::printf("trace seed 0x5eed0003: %llu parsed, %llu check errors\n",
              static_cast<unsigned long long>(tally.restored),
              static_cast<unsigned long long>(tally.typed_errors));
}

}  // namespace
}  // namespace sealpk
