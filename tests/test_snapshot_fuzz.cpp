// Seeded mutation fuzzing of snapshot restore (ROADMAP item 4).
//
// Contract: for any blob, snapshot::config_from + snapshot::restore either
// succeed or throw snapshot::SnapshotError. No other exception may escape,
// nothing may abort, and no single allocation may exceed kAllocCap. Each
// mutated blob is re-sealed, so the mutations reach the section decoders
// instead of stopping at the checksum. The starting points are a mid-run
// vault machine (checkpoints, vault state) and a mid-run vkey-churn machine
// (a live VKEY section). Mutations favour count fields: u64s in the
// non-memory sections whose value is small, which is what counts look like.
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

#include "common/rng.h"
#include "snapshot/snapshot.h"
#include "snapshot_test_util.h"

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

class Mutator {
 public:
  Mutator(const std::vector<u8>& blob, u64 seed) : blob_(blob), rng_(seed) {
    for (const testutil::SectionSpan& s : testutil::sections_of(blob)) {
      if (s.name == "MEM") continue;
      bodies_.push_back(s);
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
    snapshot::seal(out);
    return out;
  }

 private:
  // Any byte of the blob one time in five (header and memory included),
  // otherwise a byte of a non-memory section.
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
  std::vector<size_t> counts_;
};

// Runs one mutated blob through the restore path and classifies it.
void restore_one(const std::vector<u8>& blob, u64 index, Tally& tally) {
  g_armed = true;
  try {
    sim::Machine target(snapshot::config_from(blob));
    snapshot::restore(target, blob);
    g_armed = false;
    ++tally.restored;
  } catch (const snapshot::SnapshotError&) {
    g_armed = false;
    ++tally.typed_errors;
  } catch (const std::exception& e) {
    g_armed = false;
    ADD_FAILURE() << "mutation " << index
                  << " escaped restore as a non-snapshot error: " << e.what();
  }
  EXPECT_EQ(g_oversized.exchange(0), 0u)
      << "mutation " << index << " requested an allocation over "
      << kAllocCap << " bytes";
}

void fuzz(const std::vector<u8>& blob, u64 seed) {
  Mutator mutator(blob, seed);
  ASSERT_GT(mutator.count_candidates(), 0u);
  Tally tally;
  for (u64 i = 0; i < kMutationsPerSeed; ++i) {
    restore_one(mutator.next(), i, tally);
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

}  // namespace
}  // namespace sealpk
