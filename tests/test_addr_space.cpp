// Host-level unit tests for the address-space / page-table layer: VMA
// bookkeeping, splitting, PTE contents, and the pkey page-counter deltas.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "os/addr_space.h"
#include "os/key_manager.h"
#include "os/syscall_abi.h"

namespace sealpk::os {
namespace {

class AddrSpaceTest : public ::testing::Test {
 protected:
  AddrSpaceTest()
      : mem_(64 << 20),
        frames_(1 << 20, (64 << 20) - (1 << 20)),
        aspace_(mem_, frames_, mem::pte::kSealPkPkeyBits) {}

  mem::PhysMem mem_;
  FrameAllocator frames_;
  AddressSpace aspace_;
};

TEST_F(AddrSpaceTest, MapPicksAddressesAndBuildsPtes) {
  const i64 addr = aspace_.map(0, 8192, prot::kRead | prot::kWrite, 7);
  ASSERT_GT(addr, 0);
  const auto pte = aspace_.leaf_pte(static_cast<u64>(addr));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE((*pte & mem::pte::kR) != 0);
  EXPECT_TRUE((*pte & mem::pte::kW) != 0);
  EXPECT_TRUE((*pte & mem::pte::kU) != 0);
  EXPECT_EQ(mem::pte::pkey_of(*pte), 7u);
  EXPECT_EQ(aspace_.pages_mapped(), 2u);
}

TEST_F(AddrSpaceTest, MapFixedRejectsOverlap) {
  ASSERT_GT(aspace_.map(0x10000, 4096, prot::kRead), 0);
  EXPECT_EQ(aspace_.map(0x10000, 4096, prot::kRead), err::kInval);
  EXPECT_EQ(aspace_.map(0x0F000, 8192, prot::kRead), err::kInval);
}

TEST_F(AddrSpaceTest, MapRejectsMisalignedAndEmpty) {
  EXPECT_EQ(aspace_.map(0x10001, 4096, prot::kRead), err::kInval);
  EXPECT_EQ(aspace_.map(0x10000, 0, prot::kRead), err::kInval);
}

TEST_F(AddrSpaceTest, WriteImpliesReadInPte) {
  // W-without-R is reserved in RISC-V: PROT_WRITE must yield an R+W PTE.
  const i64 addr = aspace_.map(0, 4096, prot::kWrite);
  const auto pte = aspace_.leaf_pte(static_cast<u64>(addr));
  ASSERT_TRUE(pte.has_value());
  EXPECT_TRUE((*pte & mem::pte::kR) != 0);
  EXPECT_FALSE(mem::pte::reserved_perm_combo(*pte));
}

TEST_F(AddrSpaceTest, UnmapFreesFramesAndClearsPtes) {
  const u64 before = frames_.allocated_frames();
  const i64 addr = aspace_.map(0, 4 * 4096, prot::kRead);
  EXPECT_GT(frames_.allocated_frames(), before);
  ASSERT_EQ(aspace_.unmap(static_cast<u64>(addr), 4 * 4096), 0);
  EXPECT_FALSE(aspace_.leaf_pte(static_cast<u64>(addr)).has_value());
  EXPECT_EQ(aspace_.pages_mapped(), 0u);
  // Intermediate tables remain allocated; leaf frames were recycled.
  EXPECT_LE(frames_.allocated_frames(), before + 3);
}

TEST_F(AddrSpaceTest, PartialUnmapSplitsVma) {
  const i64 addr = aspace_.map(0, 3 * 4096, prot::kRead);
  const u64 base = static_cast<u64>(addr);
  ASSERT_EQ(aspace_.unmap(base + 4096, 4096), 0);  // punch out the middle
  EXPECT_TRUE(aspace_.leaf_pte(base).has_value());
  EXPECT_FALSE(aspace_.leaf_pte(base + 4096).has_value());
  EXPECT_TRUE(aspace_.leaf_pte(base + 2 * 4096).has_value());
  EXPECT_EQ(aspace_.vmas().size(), 2u);
  EXPECT_EQ(aspace_.pages_mapped(), 2u);
}

TEST_F(AddrSpaceTest, ProtectSubRangeSplitsAndUpdates) {
  const i64 addr = aspace_.map(0, 4 * 4096, prot::kRead | prot::kWrite);
  const u64 base = static_cast<u64>(addr);
  ASSERT_EQ(aspace_.protect(base + 4096, 2 * 4096, prot::kRead), 2);
  // The middle pages lost W; the edges kept it.
  EXPECT_TRUE((*aspace_.leaf_pte(base) & mem::pte::kW) != 0);
  EXPECT_FALSE((*aspace_.leaf_pte(base + 4096) & mem::pte::kW) != 0);
  EXPECT_FALSE((*aspace_.leaf_pte(base + 2 * 4096) & mem::pte::kW) != 0);
  EXPECT_TRUE((*aspace_.leaf_pte(base + 3 * 4096) & mem::pte::kW) != 0);
  EXPECT_EQ(aspace_.vmas().size(), 3u);
}

TEST_F(AddrSpaceTest, ProtectOnHoleReturnsEnomem) {
  const i64 addr = aspace_.map(0, 4096, prot::kRead);
  EXPECT_EQ(aspace_.protect(static_cast<u64>(addr), 2 * 4096, prot::kRead),
            err::kNoMem);
  EXPECT_EQ(aspace_.protect(0x7000'0000, 4096, prot::kRead), err::kNoMem);
}

TEST_F(AddrSpaceTest, ProtectPreservesPkey) {
  const i64 addr = aspace_.map(0, 4096, prot::kRead | prot::kWrite, 42);
  ASSERT_EQ(aspace_.protect(static_cast<u64>(addr), 4096, prot::kRead), 1);
  EXPECT_EQ(aspace_.page_pkey(static_cast<u64>(addr)), 42u);
}

TEST_F(AddrSpaceTest, ProtectPkeyMaintainsCounters) {
  std::map<u32, i64> counters;
  const auto delta = [&counters](u32 pkey, i64 pages) {
    counters[pkey] += pages;
  };
  const i64 addr = aspace_.map(0, 2 * 4096, prot::kRead, 0, delta);
  EXPECT_EQ(counters[0], 2);
  ASSERT_EQ(aspace_.protect_pkey(static_cast<u64>(addr), 2 * 4096,
                                 prot::kRead, 9, nullptr, delta),
            2);
  EXPECT_EQ(counters[0], 0);
  EXPECT_EQ(counters[9], 2);
  ASSERT_EQ(aspace_.unmap(static_cast<u64>(addr), 2 * 4096, delta), 0);
  EXPECT_EQ(counters[9], 0);
}

TEST_F(AddrSpaceTest, ProtectPkeySealVetoes) {
  SealPkKeyManager keys;
  for (u32 k = 1; k <= 7; ++k) ASSERT_EQ(keys.alloc(), k);
  ASSERT_EQ(keys.seal(5, /*domain=*/true, /*page=*/false), 0);
  ASSERT_EQ(keys.seal(6, /*domain=*/false, /*page=*/true), 0);
  const i64 addr = aspace_.map(0, 4096, prot::kRead, 5);
  // Re-keying pages of the sealed domain 5 fails...
  EXPECT_EQ(aspace_.protect_pkey(static_cast<u64>(addr), 4096, prot::kRead,
                                 7, &keys, nullptr),
            err::kPerm);
  const i64 other = aspace_.map(0, 4096, prot::kRead, 7);
  // ...adding pages to the page-sealed domain 6 fails...
  EXPECT_EQ(aspace_.protect_pkey(static_cast<u64>(other), 4096, prot::kRead,
                                 6, &keys, nullptr),
            err::kPerm);
  // ...and the PTEs are untouched by the failed calls.
  EXPECT_EQ(aspace_.page_pkey(static_cast<u64>(addr)), 5u);
  EXPECT_EQ(aspace_.page_pkey(static_cast<u64>(other)), 7u);
}

TEST_F(AddrSpaceTest, ProtectPkeyRejectsOversizedKey) {
  const i64 addr = aspace_.map(0, 4096, prot::kRead);
  EXPECT_EQ(aspace_.protect_pkey(static_cast<u64>(addr), 4096, prot::kRead,
                                 1024, nullptr, nullptr),
            err::kInval);
}

TEST_F(AddrSpaceTest, CopyInOutRoundTrip) {
  const i64 addr = aspace_.map(0, 2 * 4096, prot::kRead | prot::kWrite);
  std::vector<u8> out(5000);
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<u8>(i * 7);
  // Straddles the page boundary.
  ASSERT_TRUE(aspace_.copy_out(static_cast<u64>(addr) + 100, out.data(),
                               out.size()));
  std::vector<u8> in(out.size());
  ASSERT_TRUE(aspace_.copy_in(static_cast<u64>(addr) + 100, in.data(),
                              in.size()));
  EXPECT_EQ(in, out);
  EXPECT_FALSE(aspace_.copy_in(0x9000'0000, in.data(), 8));
}

TEST_F(AddrSpaceTest, FindVmaBoundaries) {
  const i64 addr = aspace_.map(0x40000, 2 * 4096, prot::kRead);
  const u64 base = static_cast<u64>(addr);
  EXPECT_EQ(aspace_.find_vma(base - 1), nullptr);
  ASSERT_NE(aspace_.find_vma(base), nullptr);
  ASSERT_NE(aspace_.find_vma(base + 2 * 4096 - 1), nullptr);
  EXPECT_EQ(aspace_.find_vma(base + 2 * 4096), nullptr);
}

TEST_F(AddrSpaceTest, PropertyRandomOpsKeepCountersConsistent) {
  Rng rng(77);
  std::map<u32, i64> counters;
  const auto delta = [&counters](u32 pkey, i64 pages) {
    counters[pkey] += pages;
    ASSERT_GE(counters[pkey], 0);
  };
  std::vector<std::pair<u64, u64>> regions;  // (addr, len)
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.below(3));
    if (op == 0) {  // map
      const u64 len = (1 + rng.below(4)) * 4096;
      const i64 addr = aspace_.map(0, len, prot::kRead | prot::kWrite,
                                   static_cast<u32>(rng.below(16)), delta);
      ASSERT_GT(addr, 0);
      regions.push_back({static_cast<u64>(addr), len});
    } else if (op == 1 && !regions.empty()) {  // re-key
      const auto [addr, len] = regions[rng.below(regions.size())];
      aspace_.protect_pkey(addr, len, prot::kRead,
                           static_cast<u32>(rng.below(16)), nullptr, delta);
    } else if (op == 2 && !regions.empty()) {  // unmap
      const size_t idx = rng.below(regions.size());
      const auto [addr, len] = regions[idx];
      ASSERT_EQ(aspace_.unmap(addr, len, delta), 0);
      regions.erase(regions.begin() + static_cast<long>(idx));
    }
    // Invariant: counter totals equal mapped pages.
    i64 total = 0;
    for (const auto& [k, v] : counters) total += v;
    ASSERT_EQ(static_cast<u64>(total), aspace_.pages_mapped());
  }
}

}  // namespace
}  // namespace sealpk::os
