// Host-level unit tests for the address-space / page-table layer: VMA
// bookkeeping, splitting, PTE contents, and the pkey page-counter deltas.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "os/addr_space.h"
#include "os/key_manager.h"
#include "os/pkey_ops.h"
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


// Reference model: pkey_mprotect as written before the single-search walk
// (a find_vma per step of the range check and the veto pre-flight, split_at
// for both edges, then lower_bound for the rewrite). It keeps its own VMA
// map and rewrites the page tables of a twin address space built by the
// same calls, through leaf_pte_addr.
class ReferenceProtect {
 public:
  ReferenceProtect(const AddressSpace& twin, mem::PhysMem& mem)
      : vmas_(twin.vmas()), twin_(twin), mem_(mem) {}

  const std::map<u64, Vma>& vmas() const { return vmas_; }

  i64 protect_pkey(u64 addr, u64 len, u64 prot, std::optional<u32> pkey,
                   const KeyManager* keys, const PkeyPageDelta& delta) {
    const unsigned bits = twin_.pkey_bits();
    if (len == 0 || (addr & (mem::kPageSize - 1)) != 0) return err::kInval;
    if (pkey && *pkey >= (u32{1} << bits)) return err::kInval;
    len = align_up(len, mem::kPageSize);
    for (u64 cursor = addr; cursor < addr + len;) {
      const Vma* vma = find_vma(cursor);
      if (vma == nullptr) return err::kNoMem;
      cursor = vma->end;
    }
    for (u64 cursor = addr; keys != nullptr && cursor < addr + len;) {
      const Vma* vma = find_vma(cursor);
      const i64 rc = retag_veto(*keys, vma->pkey, pkey.value_or(vma->pkey));
      if (rc != 0) return rc;
      cursor = vma->end;
    }
    split_at(addr);
    split_at(addr + len);
    i64 pages = 0;
    u64 flags = mem::pte::kV | mem::pte::kU;
    if (prot & prot::kRead) flags |= mem::pte::kR;
    if (prot & prot::kExec) flags |= mem::pte::kX;
    if (prot & prot::kWrite) flags |= mem::pte::kW | mem::pte::kR;
    for (auto it = vmas_.lower_bound(addr);
         it != vmas_.end() && it->second.start < addr + len; ++it) {
      Vma& vma = it->second;
      const u32 to = pkey.value_or(vma.pkey);
      for (u64 page = vma.start; page < vma.end; page += mem::kPageSize) {
        const u64 slot = twin_.leaf_pte_addr(page);
        u64 entry =
            mem::pte::with_flags(mem_.read_u64(slot) & ~u64{0xFF}, flags);
        if (pkey) entry = mem::pte::with_pkey(entry, to, bits);
        mem_.write_u64(slot, entry);
        ++pages;
      }
      if (delta && vma.pkey != to) {
        delta(vma.pkey, -static_cast<i64>(vma.pages()));
        delta(to, static_cast<i64>(vma.pages()));
      }
      vma.prot = prot;
      vma.pkey = to;
    }
    return pages;
  }

 private:
  const Vma* find_vma(u64 addr) const {
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin()) return nullptr;
    --it;
    return addr < it->second.end ? &it->second : nullptr;
  }
  void split_at(u64 addr) {
    auto it = vmas_.upper_bound(addr);
    if (it == vmas_.begin()) return;
    --it;
    Vma& vma = it->second;
    if (addr <= vma.start || addr >= vma.end) return;
    Vma tail = vma;
    tail.start = addr;
    vma.end = addr;
    vmas_.emplace(tail.start, tail);
  }

  std::map<u64, Vma> vmas_;
  const AddressSpace& twin_;
  mem::PhysMem& mem_;
};

// One address space with its own memory and frames.
struct Twin {
  Twin()
      : mem(64 << 20),
        frames(1 << 20, (64 << 20) - (1 << 20)),
        aspace(mem, frames, mem::pte::kSealPkPkeyBits) {}
  mem::PhysMem mem;
  FrameAllocator frames;
  AddressSpace aspace;
};

std::string describe(const std::map<u64, Vma>& vmas) {
  std::ostringstream os;
  for (const auto& [key, v] : vmas) {
    os << std::hex << key << ":[" << v.start << "," << v.end << ") prot "
       << v.prot << " pkey " << std::dec << v.pkey << "\n";
  }
  return os.str();
}

// Seeded VMA maps (runs of adjacent regions, gaps, holes punched by unmap,
// mixed pkeys and prot) and seeded calls, including misaligned, empty,
// wrapping and hole-spanning ranges, oversized keys and sealed domains:
// return codes, VMA maps, leaf PTEs and the delta calls match the
// reference after every call.
TEST(AddrSpaceProtect, MatchesFormerSplitAtCode) {
  constexpr u64 kBase = 0x4000'0000;
  for (u64 seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Twin real, twin;
    const u64 regions = seed % 4 == 0 ? 600 : 64;
    u64 cursor = kBase;
    for (u64 i = 0; i < regions; ++i) {
      const u64 len = (1 + rng.below(4)) * mem::kPageSize;
      const u64 prot = 1 + rng.below(7);
      const u32 pkey = static_cast<u32>(rng.below(16));
      ASSERT_EQ(real.aspace.map(cursor, len, prot, pkey),
                twin.aspace.map(cursor, len, prot, pkey));
      cursor += len + (rng.chance(0.3) ? rng.below(3) * mem::kPageSize : 0);
    }
    const u64 top = cursor;
    for (int i = 0; i < 8; ++i) {
      const u64 page = kBase + rng.below((top - kBase) / mem::kPageSize) *
                                   mem::kPageSize;
      ASSERT_EQ(real.aspace.unmap(page, mem::kPageSize),
                twin.aspace.unmap(page, mem::kPageSize));
    }
    ReferenceProtect ref(twin.aspace, twin.mem);
    SealPkKeyManager keys;
    for (u32 k = 1; k <= 15; ++k) ASSERT_EQ(keys.alloc(), k);
    ASSERT_EQ(keys.seal(3, /*domain=*/true, /*page=*/false), 0);
    ASSERT_EQ(keys.seal(4, /*domain=*/false, /*page=*/true), 0);

    for (int step = 0; step < 300; ++step) {
      u64 addr = kBase - 2 * mem::kPageSize +
                 rng.below((top - kBase) / mem::kPageSize + 4) *
                     mem::kPageSize;
      u64 len = rng.below(12 * mem::kPageSize);
      const u64 kind = rng.below(40);
      if (kind == 0) addr += 1 + rng.below(mem::kPageSize - 1);
      if (kind == 1) len = ~u64{0} - rng.below(2 * mem::kPageSize);
      if (kind == 2) addr = ~u64{0} & ~(mem::kPageSize - 1);
      if (kind == 3) len = top - addr;
      const u64 prot = rng.below(8);
      std::optional<u32> pkey;
      if (rng.chance(0.8)) pkey = static_cast<u32>(rng.below(kind == 4 ? 2048 : 16));
      const KeyManager* sealed = rng.chance(0.5) ? &keys : nullptr;
      std::vector<std::pair<u32, i64>> got_delta, want_delta;
      const i64 got = real.aspace.protect_pkey(
          addr, len, prot, pkey, sealed,
          [&](u32 k, i64 n) { got_delta.emplace_back(k, n); });
      const i64 want = ref.protect_pkey(
          addr, len, prot, pkey, sealed,
          [&](u32 k, i64 n) { want_delta.emplace_back(k, n); });
      ASSERT_EQ(got, want) << "step " << step;
      ASSERT_EQ(got_delta, want_delta) << "step " << step;
      ASSERT_EQ(describe(real.aspace.vmas()), describe(ref.vmas()))
          << "step " << step;
      for (u64 page = kBase; page < top; page += mem::kPageSize) {
        ASSERT_EQ(real.aspace.leaf_pte(page), twin.aspace.leaf_pte(page))
            << "step " << step << " page " << std::hex << page;
      }
    }
  }
}

}  // namespace
}  // namespace sealpk::os
