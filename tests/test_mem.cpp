#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "mem/phys_mem.h"
#include "mem/pte.h"
#include "mem/tlb.h"
#include "mem/walker.h"

namespace sealpk::mem {
namespace {

// ---------------------------------------------------------------------------
// Physical memory.
// ---------------------------------------------------------------------------

TEST(PhysMem, FreshMemoryReadsZero) {
  PhysMem mem(1 << 20);
  EXPECT_EQ(mem.read_u64(0), 0u);
  EXPECT_EQ(mem.read_u8(0xFFFFF), 0u);
}

TEST(PhysMem, ReadWriteWidths) {
  PhysMem mem(1 << 20);
  mem.write_u8(0x100, 0xAB);
  mem.write_u16(0x102, 0xCDEF);
  mem.write_u32(0x104, 0x12345678);
  mem.write_u64(0x108, 0x1122334455667788ULL);
  EXPECT_EQ(mem.read_u8(0x100), 0xAB);
  EXPECT_EQ(mem.read_u16(0x102), 0xCDEF);
  EXPECT_EQ(mem.read_u32(0x104), 0x12345678u);
  EXPECT_EQ(mem.read_u64(0x108), 0x1122334455667788ULL);
}

TEST(PhysMem, LittleEndianLayout) {
  PhysMem mem(1 << 20);
  mem.write_u32(0x200, 0xAABBCCDD);
  EXPECT_EQ(mem.read_u8(0x200), 0xDD);
  EXPECT_EQ(mem.read_u8(0x203), 0xAA);
}

TEST(PhysMem, CrossPageAccess) {
  PhysMem mem(1 << 20);
  mem.write_u64(kPageSize - 4, 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u64(kPageSize - 4), 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u32(kPageSize), 0x01020304u);
}

TEST(PhysMem, OutOfRangeThrows) {
  PhysMem mem(1 << 20);
  EXPECT_THROW(mem.read_u8(1 << 20), CheckError);
  EXPECT_THROW(mem.write_u8(1 << 20, 0), CheckError);
  EXPECT_FALSE(mem.contains((1 << 20) - 1, 2));
  EXPECT_TRUE(mem.contains((1 << 20) - 1, 1));
}

TEST(PhysMem, BulkOps) {
  PhysMem mem(1 << 20);
  const std::vector<u8> data{1, 2, 3, 4, 5, 6, 7, 8, 9};
  mem.write_bytes(kPageSize - 4, data.data(), data.size());
  std::vector<u8> back(data.size());
  mem.read_bytes(kPageSize - 4, back.data(), back.size());
  EXPECT_EQ(back, data);
  mem.fill(0x100, 0xEE, 8);
  EXPECT_EQ(mem.read_u64(0x100), 0xEEEEEEEEEEEEEEEEULL);
}

// The page path must agree with a byte-at-a-time model of memory: every
// width at every offset in the last 8 bytes of a page, including accesses
// that straddle into the next page.
TEST(PhysMem, EveryWidthNearPageEndMatchesByteModel) {
  PhysMem mem(1 << 20);
  constexpr u64 kBase = 3 * kPageSize;  // window [kBase, kBase + 2 pages)
  std::vector<u8> model(2 * kPageSize, 0);
  Rng rng(7);
  auto read_model = [&](u64 addr, unsigned width) {
    u64 v = 0;
    for (unsigned i = 0; i < width; ++i)
      v |= u64{model[addr - kBase + i]} << (8 * i);
    return v;
  };
  auto read_mem = [&](u64 addr, unsigned width) -> u64 {
    switch (width) {
      case 1: return mem.read_u8(addr);
      case 2: return mem.read_u16(addr);
      case 4: return mem.read_u32(addr);
      default: return mem.read_u64(addr);
    }
  };
  for (int round = 0; round < 4; ++round) {
    for (unsigned width : {1u, 2u, 4u, 8u}) {
      for (u64 off = kPageSize - 8; off < kPageSize; ++off) {
        const u64 addr = kBase + off;
        const u64 v = rng.next();
        switch (width) {
          case 1: mem.write_u8(addr, static_cast<u8>(v)); break;
          case 2: mem.write_u16(addr, static_cast<u16>(v)); break;
          case 4: mem.write_u32(addr, static_cast<u32>(v)); break;
          default: mem.write_u64(addr, v); break;
        }
        for (unsigned i = 0; i < width; ++i)
          model[addr - kBase + i] = static_cast<u8>(v >> (8 * i));
        for (unsigned rw : {1u, 2u, 4u, 8u}) {
          for (u64 ro = kPageSize - 8; ro < kPageSize; ++ro) {
            ASSERT_EQ(read_mem(kBase + ro, rw), read_model(kBase + ro, rw))
                << "write w" << width << "@" << off << ", read w" << rw
                << "@" << ro;
          }
        }
      }
    }
  }
  std::vector<u8> back(model.size());
  mem.read_bytes(kBase, back.data(), back.size());
  EXPECT_EQ(back, model);
}

TEST(PhysMem, ReadingUnwrittenPagesMaterialisesNothing) {
  PhysMem mem(1 << 20);
  EXPECT_EQ(mem.read_u64(5 * kPageSize), 0u);
  EXPECT_EQ(mem.read_u32(6 * kPageSize - 2), 0u);  // straddles pages 5 and 6
  std::vector<u8> buf(3 * kPageSize, 0xFF);
  mem.read_bytes(4 * kPageSize + 1, buf.data(), buf.size());
  EXPECT_EQ(buf, std::vector<u8>(buf.size(), 0));
  EXPECT_EQ(mem.materialized_pages(), 0u);
  // A page first read as zero and then written materialises normally.
  mem.write_u16(5 * kPageSize + 10, 0xBEEF);
  EXPECT_EQ(mem.materialized_pages(), 1u);
  EXPECT_EQ(mem.read_u16(5 * kPageSize + 10), 0xBEEF);
}

TEST(PhysMem, BulkWritesMaterialiseLikeByteWrites) {
  PhysMem bulk(1 << 20), bytewise(1 << 20);
  const std::vector<u8> data(2 * kPageSize + 100, 0x5A);
  bulk.write_bytes(kPageSize - 50, data.data(), data.size());
  bulk.fill(10 * kPageSize + 7, 0, 3 * kPageSize);  // zero fill still counts
  bulk.fill(20 * kPageSize, 0xAB, 0);               // empty: nothing
  bulk.write_bytes(30 * kPageSize, data.data(), 0);
  for (u64 i = 0; i < data.size(); ++i)
    bytewise.write_u8(kPageSize - 50 + i, data[i]);
  for (u64 i = 0; i < 3 * kPageSize; ++i)
    bytewise.write_u8(10 * kPageSize + 7 + i, 0);
  EXPECT_EQ(bulk.materialized_pages(), bytewise.materialized_pages());
  EXPECT_EQ(bulk.materialized_pages(), 4u + 4u);
  ByteWriter a, b;
  bulk.save_state(a);
  bytewise.save_state(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(PhysMem, BulkWritePastTheEndStopsWhereByteWritesWould) {
  PhysMem mem(4 * kPageSize);
  const std::vector<u8> data(8, 0x77);
  EXPECT_THROW(mem.write_bytes(4 * kPageSize - 3, data.data(), data.size()),
               CheckError);
  EXPECT_EQ(mem.read_u8(4 * kPageSize - 3), 0x77);
  EXPECT_EQ(mem.read_u8(4 * kPageSize - 1), 0x77);
  EXPECT_THROW(mem.fill(4 * kPageSize, 1, 1), CheckError);
  EXPECT_EQ(mem.materialized_pages(), 1u);
}

TEST(PhysMem, LoadStateAfterCachedAccessReturnsRestoredBytes) {
  PhysMem mem(1 << 20);
  mem.write_u64(0x2000, 0x1111111111111111ULL);
  ByteWriter saved;
  mem.save_state(saved);
  // Warm the page cache with pages the snapshot does and does not hold.
  mem.write_u64(0x2000, 0x2222222222222222ULL);
  mem.write_u64(0x9000, 0x3333333333333333ULL);
  EXPECT_EQ(mem.read_u64(0x2000), 0x2222222222222222ULL);
  EXPECT_EQ(mem.read_u64(0x9000), 0x3333333333333333ULL);
  ByteReader r(saved.buffer());
  mem.load_state(r);
  EXPECT_EQ(mem.read_u64(0x2000), 0x1111111111111111ULL);
  EXPECT_EQ(mem.read_u64(0x9000), 0u);
  EXPECT_EQ(mem.materialized_pages(), 1u);
  mem.write_u32(0x9004, 5);  // the dropped page materialises afresh
  EXPECT_EQ(mem.read_u64(0x9000), u64{5} << 32);
  EXPECT_EQ(mem.materialized_pages(), 2u);
}

// Reference model: memory as an ordered map of materialised pages, each
// created zeroed by its first write, with the canonical snapshot encoding
// (ascending indices, all-zero pages left out).
class ReferencePhysMem {
 public:
  explicit ReferencePhysMem(u64 size) : size_(size) {}

  u8 read(u64 addr) const {
    const auto it = pages_.find(addr / kPageSize);
    return it == pages_.end() ? 0 : it->second[addr % kPageSize];
  }
  void write(u64 addr, u8 v) { pages_[addr / kPageSize][addr % kPageSize] = v; }
  bool materialized(u64 addr) const {
    return pages_.count(addr / kPageSize) != 0;
  }
  size_t materialized_pages() const { return pages_.size(); }

  std::vector<u8> save() const {
    static const std::array<u8, kPageSize> kZero{};
    ByteWriter w;
    w.put_u64(size_);
    u64 n = 0;
    for (const auto& [index, page] : pages_) n += page != kZero ? 1 : 0;
    w.put_u64(n);
    for (const auto& [index, page] : pages_) {
      if (page == kZero) continue;
      w.put_u64(index);
      w.put_bytes(page.data(), kPageSize);
    }
    return w.take();
  }
  void load(const std::vector<u8>& blob) {
    ByteReader r(blob);
    r.get_u64();
    pages_.clear();
    for (u64 n = r.get_u64(); n > 0; --n) {
      const u64 index = r.get_u64();
      r.get_bytes(pages_[index].data(), kPageSize);
    }
  }

 private:
  u64 size_;
  std::map<u64, std::array<u8, kPageSize>> pages_;
};

// Seeded reads, writes, fills and snapshot round trips on PhysMem and the
// map model, at sizes that give the directory one, two and four levels.
// After every step the two agree on contents, materialized_pages() and
// save_state bytes, and every host_page()/page_view() pointer taken since
// generation() last moved still names its page.
TEST(PhysMem, DirectoryMatchesMapModel) {
  for (const u64 size : {u64{1} << 20, u64{64} << 20, u64{1} << 46}) {
    SCOPED_TRACE(size);
    Rng rng(size + 7);
    PhysMem mem(size);
    ReferencePhysMem ref(size);
    // Pages cluster at the bottom, the middle and the top, with a stray
    // page anywhere now and then, so several directory nodes fill up.
    const u64 pages = size / kPageSize;
    const auto random_addr = [&](u64 span) {
      const u64 cluster = rng.below(4);
      u64 page = cluster == 0   ? rng.below(16)
                 : cluster == 1 ? pages / 2 - 8 + rng.below(16)
                 : cluster == 2 ? pages - 1 - rng.below(16)
                                : rng.below(pages);
      const u64 addr = page * kPageSize + rng.below(kPageSize);
      return std::min(addr, size - span);
    };
    struct Held {
      u64 addr;
      u8* host;
      const u8* view;
    };
    std::vector<Held> held;
    std::vector<u8> earlier;
    u64 generation = mem.generation();
    for (int step = 0; step < 3000; ++step) {
      const u64 op = rng.below(100);
      if (op < 25) {
        const unsigned width = 1u << rng.below(4);
        const u64 addr = random_addr(width);
        const u64 v = rng.next();
        switch (width) {
          case 1: mem.write_u8(addr, static_cast<u8>(v)); break;
          case 2: mem.write_u16(addr, static_cast<u16>(v)); break;
          case 4: mem.write_u32(addr, static_cast<u32>(v)); break;
          default: mem.write_u64(addr, v); break;
        }
        for (unsigned i = 0; i < width; ++i)
          ref.write(addr + i, static_cast<u8>(v >> (8 * i)));
      } else if (op < 35) {
        std::vector<u8> data(rng.below(2 * kPageSize + 64));
        for (u8& b : data) b = static_cast<u8>(rng.next());
        const u64 addr = random_addr(data.size());
        mem.write_bytes(addr, data.data(), data.size());
        for (u64 i = 0; i < data.size(); ++i) ref.write(addr + i, data[i]);
      } else if (op < 42) {
        const u64 len = rng.below(3 * kPageSize);
        const u8 v = rng.chance(0.5) ? 0 : static_cast<u8>(rng.next());
        const u64 addr = random_addr(len);
        mem.fill(addr, v, len);
        for (u64 i = 0; i < len; ++i) ref.write(addr + i, v);
      } else if (op < 62) {
        const unsigned width = 1u << rng.below(4);
        const u64 addr = random_addr(width);
        u64 want = 0;
        for (unsigned i = 0; i < width; ++i)
          want |= u64{ref.read(addr + i)} << (8 * i);
        const u64 got = width == 1   ? mem.read_u8(addr)
                        : width == 2 ? mem.read_u16(addr)
                        : width == 4 ? mem.read_u32(addr)
                                     : mem.read_u64(addr);
        ASSERT_EQ(got, want) << "step " << step;
      } else if (op < 70) {
        std::vector<u8> got(rng.below(2 * kPageSize + 64));
        const u64 addr = random_addr(got.size());
        mem.read_bytes(addr, got.data(), got.size());
        for (u64 i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i], ref.read(addr + i)) << "step " << step;
      } else if (op < 90) {
        const u64 addr = random_addr(1) & ~(kPageSize - 1);
        u8* host = mem.host_page(addr);
        const u8* view = mem.page_view(addr);
        ASSERT_EQ(host != nullptr, ref.materialized(addr)) << "step " << step;
        ASSERT_EQ(view, host);
        if (host != nullptr) held.push_back({addr, host, view});
        EXPECT_EQ(mem.host_page(size), nullptr);
        EXPECT_EQ(mem.host_page(size + (rng.next() >> 8)), nullptr);
      } else if (op < 96) {
        ByteWriter w;
        mem.save_state(w);
        ASSERT_EQ(w.buffer(), ref.save()) << "step " << step;
        earlier = w.take();
      } else {
        // Roll back to the last snapshot taken: pages first written since
        // then are dropped.
        const std::vector<u8> blob = earlier.empty() ? ref.save() : earlier;
        ByteReader r(blob);
        mem.load_state(r);
        ref.load(blob);
        ASSERT_NE(mem.generation(), generation);
        generation = mem.generation();
        held.clear();
      }
      ASSERT_EQ(mem.generation(), generation);
      ASSERT_EQ(mem.materialized_pages(), ref.materialized_pages())
          << "step " << step;
      for (const Held& h : held) {
        ASSERT_EQ(mem.host_page(h.addr), h.host) << "step " << step;
        ASSERT_EQ(mem.page_view(h.addr), h.view);
        const u64 at = rng.below(kPageSize);
        ASSERT_EQ(h.host[at], ref.read(h.addr + at)) << "step " << step;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PTE codec.
// ---------------------------------------------------------------------------

TEST(Pte, MakeAndExtract) {
  const u64 entry =
      pte::make(0x12345, pte::kV | pte::kR | pte::kW | pte::kU, 0x3C1);
  EXPECT_EQ(pte::ppn_of(entry), 0x12345u);
  EXPECT_EQ(pte::pkey_of(entry), 0x3C1u);
  EXPECT_TRUE(pte::valid(entry));
  EXPECT_TRUE(pte::is_leaf(entry));
}

TEST(Pte, PkeyOccupiesReservedBits) {
  // §III-A: the pkey lives in PTE bits [63:54] — the Sv39 reserved range.
  const u64 entry = pte::make(0, pte::kV, 0x3FF);
  EXPECT_EQ(bits(entry, 63, 54), 0x3FFu);
  EXPECT_EQ(bits(entry, 53, 0), pte::kV);
}

TEST(Pte, MpkFlavourUsesFourBits) {
  const u64 entry = pte::make(0, pte::kV, 0xF, pte::kMpkPkeyBits);
  EXPECT_EQ(pte::pkey_of(entry, pte::kMpkPkeyBits), 0xFu);
  EXPECT_EQ(bits(entry, 63, 58), 0u);  // upper reserved bits untouched
}

TEST(Pte, WithPkeyPreservesRest) {
  u64 entry = pte::make(0x777, pte::kV | pte::kR | pte::kD, 5);
  entry = pte::with_pkey(entry, 900);
  EXPECT_EQ(pte::pkey_of(entry), 900u);
  EXPECT_EQ(pte::ppn_of(entry), 0x777u);
  EXPECT_TRUE((entry & pte::kD) != 0);
}

TEST(Pte, ReservedComboDetected) {
  EXPECT_TRUE(pte::reserved_perm_combo(pte::kV | pte::kW));
  EXPECT_FALSE(pte::reserved_perm_combo(pte::kV | pte::kR | pte::kW));
}

TEST(Sv39, VpnSlices) {
  const u64 vaddr = (u64{0x1A} << 30) | (u64{0x2B} << 21) | (u64{0x3C} << 12) |
                    0x123;
  EXPECT_EQ(sv39::vpn_slice(vaddr, 2), 0x1Au);
  EXPECT_EQ(sv39::vpn_slice(vaddr, 1), 0x2Bu);
  EXPECT_EQ(sv39::vpn_slice(vaddr, 0), 0x3Cu);
  EXPECT_EQ(sv39::page_offset(vaddr), 0x123u);
}

TEST(Sv39, Canonical) {
  EXPECT_TRUE(sv39::canonical(0));
  EXPECT_TRUE(sv39::canonical((u64{1} << 38) - 1));
  EXPECT_FALSE(sv39::canonical(u64{1} << 38));  // bit 38 set, upper clear
  EXPECT_TRUE(sv39::canonical(~u64{0}));        // all-ones is canonical
}

// ---------------------------------------------------------------------------
// Page-table walker.
// ---------------------------------------------------------------------------

class WalkerTest : public ::testing::Test {
 protected:
  WalkerTest() : mem_(16 << 20) {}

  // Installs a 3-level mapping vaddr -> ppn with `flags`.
  void map(u64 vaddr, u64 ppn, u64 flags, u32 pkey = 0) {
    u64 table = root_;
    for (int level = 2; level >= 1; --level) {
      const u64 slot = (table << kPageShift) +
                       sv39::vpn_slice(vaddr, static_cast<unsigned>(level)) * 8;
      u64 entry = mem_.read_u64(slot);
      if (!pte::valid(entry)) {
        entry = pte::make(next_table_++, pte::kV);
        mem_.write_u64(slot, entry);
      }
      table = pte::ppn_of(entry);
    }
    const u64 slot =
        (table << kPageShift) + sv39::vpn_slice(vaddr, 0) * 8;
    mem_.write_u64(slot, pte::make(ppn, flags, pkey));
  }

  PhysMem mem_;
  u64 root_ = 1;
  u64 next_table_ = 2;
};

TEST_F(WalkerTest, TranslatesMappedPage) {
  map(0x4000'1000, 0x99, pte::kV | pte::kR | pte::kW | pte::kU, 77);
  const auto r = walk(mem_, root_, 0x4000'1234, Access::kLoad);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.ppn, 0x99u);
  EXPECT_EQ(pte::pkey_of(r.pte), 77u);
  EXPECT_EQ(r.level, 0u);
  EXPECT_EQ(r.accesses, 3u);
}

TEST_F(WalkerTest, FaultsOnUnmapped) {
  EXPECT_FALSE(walk(mem_, root_, 0x5000'0000, Access::kLoad).ok);
}

TEST_F(WalkerTest, FaultsOnNonCanonical) {
  EXPECT_FALSE(walk(mem_, root_, u64{1} << 38, Access::kLoad).ok);
}

TEST_F(WalkerTest, FaultsOnReservedCombo) {
  map(0x4000'2000, 0x9A, pte::kV | pte::kW | pte::kU);  // W without R
  EXPECT_FALSE(walk(mem_, root_, 0x4000'2000, Access::kLoad).ok);
}

TEST_F(WalkerTest, UpdatesAccessedAndDirtyBits) {
  map(0x4000'3000, 0x9B, pte::kV | pte::kR | pte::kW | pte::kU);
  auto r = walk(mem_, root_, 0x4000'3000, Access::kLoad, true);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE((r.pte & pte::kA) != 0);
  EXPECT_TRUE((r.pte & pte::kD) == 0);
  r = walk(mem_, root_, 0x4000'3000, Access::kStore, true);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE((r.pte & pte::kD) != 0);
  // The update is persistent in memory.
  EXPECT_TRUE((mem_.read_u64(r.pte_addr) & pte::kD) != 0);
}

TEST_F(WalkerTest, ConstWalkLeavesAdAlone) {
  map(0x4000'4000, 0x9C, pte::kV | pte::kR | pte::kU);
  const auto r =
      walk(static_cast<const PhysMem&>(mem_), root_, 0x4000'4000,
           Access::kLoad);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE((mem_.read_u64(r.pte_addr) & pte::kA) == 0);
}

TEST_F(WalkerTest, MegapageResolvesTo4kGranularity) {
  // Install a 2 MiB leaf at level 1 directly.
  const u64 vaddr = 0x6000'0000;
  u64 table = root_;
  const u64 slot2 =
      (table << kPageShift) + sv39::vpn_slice(vaddr, 2) * 8;
  mem_.write_u64(slot2, pte::make(next_table_, pte::kV));
  const u64 slot1 = (next_table_ << kPageShift) +
                    sv39::vpn_slice(vaddr, 1) * 8;
  // Aligned superpage PPN (low 9 bits zero).
  mem_.write_u64(slot1,
                 pte::make(0x200, pte::kV | pte::kR | pte::kU, 0));
  const auto r = walk(mem_, root_, vaddr + 5 * kPageSize + 0x10,
                      Access::kLoad);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.level, 1u);
  EXPECT_EQ(r.ppn, 0x205u);  // base + vpn[0] splice
  EXPECT_EQ(r.accesses, 2u);
}

TEST_F(WalkerTest, MisalignedSuperpageFaults) {
  const u64 vaddr = 0x7000'0000;
  const u64 slot2 =
      (root_ << kPageShift) + sv39::vpn_slice(vaddr, 2) * 8;
  mem_.write_u64(slot2, pte::make(next_table_, pte::kV));
  const u64 slot1 = (next_table_ << kPageShift) +
                    sv39::vpn_slice(vaddr, 1) * 8;
  mem_.write_u64(slot1, pte::make(0x201, pte::kV | pte::kR | pte::kU));
  EXPECT_FALSE(walk(mem_, root_, vaddr, Access::kLoad).ok);
}

TEST_F(WalkerTest, NonLeafWithAdBitsFaults) {
  const u64 vaddr = 0x8000'0000;
  const u64 slot2 =
      (root_ << kPageShift) + sv39::vpn_slice(vaddr, 2) * 8;
  mem_.write_u64(slot2, pte::make(next_table_, pte::kV | pte::kA));
  EXPECT_FALSE(walk(mem_, root_, vaddr, Access::kLoad).ok);
}

// ---------------------------------------------------------------------------
// TLB.
// ---------------------------------------------------------------------------

TlbEntry entry_for(u64 vpn, u16 pkey = 0) {
  TlbEntry e;
  e.vpn = vpn;
  e.ppn = vpn + 100;
  e.r = e.w = e.user = true;
  e.pkey = pkey;
  return e;
}

TEST(Tlb, MissThenHit) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.lookup(1).has_value());
  tlb.insert(entry_for(1, 42));
  const auto hit = tlb.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pkey, 42);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, InsertReplacesSameVpn) {
  Tlb tlb(4);
  tlb.insert(entry_for(7, 1));
  tlb.insert(entry_for(7, 2));
  EXPECT_EQ(tlb.valid_count(), 1u);
  EXPECT_EQ(tlb.peek(7)->pkey, 2);
}

TEST(Tlb, EvictsRoundRobinWhenFull) {
  Tlb tlb(2);
  tlb.insert(entry_for(1));
  tlb.insert(entry_for(2));
  tlb.insert(entry_for(3));  // evicts slot 0 (vpn 1)
  EXPECT_FALSE(tlb.peek(1).has_value());
  EXPECT_TRUE(tlb.peek(2).has_value());
  EXPECT_TRUE(tlb.peek(3).has_value());
  EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(Tlb, GlobalFlushInvalidatesEverything) {
  Tlb tlb(8);
  for (u64 v = 0; v < 8; ++v) tlb.insert(entry_for(v));
  tlb.flush();
  EXPECT_EQ(tlb.valid_count(), 0u);
  EXPECT_EQ(tlb.stats().flushes, 1u);
}

TEST(Tlb, SingleVpnFlush) {
  Tlb tlb(8);
  tlb.insert(entry_for(5));
  tlb.insert(entry_for(6));
  tlb.flush_vpn(5);
  EXPECT_FALSE(tlb.peek(5).has_value());
  EXPECT_TRUE(tlb.peek(6).has_value());
}

TEST(Tlb, PropertyNeverExceedsCapacityAndFindsRecent) {
  Rng rng(11);
  Tlb tlb(16);
  for (int i = 0; i < 5000; ++i) {
    const u64 vpn = rng.below(64);
    tlb.insert(entry_for(vpn));
    EXPECT_LE(tlb.valid_count(), 16u);
    EXPECT_TRUE(tlb.peek(vpn).has_value());  // just-inserted always present
    if (rng.chance(0.05)) tlb.flush();
  }
}

// Reference model: the TLB as a plain first-match linear scan, exactly as
// it behaved before the lookup hint. Same insert/flush/eviction policy and
// the same snapshot encoding, so whole states can be compared bytewise.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(size_t n) : slots_(n) {}

  std::optional<TlbEntry> lookup(u64 vpn) {
    for (const auto& s : slots_) {
      if (s.valid && s.entry.vpn == vpn) {
        ++stats_.hits;
        return s.entry;
      }
    }
    ++stats_.misses;
    return std::nullopt;
  }
  void insert(const TlbEntry& e) {
    for (auto& s : slots_) {
      if (s.valid && s.entry.vpn == e.vpn) {
        s.entry = e;
        return;
      }
    }
    for (auto& s : slots_) {
      if (!s.valid) {
        s = {e, true};
        return;
      }
    }
    ++stats_.evictions;
    slots_[victim_] = {e, true};
    victim_ = (victim_ + 1) % slots_.size();
  }
  void flush() {
    for (auto& s : slots_) s.valid = false;
    ++stats_.flushes;
  }
  void flush_vpn(u64 vpn) {
    for (auto& s : slots_)
      if (s.valid && s.entry.vpn == vpn) s.valid = false;
  }
  bool corrupt_slot(size_t i, u16 pkey_xor, u8 perm_xor, bool flip_dirty) {
    if (!slots_[i].valid) return false;
    TlbEntry& e = slots_[i].entry;
    e.pkey ^= pkey_xor;
    if (perm_xor & 1) e.r = !e.r;
    if (perm_xor & 2) e.w = !e.w;
    if (perm_xor & 4) e.x = !e.x;
    if (perm_xor & 8) e.user = !e.user;
    if (flip_dirty) e.dirty = !e.dirty;
    return true;
  }
  void load_state(ByteReader& r) {
    r.get_u64();
    for (auto& s : slots_) {
      s.entry.vpn = r.get_u64();
      s.entry.ppn = r.get_u64();
      s.entry.r = r.get_bool();
      s.entry.w = r.get_bool();
      s.entry.x = r.get_bool();
      s.entry.user = r.get_bool();
      s.entry.dirty = r.get_bool();
      s.entry.pkey = r.get_u16();
      s.valid = r.get_bool();
    }
    victim_ = static_cast<size_t>(r.get_u64());
    stats_.hits = r.get_u64();
    stats_.misses = r.get_u64();
    stats_.flushes = r.get_u64();
    stats_.evictions = r.get_u64();
  }
  void save_state(ByteWriter& w) const {
    w.put_u64(slots_.size());
    for (const auto& s : slots_) {
      w.put_u64(s.entry.vpn);
      w.put_u64(s.entry.ppn);
      for (bool b : {s.entry.r, s.entry.w, s.entry.x, s.entry.user,
                     s.entry.dirty}) {
        w.put_bool(b);
      }
      w.put_u16(s.entry.pkey);
      w.put_bool(s.valid);
    }
    for (u64 v : {u64{victim_}, stats_.hits, stats_.misses, stats_.flushes,
                  stats_.evictions}) {
      w.put_u64(v);
    }
  }
  size_t valid_count() const {
    size_t n = 0;
    for (const auto& s : slots_) n += s.valid ? 1 : 0;
    return n;
  }
  const TlbStats& stats() const { return stats_; }
  const TlbEntry* peek_slot(size_t i) const {
    return slots_[i].valid ? &slots_[i].entry : nullptr;
  }

 private:
  struct Slot {
    TlbEntry entry;
    bool valid = false;
  };
  std::vector<Slot> slots_;
  size_t victim_ = 0;
  TlbStats stats_;
};

std::optional<TlbEntry> as_optional(const TlbEntry* e) {
  return e != nullptr ? std::optional<TlbEntry>(*e) : std::nullopt;
}

std::string describe(const std::optional<TlbEntry>& e) {
  if (!e) return "miss";
  std::ostringstream os;
  os << "vpn=" << e->vpn << " ppn=" << e->ppn << " r=" << e->r
     << " w=" << e->w << " x=" << e->x << " u=" << e->user
     << " d=" << e->dirty << " pkey=" << e->pkey;
  return os.str();
}

// A snapshot blob of `n` slots drawn from a tiny VPN range, so duplicate
// valid VPNs (which only a hostile or corrupted blob can hold) are common.
std::vector<u8> random_tlb_blob(Rng& rng, size_t n) {
  ByteWriter w;
  w.put_u64(n);
  for (size_t i = 0; i < n; ++i) {
    w.put_u64(rng.below(6));           // vpn
    w.put_u64(rng.below(1 << 20));     // ppn
    for (int b = 0; b < 5; ++b) w.put_bool(rng.chance(0.5));
    w.put_u16(static_cast<u16>(rng.below(1024)));
    w.put_bool(rng.chance(0.7));       // valid
  }
  w.put_u64(rng.below(n));             // next victim
  for (int k = 0; k < 4; ++k) w.put_u64(rng.below(1000));
  return w.take();
}

// Cumulative percentages of one random step; the rest loads a random blob.
struct TlbOpMix {
  u64 lookup, insert, flush, flush_vpn, corrupt;
};

// Drives a Tlb and the reference through the same `steps` random
// operations on VPNs below `vpns`, comparing lookups, slots, stats,
// valid_count() and save_state bytes after every one.
void check_against_reference(u64 seed, size_t n, u64 vpns, TlbOpMix mix,
                             int steps) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << n
                                    << " slots");
  Rng rng(seed);
  Tlb tlb(n);
  ReferenceTlb ref(n);
  for (int step = 0; step < steps; ++step) {
    const u64 op = rng.below(100);
    const u64 vpn = rng.below(vpns);
    if (op < mix.lookup) {
      const auto got = tlb.lookup(vpn);
      const auto want = ref.lookup(vpn);
      ASSERT_EQ(describe(got), describe(want)) << "step " << step;
    } else if (op < mix.insert) {
      TlbEntry e = entry_for(vpn, static_cast<u16>(rng.below(1024)));
      e.ppn = rng.below(1 << 20);
      e.dirty = rng.chance(0.5);
      tlb.insert(e);
      ref.insert(e);
    } else if (op < mix.flush) {
      tlb.flush();
      ref.flush();
    } else if (op < mix.flush_vpn) {
      tlb.flush_vpn(vpn);
      ref.flush_vpn(vpn);
    } else if (op < mix.corrupt) {
      const size_t slot = rng.below(n);
      const u16 pkey_xor = static_cast<u16>(rng.below(1024));
      const u8 perm_xor = static_cast<u8>(rng.below(16));
      const bool dirty = rng.chance(0.5);
      ASSERT_EQ(tlb.corrupt_slot(slot, pkey_xor, perm_xor, dirty),
                ref.corrupt_slot(slot, pkey_xor, perm_xor, dirty));
    } else {
      const std::vector<u8> blob = random_tlb_blob(rng, n);
      ByteReader a(blob), b(blob);
      tlb.load_state(a);
      ref.load_state(b);
    }
    ASSERT_EQ(tlb.stats().hits, ref.stats().hits);
    ASSERT_EQ(tlb.stats().misses, ref.stats().misses);
    ASSERT_EQ(tlb.stats().flushes, ref.stats().flushes);
    ASSERT_EQ(tlb.stats().evictions, ref.stats().evictions);
    ASSERT_EQ(tlb.valid_count(), ref.valid_count()) << "step " << step;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(describe(as_optional(tlb.peek_slot(i))),
                describe(as_optional(ref.peek_slot(i))))
          << "slot " << i << " after step " << step;
    }
    ByteWriter got, want;
    tlb.save_state(got);
    ref.save_state(want);
    ASSERT_EQ(got.buffer(), want.buffer()) << "step " << step;
  }
}

TEST(Tlb, LookupHintMatchesReferenceScan) {
  for (u64 seed = 1; seed <= 20; ++seed) {
    const size_t n = 1 + Rng(seed * 977).below(8);
    check_against_reference(seed, n, 12, {50, 80, 84, 90, 96}, 4000);
  }
}

// The valid-prefix scans: flushes often enough that most inserts refill a
// partly empty TLB, with flush_vpn and blob loads (holes, duplicate VPNs)
// breaking the prefix in between, at every capacity the hart uses.
TEST(Tlb, ValidPrefixMatchesReferenceScan) {
  u64 seed = 100;
  for (const size_t n : {1, 2, 3, 8, 32}) {
    for (int rep = 0; rep < 4; ++rep) {
      check_against_reference(++seed, n, 2 * n + 4, {45, 85, 93, 96, 98},
                              3000);
    }
  }
}

TEST(Tlb, DuplicateVpnsFromBlobResolveToFirstSlot) {
  // Slots: 0 = vpn 5, 1 = vpn 7 (pkey 1), 2 = invalid, 3 = vpn 7 (pkey 2).
  ByteWriter w;
  w.put_u64(4);
  const u64 vpns[4] = {5, 7, 7, 7};
  const u16 pkeys[4] = {0, 1, 3, 2};
  const bool valid[4] = {true, true, false, true};
  for (int i = 0; i < 4; ++i) {
    w.put_u64(vpns[i]);
    w.put_u64(100 + i);
    for (int b = 0; b < 5; ++b) w.put_bool(true);
    w.put_u16(pkeys[i]);
    w.put_bool(valid[i]);
  }
  for (int k = 0; k < 5; ++k) w.put_u64(0);
  const std::vector<u8> blob = w.take();

  Tlb tlb(4);
  for (u64 vpn : {1, 2, 3, 7}) tlb.insert(entry_for(vpn));
  ASSERT_TRUE(tlb.lookup(7).has_value());  // the hint now names slot 3
  ByteReader r(blob);
  tlb.load_state(r);
  EXPECT_EQ(tlb.lookup(7)->pkey, 1);
  EXPECT_EQ(tlb.lookup(5)->pkey, 0);
  EXPECT_EQ(tlb.lookup(7)->pkey, 1);
  tlb.flush_vpn(5);
  EXPECT_EQ(tlb.lookup(7)->pkey, 1);
  ASSERT_TRUE(tlb.corrupt_slot(1, 0x10, 0, false));
  EXPECT_EQ(tlb.lookup(7)->pkey, 0x11);  // still slot 1, corrupted in place
  tlb.insert(entry_for(7, 9));            // overwrites the first match only
  EXPECT_EQ(tlb.lookup(7)->pkey, 9);
  EXPECT_EQ(tlb.peek_slot(3)->pkey, 2);
  EXPECT_EQ(tlb.stats().hits, 6u);
  EXPECT_EQ(tlb.stats().misses, 0u);
}

}  // namespace
}  // namespace sealpk::mem
