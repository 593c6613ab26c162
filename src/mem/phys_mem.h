// Sparse simulated physical memory (the FPGA board's DRAM).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"

namespace sealpk::mem {

constexpr u64 kPageSize = 4096;
constexpr unsigned kPageShift = 12;

// Physical memory, page-granular and lazily materialised. Reads of
// never-written pages return zero, like freshly initialised DRAM in the
// simulator. All accesses are bounds-checked against the configured size
// (the Zedboard used in the paper has 256 MiB).
//
// Single-owner: the mutable page cache makes even const reads
// non-thread-safe, so a PhysMem must not be shared across threads.
class PhysMem {
 public:
  explicit PhysMem(u64 size_bytes = 256 * 1024 * 1024) : size_(size_bytes) {
    SEALPK_CHECK(size_bytes % kPageSize == 0);
  }
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  u64 size() const { return size_; }

  u8 read_u8(u64 addr) const { return page_at(addr)[addr % kPageSize]; }

  void write_u8(u64 addr, u8 value) {
    mutable_page(addr)[addr % kPageSize] = value;
  }

  u16 read_u16(u64 addr) const { return read_le<u16>(addr); }
  u32 read_u32(u64 addr) const { return read_le<u32>(addr); }
  u64 read_u64(u64 addr) const { return read_le<u64>(addr); }
  void write_u16(u64 addr, u16 v) { write_le(addr, v); }
  void write_u32(u64 addr, u32 v) { write_le(addr, v); }
  void write_u64(u64 addr, u64 v) { write_le(addr, v); }

  // The bulk operations work a page at a time. Because the size is a whole
  // number of pages, the first out-of-range byte always starts a chunk, so
  // a failing call reports the same address and leaves the same bytes
  // written as a byte-at-a-time loop would.
  void read_bytes(u64 addr, u8* out, u64 len) const {
    for_each_chunk(addr, len, [&](u64 a, u64 done, u64 n) {
      std::memcpy(out + done, page_at(a).data() + a % kPageSize, n);
    });
  }

  void write_bytes(u64 addr, const u8* in, u64 len) {
    for_each_chunk(addr, len, [&](u64 a, u64 done, u64 n) {
      std::memcpy(mutable_page(a).data() + a % kPageSize, in + done, n);
    });
  }

  void fill(u64 addr, u8 value, u64 len) {
    for_each_chunk(addr, len, [&](u64 a, u64, u64 n) {
      std::memset(mutable_page(a).data() + a % kPageSize, value, n);
    });
  }

  bool contains(u64 addr, u64 len = 1) const {
    return addr < size_ && len <= size_ - addr;
  }

  size_t materialized_pages() const { return pages_.size(); }

  // Host address of the page holding `addr` if that page is already
  // materialised, else nullptr. Never materialises a page and never
  // returns the shared zero page, so writes through the pointer land in
  // guest memory. The pointer stays valid until generation() changes.
  u8* host_page(u64 addr) {
    Page* page = find_page(addr >> kPageShift);
    return page == nullptr ? nullptr : page->data();
  }

  // Read-only host view of the page holding `addr`, read in place: nullptr
  // when that page was never written (it reads as zero). Never
  // materialises a page; bounds-checked like a read. The pointer stays
  // valid until generation() changes.
  const u8* page_view(u64 addr) const {
    const Page& page = page_at(addr);
    return &page == &kZeroPage ? nullptr : page.data();
  }

  // Bumped by load_state, the only place pages are freed.
  u64 generation() const { return generation_; }

  // Snapshot port. Pages are emitted in ascending index order and all-zero
  // pages are elided, so the encoding is canonical: two memories with equal
  // contents produce byte-identical streams regardless of materialisation
  // history. That property is what lets tests compare whole snapshots.
  void save_state(ByteWriter& w) const {
    w.put_u64(size_);
    std::vector<u64> indices;
    indices.reserve(pages_.size());
    static const Page kZero{};
    for (const auto& [index, page] : pages_) {
      if (*page != kZero) indices.push_back(index);
    }
    std::sort(indices.begin(), indices.end());
    w.put_u64(indices.size());
    for (u64 index : indices) {
      w.put_u64(index);
      w.put_bytes(pages_.at(index)->data(), kPageSize);
    }
  }
  void load_state(ByteReader& r) {
    const u64 size = r.get_u64();
    SEALPK_CHECK_MSG(size == size_, "phys size mismatch: snapshot has "
                                        << size << ", machine has " << size_);
    pages_.clear();
    cache_ = {};
    ++generation_;
    const u64 count = r.get_u64();
    for (u64 i = 0; i < count; ++i) {
      const u64 index = r.get_u64();
      SEALPK_CHECK_MSG(index < (size_ >> kPageShift),
                       "snapshot page index out of range: " << index);
      auto page = std::make_unique<Page>();
      r.get_bytes(page->data(), kPageSize);
      pages_[index] = std::move(page);
    }
  }

 private:
  using Page = std::array<u8, kPageSize>;
  static const Page kZeroPage;
  static_assert(std::endian::native == std::endian::little,
                "read_le/write_le copy host words as guest little-endian");

  // Direct-mapped cache of recently used materialised pages (page index ->
  // Page*). Fetches and data accesses alternate between pages, so a handful
  // of slots keeps both warm. Only existing pages are cached, never the
  // shared zero page, so a later write materialises a page exactly as an
  // uncached lookup would. Pages are only ever dropped by load_state,
  // which clears the cache too and bumps generation().
  struct CacheSlot {
    u64 index = ~u64{0};
    Page* page = nullptr;
  };
  static constexpr size_t kCacheSlots = 8;

  Page* find_page(u64 index) const {
    CacheSlot& slot = cache_[index % kCacheSlots];
    if (slot.index == index) return slot.page;
    auto it = pages_.find(index);
    if (it == pages_.end()) return nullptr;
    slot = {index, it->second.get()};
    return slot.page;
  }

  const Page& page_at(u64 addr) const {
    SEALPK_CHECK_MSG(contains(addr), "phys read out of range 0x" << std::hex
                                                                 << addr);
    const Page* page = find_page(addr >> kPageShift);
    return page == nullptr ? kZeroPage : *page;
  }

  Page& mutable_page(u64 addr) {
    SEALPK_CHECK_MSG(contains(addr), "phys write out of range 0x" << std::hex
                                                                  << addr);
    const u64 index = addr >> kPageShift;
    if (Page* page = find_page(index)) return *page;
    auto& owned = pages_[index];
    owned = std::make_unique<Page>(Page{});
    cache_[index % kCacheSlots] = {index, owned.get()};
    return *owned;
  }

  // Calls fn(addr, offset_into_buffer, length) once per page-bounded chunk.
  template <typename Fn>
  static void for_each_chunk(u64 addr, u64 len, Fn&& fn) {
    u64 done = 0;
    while (done < len) {
      const u64 a = addr + done;
      const u64 n = std::min(len - done, kPageSize - a % kPageSize);
      fn(a, done, n);
      done += n;
    }
  }

  // An access inside one page is one lookup and a copy. Accesses in the
  // simulated machine may also straddle two pages (the hart enforces its
  // own alignment policy); those assemble byte-wise.
  template <typename T>
  T read_le(u64 addr) const {
    const u64 off = addr % kPageSize;
    T v{};
    if (off + sizeof(T) <= kPageSize) {
      std::memcpy(&v, page_at(addr).data() + off, sizeof(T));
      return v;
    }
    for (unsigned i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<T>(read_u8(addr + i)) << (8 * i));
    return v;
  }

  template <typename T>
  void write_le(u64 addr, T v) {
    const u64 off = addr % kPageSize;
    if (off + sizeof(T) <= kPageSize) {
      std::memcpy(mutable_page(addr).data() + off, &v, sizeof(T));
      return;
    }
    for (unsigned i = 0; i < sizeof(T); ++i)
      write_u8(addr + i, static_cast<u8>(v >> (8 * i)));
  }

  u64 size_;
  std::unordered_map<u64, std::unique_ptr<Page>> pages_;
  mutable std::array<CacheSlot, kCacheSlots> cache_{};
  u64 generation_ = 0;  // see generation()
};

}  // namespace sealpk::mem
