#include "os/addr_space.h"

#include "core/csr.h"
#include "os/pkey_ops.h"
#include "os/syscall_abi.h"

namespace sealpk::os {

u64 AddressSpace::leaf_flags_for_prot(u64 prot) {
  u64 flags = mem::pte::kV | mem::pte::kU;
  if (prot & prot::kRead) flags |= mem::pte::kR;
  if (prot & prot::kExec) flags |= mem::pte::kX;
  if (prot & prot::kWrite) flags |= mem::pte::kW | mem::pte::kR;
  // W implies R above because W-without-R is a reserved PTE combination in
  // RISC-V; write-only *domains* are expressed through pkeys instead
  // (paper §III-A).
  return flags;
}

AddressSpace::AddressSpace(mem::PhysMem& mem, FrameAllocator& frames,
                           unsigned pkey_bits, unsigned levels)
    : mem_(mem),
      frames_(frames),
      pkey_bits_(pkey_bits),
      levels_(levels),
      mmap_next_(kMmapBase) {
  SEALPK_CHECK(levels == 3 || levels == 4);
  root_ppn_ = frames_.alloc_ppn();
  mem_.fill(root_ppn_ << mem::kPageShift, 0, mem::kPageSize);
}

AddressSpace::AddressSpace(mem::PhysMem& mem, FrameAllocator& frames,
                           ByteReader& r)
    : mem_(mem), frames_(frames) {
  fields(r, *this);
}

void AddressSpace::save_state(ByteWriter& w) const { fields(w, *this); }

// The VMA map is keyed by each VMA's start, which travels once, as the
// VMA's first field.
template <typename Io, typename Self>
void AddressSpace::fields(Io& io, Self& self) {
  io.fields(self.pkey_bits_, self.levels_);
  SEALPK_CHECK(self.levels_ == 3 || self.levels_ == 4);
  io.fields(self.root_ppn_, self.mmap_next_, self.pages_mapped_);
  io.keyed(self.vmas_, 8 + 8 + 8 + 4, [&](auto& start, auto& vma) {
    io.fields(vma.start, vma.end, vma.prot, vma.pkey);
    if constexpr (Io::kLoading) start = vma.start;
  });
}

u64 AddressSpace::satp() const {
  return (levels_ == 4 ? core::csr::kSatpModeSv48
                       : core::csr::kSatpModeSv39) |
         root_ppn_;
}

u64 AddressSpace::pte_slot_addr(u64 vaddr, bool create) {
  u64 table_ppn = root_ppn_;
  for (int level = static_cast<int>(levels_) - 1; level >= 1; --level) {
    const u64 slot = (table_ppn << mem::kPageShift) +
                     mem::svxx::vpn_slice(vaddr, level) * 8;
    u64 entry = mem_.read_u64(slot);
    if (!mem::pte::valid(entry)) {
      if (!create) return 0;
      const u64 ppn = frames_.alloc_ppn();
      mem_.fill(ppn << mem::kPageShift, 0, mem::kPageSize);
      entry = mem::pte::make(ppn, mem::pte::kV);  // non-leaf pointer
      mem_.write_u64(slot, entry);
    }
    SEALPK_CHECK_MSG(!mem::pte::is_leaf(entry),
                     "superpage in kernel-managed tables");
    table_ppn = mem::pte::ppn_of(entry);
  }
  return (table_ppn << mem::kPageShift) +
         mem::svxx::vpn_slice(vaddr, 0) * 8;
}

u64 AddressSpace::lookup_pte_slot(u64 vaddr) const {
  u64 table_ppn = root_ppn_;
  for (int level = static_cast<int>(levels_) - 1; level >= 1; --level) {
    const u64 slot = (table_ppn << mem::kPageShift) +
                     mem::svxx::vpn_slice(vaddr, level) * 8;
    const u64 entry = mem_.read_u64(slot);
    if (!mem::pte::valid(entry) || mem::pte::is_leaf(entry)) return 0;
    table_ppn = mem::pte::ppn_of(entry);
  }
  return (table_ppn << mem::kPageShift) +
         mem::svxx::vpn_slice(vaddr, 0) * 8;
}

const Vma* AddressSpace::find_vma(u64 addr) const {
  auto it = vmas_.upper_bound(addr);
  if (it == vmas_.begin()) return nullptr;
  --it;
  return addr < it->second.end ? &it->second : nullptr;
}

void AddressSpace::split_at(u64 addr) {
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

i64 AddressSpace::map(u64 addr, u64 len, u64 prot, u32 pkey,
                      const PkeyPageDelta& delta) {
  if (len == 0) return err::kInval;
  len = align_up(len, mem::kPageSize);
  if (addr == 0) {
    addr = mmap_next_;
    mmap_next_ += len + mem::kPageSize;  // one guard page between regions
  }
  if ((addr & (mem::kPageSize - 1)) != 0) return err::kInval;
  if (!mem::svxx::canonical(addr, levels_) ||
      !mem::svxx::canonical(addr + len - 1, levels_)) {
    return err::kInval;
  }
  // Overlap check.
  for (u64 page = addr; page < addr + len; page += mem::kPageSize) {
    if (find_vma(page) != nullptr) return err::kInval;
  }

  // Frame budget check up front (pages + worst-case fresh table frames):
  // guest-driven exhaustion must surface as ENOMEM, not a host error.
  const u64 pages = len >> mem::kPageShift;
  if (frames_.frames_left() < pages + 8) return err::kNoMem;
  const u64 flags = leaf_flags_for_prot(prot);
  for (u64 page = addr; page < addr + len; page += mem::kPageSize) {
    const u64 ppn = frames_.alloc_ppn();
    mem_.fill(ppn << mem::kPageShift, 0, mem::kPageSize);
    const u64 slot = pte_slot_addr(page, /*create=*/true);
    mem_.write_u64(slot, mem::pte::make(ppn, flags, pkey, pkey_bits_));
  }
  vmas_.emplace(addr, Vma{addr, addr + len, prot, pkey});
  pages_mapped_ += len >> mem::kPageShift;
  if (delta && (len >> mem::kPageShift) > 0) {
    delta(pkey, static_cast<i64>(len >> mem::kPageShift));
  }
  return static_cast<i64>(addr);
}

i64 AddressSpace::unmap(u64 addr, u64 len, const PkeyPageDelta& delta) {
  if (len == 0 || (addr & (mem::kPageSize - 1)) != 0) return err::kInval;
  len = align_up(len, mem::kPageSize);
  split_at(addr);
  split_at(addr + len);
  auto it = vmas_.lower_bound(addr);
  while (it != vmas_.end() && it->second.start < addr + len) {
    const Vma vma = it->second;
    for (u64 page = vma.start; page < vma.end; page += mem::kPageSize) {
      const u64 slot = lookup_pte_slot(page);
      SEALPK_CHECK(slot != 0);
      const u64 entry = mem_.read_u64(slot);
      if (mem::pte::valid(entry)) {
        frames_.free_ppn(mem::pte::ppn_of(entry));
        mem_.write_u64(slot, 0);
      }
    }
    pages_mapped_ -= vma.pages();
    if (delta) delta(vma.pkey, -static_cast<i64>(vma.pages()));
    it = vmas_.erase(it);
  }
  return 0;
}

i64 AddressSpace::protect_pkey(u64 addr, u64 len, u64 prot,
                               std::optional<u32> pkey,
                               const KeyManager* keys,
                               const PkeyPageDelta& delta) {
  if (len == 0 || (addr & (mem::kPageSize - 1)) != 0) return err::kInval;
  if (pkey && *pkey >= (u32{1} << pkey_bits_)) return err::kInval;
  len = align_up(len, mem::kPageSize);
  const u64 end = addr + len;
  if (end <= addr) {
    // A range that wraps past the top covers no page, but both of its ends
    // still become VMA boundaries.
    split_at(addr);
    split_at(end);
    return 0;
  }

  // The one search: `head` is the VMA find_vma(addr) would look at. Each
  // later step of the walk below is find_vma(cursor) done by moving forward
  // from the previous VMA, so the range check and the seal-veto pre-flight
  // see the VMAs they always did. A hole anywhere beats a veto, and a veto
  // leaves the call all-or-nothing.
  auto head = vmas_.upper_bound(addr);
  if (head == vmas_.begin()) return err::kNoMem;
  --head;
  i64 veto = 0;
  u64 cursor = addr;
  for (auto it = head;;) {
    if (cursor >= it->second.end) return err::kNoMem;
    if (keys != nullptr && veto == 0) {
      veto = retag_veto(*keys, it->second.pkey,
                        pkey.value_or(it->second.pkey));
    }
    cursor = it->second.end;
    if (cursor >= end) break;
    while (std::next(it) != vmas_.end() && std::next(it)->first <= cursor) {
      ++it;
    }
  }
  if (veto != 0) return veto;

  // Make addr and end VMA boundaries, then rewrite every VMA between them.
  // The VMA split at end is the last one starting at or below end, which
  // is the last one the loop visits.
  auto it = head;
  if (it->first < addr) {
    Vma tail = it->second;
    tail.start = addr;
    it->second.end = addr;
    it = vmas_.emplace_hint(std::next(it), addr, tail);
  }
  i64 pages = 0;
  const u64 flags = leaf_flags_for_prot(prot);
  for (; it != vmas_.end() && it->second.start < end; ++it) {
    Vma& vma = it->second;
    const auto next = std::next(it);
    if (vma.end > end && (next == vmas_.end() || next->first > end)) {
      Vma tail = vma;
      tail.start = end;
      vma.end = end;
      vmas_.emplace_hint(next, end, tail);
    }
    const u32 to = pkey.value_or(vma.pkey);
    for (u64 page = vma.start; page < vma.end; page += mem::kPageSize) {
      const u64 slot = lookup_pte_slot(page);
      u64 entry =
          mem::pte::with_flags(mem_.read_u64(slot) & ~u64{0xFF}, flags);
      if (pkey) entry = mem::pte::with_pkey(entry, to, pkey_bits_);
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

std::optional<u32> AddressSpace::page_pkey(u64 vaddr) const {
  const u64 slot = lookup_pte_slot(vaddr);
  if (slot == 0) return std::nullopt;
  const u64 entry = mem_.read_u64(slot);
  if (!mem::pte::valid(entry)) return std::nullopt;
  return mem::pte::pkey_of(entry, pkey_bits_);
}

std::optional<u64> AddressSpace::leaf_pte(u64 vaddr) const {
  const u64 slot = lookup_pte_slot(vaddr);
  if (slot == 0) return std::nullopt;
  const u64 entry = mem_.read_u64(slot);
  if (!mem::pte::valid(entry)) return std::nullopt;
  return entry;
}

u64 AddressSpace::prescribed_pte(const Vma& vma, u64 entry) const {
  const u64 ad = entry & (mem::pte::kA | mem::pte::kD);
  return mem::pte::make(mem::pte::ppn_of(entry),
                        leaf_flags_for_prot(vma.prot) | ad, vma.pkey,
                        pkey_bits_);
}

bool AddressSpace::repair_page(u64 vaddr) {
  const Vma* vma = find_vma(vaddr);
  if (vma == nullptr) return false;
  const u64 slot = lookup_pte_slot(vaddr);
  if (slot == 0) return false;
  const u64 entry = mem_.read_u64(slot);
  if (!mem::pte::valid(entry)) return false;
  const u64 want = prescribed_pte(*vma, entry);
  if (want == entry) return false;
  mem_.write_u64(slot, want);
  return true;
}

bool AddressSpace::copy_out(u64 vaddr, const u8* src, u64 len) {
  for (u64 i = 0; i < len;) {
    const u64 slot = lookup_pte_slot(vaddr + i);
    if (slot == 0) return false;
    const u64 entry = mem_.read_u64(slot);
    if (!mem::pte::valid(entry)) return false;
    const u64 page_off = (vaddr + i) & (mem::kPageSize - 1);
    const u64 chunk = std::min(len - i, mem::kPageSize - page_off);
    mem_.write_bytes((mem::pte::ppn_of(entry) << mem::kPageShift) + page_off,
                     src + i, chunk);
    i += chunk;
  }
  return true;
}

bool AddressSpace::copy_in(u64 vaddr, u8* dst, u64 len) const {
  for (u64 i = 0; i < len;) {
    const u64 slot = lookup_pte_slot(vaddr + i);
    if (slot == 0) return false;
    const u64 entry = mem_.read_u64(slot);
    if (!mem::pte::valid(entry)) return false;
    const u64 page_off = (vaddr + i) & (mem::kPageSize - 1);
    const u64 chunk = std::min(len - i, mem::kPageSize - page_off);
    mem_.read_bytes((mem::pte::ppn_of(entry) << mem::kPageShift) + page_off,
                    dst + i, chunk);
    i += chunk;
  }
  return true;
}

bool AddressSpace::page_views(u64 vaddr, u64 pages,
                              std::vector<const u8*>& views) const {
  views.clear();
  for (u64 i = 0; i < pages; ++i) {
    const u64 slot = lookup_pte_slot(vaddr + (i << mem::kPageShift));
    if (slot == 0) return false;
    const u64 entry = mem_.read_u64(slot);
    if (!mem::pte::valid(entry)) return false;
    views.push_back(mem_.page_view(mem::pte::ppn_of(entry) << mem::kPageShift));
  }
  return true;
}

}  // namespace sealpk::os
