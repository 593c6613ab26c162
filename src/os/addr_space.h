// Per-process virtual address space: VMA bookkeeping plus real Sv39 page
// tables materialised in guest physical memory (so the hart's hardware
// walker exercises the same structures the Linux port would).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/serial.h"
#include "mem/phys_mem.h"
#include "mem/pte.h"
#include "os/frame_alloc.h"

namespace sealpk::os {

class KeyManager;

struct Vma {
  u64 start = 0;  // page aligned, inclusive
  u64 end = 0;    // page aligned, exclusive
  u64 prot = 0;   // prot:: bits
  u32 pkey = 0;

  u64 pages() const { return (end - start) >> mem::kPageShift; }
};

// Callback used to keep the key manager's per-pkey page counters in sync:
// invoked once per (pkey, page-count) delta.
using PkeyPageDelta = std::function<void(u32 pkey, i64 pages)>;

class AddressSpace {
 public:
  // levels: 3 = Sv39 (the paper's platform), 4 = Sv48 (footnote 1).
  AddressSpace(mem::PhysMem& mem, FrameAllocator& frames,
               unsigned pkey_bits, unsigned levels = mem::sv39::kLevels);

  // Snapshot restore constructor: rebuilds the bookkeeping from a
  // serialized stream WITHOUT allocating a root table — the page tables
  // themselves live in PhysMem, which the snapshot layer restores
  // wholesale, and the frame allocator's state is restored separately.
  AddressSpace(mem::PhysMem& mem, FrameAllocator& frames, ByteReader& r);

  void save_state(ByteWriter& w) const;

  u64 root_ppn() const { return root_ppn_; }
  u64 satp() const;
  unsigned pkey_bits() const { return pkey_bits_; }
  unsigned levels() const { return levels_; }

  // Maps [addr, addr+len) anonymous zeroed memory. addr == 0 picks an
  // address from the mmap region. Returns the mapped address, or a
  // negative errno. `pages_touched` (optional) reports PTE writes for the
  // cycle model.
  i64 map(u64 addr, u64 len, u64 prot, u32 pkey = 0,
          const PkeyPageDelta& delta = nullptr);

  // Unmaps [addr, addr+len). Partial VMA coverage splits VMAs like Linux.
  i64 unmap(u64 addr, u64 len, const PkeyPageDelta& delta = nullptr);

  // pkey_mprotect: updates permissions and assigns `pkey` (nullopt keeps
  // each page's own). `keys` (optional) supplies the seal vetoes of
  // os::retag_veto; `delta` maintains page counters. Returns pages
  // updated or negative errno.
  i64 protect_pkey(u64 addr, u64 len, u64 prot, std::optional<u32> pkey,
                   const KeyManager* keys, const PkeyPageDelta& delta);
  // mprotect: updates PTE permission bits, preserving each page's pkey.
  i64 protect(u64 addr, u64 len, u64 prot, const KeyManager* keys = nullptr) {
    return protect_pkey(addr, len, prot, std::nullopt, keys, nullptr);
  }

  const Vma* find_vma(u64 addr) const;
  const std::map<u64, Vma>& vmas() const { return vmas_; }

  // Reads the pkey field straight out of the leaf PTE (test/debug aid).
  std::optional<u32> page_pkey(u64 vaddr) const;
  std::optional<u64> leaf_pte(u64 vaddr) const;

  // Physical address of the leaf PTE slot for `vaddr`, or 0 when the page
  // tables don't reach it. Fault-injection and audit port: lets callers
  // flip or inspect the raw PTE word in DRAM.
  u64 leaf_pte_addr(u64 vaddr) const { return lookup_pte_slot(vaddr); }

  // The leaf PTE `vma` prescribes for one of its pages currently holding
  // `entry`: the VMA's permission bits and pkey, with the entry's PPN and
  // A/D bits (the hardware walker sets those) kept.
  u64 prescribed_pte(const Vma& vma, u64 entry) const;

  // Recovery port: rewrite the leaf PTE for `vaddr` to prescribed_pte of
  // the owning VMA (the software source of truth). Returns true only when
  // the stored PTE actually changed.
  bool repair_page(u64 vaddr);

  // Kernel copy helpers (loader, write(2), fault reporting).
  bool copy_out(u64 vaddr, const u8* src, u64 len);
  bool copy_in(u64 vaddr, u8* dst, u64 len) const;
  // In-place read port for host-side scans: sets `views` to the
  // PhysMem::page_view of each of the `pages` pages from page-aligned
  // `vaddr` (nullptr for a page never written). False, like copy_in, when
  // the page tables do not map one of them.
  bool page_views(u64 vaddr, u64 pages, std::vector<const u8*>& views) const;

  u64 pages_mapped() const { return pages_mapped_; }

 private:
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self);

  u64 pte_slot_addr(u64 vaddr, bool create);  // phys addr of leaf PTE slot
  u64 lookup_pte_slot(u64 vaddr) const;       // 0 if tables absent
  // The leaf PTE bits `prot` should produce (V|U plus R/W/X with the
  // W-implies-R fixup).
  static u64 leaf_flags_for_prot(u64 prot);
  // Splits any VMA straddling `addr` so that `addr` becomes a boundary.
  void split_at(u64 addr);
  bool range_fully_mapped(u64 addr, u64 len) const;

  mem::PhysMem& mem_;
  FrameAllocator& frames_;
  unsigned pkey_bits_;
  unsigned levels_;
  u64 root_ppn_;
  std::map<u64, Vma> vmas_;  // keyed by start
  u64 mmap_next_;
  u64 pages_mapped_ = 0;
};

}  // namespace sealpk::os
