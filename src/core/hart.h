// The simulated hart: an RV64IM in-order core (Rocket-class) with Sv39
// translation, split TLBs, U/S privilege, trap machinery, and the SealPK
// units (PKR + SealReg/PK-CAM) attached via a RoCC-style custom-instruction
// path. A second ISA flavour models an Intel-MPK-like design (4-bit PTE
// keys + the PKRU register) on the same pipeline for the paper's
// comparisons.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "core/csr.h"
#include "core/timing.h"
#include "core/trap.h"
#include "hw/pkr.h"
#include "hw/pkru.h"
#include "hw/seal_unit.h"
#include "isa/inst.h"
#include "mem/phys_mem.h"
#include "mem/tlb.h"
#include "mem/walker.h"
#include "obs/recorder.h"

namespace sealpk::core {

enum class IsaFlavor : u8 {
  kSealPk,          // 10-bit PTE pkeys, PKR, sealing units
  kIntelMpkCompat,  // 4-bit PTE pkeys, PKRU, WRPKRU/RDPKRU, no sealing
};

enum class Priv : u8 { kUser = 0, kSupervisor = 1 };

struct HartConfig {
  IsaFlavor flavor = IsaFlavor::kSealPk;
  size_t dtlb_entries = 32;
  size_t itlb_entries = 32;
  TimingModel timing;
};

enum class StepKind : u8 { kOk, kTrap };

struct StepResult {
  StepKind kind = StepKind::kOk;
  TrapCause cause = TrapCause::kIllegalInst;  // valid when kind == kTrap
};

struct HartStats {
  u64 loads = 0;
  u64 stores = 0;
  u64 calls = 0;  // jal/jalr writing ra — the shadow-stack event rate
  u64 traps = 0;
  u64 pkey_denials = 0;  // data accesses denied by the pkey (not the PTE)
  u64 wrpkr_count = 0;
  u64 rdpkr_count = 0;
  u64 wrpkru_count = 0;
};

class Hart {
 public:
  explicit Hart(mem::PhysMem& mem, const HartConfig& config = {});

  // --- architectural state -------------------------------------------------
  u64 reg(unsigned idx) const;
  void set_reg(unsigned idx, u64 value);
  u64 pc() const { return pc_; }
  void set_pc(u64 pc) { pc_ = pc; }
  Priv priv() const { return priv_; }
  void set_priv(Priv priv) { priv_ = priv; }

  CsrFile& csrs() { return csrs_; }
  const CsrFile& csrs() const { return csrs_; }
  hw::Pkr& pkr() { return pkr_; }
  hw::SealUnit& seal_unit() { return seal_unit_; }
  hw::Pkru& pkru() { return pkru_; }
  mem::Tlb& dtlb() { return dtlb_; }
  mem::Tlb& itlb() { return itlb_; }
  mem::PhysMem& mem() { return mem_; }
  const HartConfig& config() const { return config_; }
  const TimingModel& timing() const { return config_.timing; }

  // --- execution -------------------------------------------------------------
  // Both run one decoded-block interpreter (DESIGN.md §17): the fetch
  // translation and the code-page key are resolved once per straight-line
  // block (and kept across branches within the page), and each
  // instruction runs through a handler resolved when its word was
  // decoded.
  //
  // Executes one instruction; on an exception the hart has already
  // redirected to stvec in S-mode with scause/sepc/stval set.
  StepResult step();

  // Runs until a trap is taken or `max_steps` instructions retire.
  // Returns the trap if one occurred. Instret, cycles and TLB counters are
  // exactly those of `max_steps` step() calls, and the instructions before
  // a trap (or a host exception) have retired.
  std::optional<StepResult> run(u64 max_steps);

  // The OS model charges its software-path costs here.
  void add_cycles(u64 cycles) { cycles_ += cycles; }
  u64 cycles() const { return cycles_; }
  u64 instret() const { return instret_; }
  const HartStats& stats() const { return stats_; }

  // Snapshot ports: restore overwrites the performance counters so a
  // resumed hart continues the exact counter stream of the saved one.
  void set_cycles(u64 cycles) { cycles_ = cycles; }
  void set_instret(u64 instret) { instret_ = instret; }
  void set_stats(const HartStats& stats) { stats_ = stats; }

  // Flushes both TLBs (the kernel's sfence.vma after PTE updates).
  void flush_tlbs();

  // Optional PKR write-through hook: invoked after every successful WRPKR
  // with the final row value actually committed to the SRAM
  // (sealed-neighbour preservation already applied). The kernel uses it to
  // keep a live per-thread software shadow of the PKR so a corrupted row
  // can be scrubbed back. Zero cost when unset.
  using PkrWriteHook = std::function<void(u32 row, u64 value)>;
  void set_pkr_write_hook(PkrWriteHook hook) {
    pkr_write_hook_ = std::move(hook);
  }

  // Optional observability sink (src/obs): traps, pkey denials and
  // RDPKR/WRPKR domain transitions are published here. One null check per
  // publish site when unset, and emits charge no cycles, so tracing never
  // perturbs architectural state.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  // Fault-injection port: take `cause` as if the *current* instruction had
  // trapped (scause/sepc/stval/SPP set, redirect to stvec, trap cycles
  // charged). Unlike in-pipeline raises the PC advances immediately — the
  // caller dispatches the kernel handler itself rather than re-running
  // step().
  void inject_trap(TrapCause cause, u64 tval);

  // Translation without architectural side effects (no TLB, no A/D update,
  // no fault) — the kernel's copy_{to,from}_user path.
  std::optional<u64> translate_debug(u64 vaddr, mem::Access access) const;

 private:
  struct MemOutcome {
    bool ok = false;
    u64 paddr = 0;
    TrapCause cause = TrapCause::kLoadPageFault;
    u64 tval = 0;
  };

  // The last U-mode paged translation of one page, with the host address
  // of its frame; see DESIGN.md §17 "Page fast paths". A hit needs the
  // same virtual page, satp, TLB epoch and PhysMem generation as the fill,
  // which means the TLB lookup it skips would return `entry` again.
  struct PageCache {
    u64 vpage = ~u64{0};  // vaddr >> kPageShift; ~0 matches no address
    u64 satp = 0;
    u64 tlb_epoch = 0;
    u64 mem_generation = 0;
    u8* host = nullptr;   // PhysMem::host_page of the frame
    mem::TlbEntry entry;  // what the TLB lookup returned at fill time
  };

  // What an instruction handler tells the block loop: go on to the next
  // word; jump (a branch or jump, which leaves the code-page key as it
  // was); end the block (state the code-page key depends on may have
  // changed); or a trap was raised.
  enum class Flow : u8 { kNext, kJump, kEnd, kTrap };
  using Handler = Flow (*)(Hart&, const isa::Inst&);

  // One decoded word. `handler` is the one for `inst.op`, so an entry whose
  // `inst.raw` equals the fetched word holds exactly decode(word).
  struct DecodedEntry {
    Handler handler;
    isa::Inst inst;
  };
  static constexpr size_t kPageWords = mem::kPageSize / 4;
  struct DecodedPage {
    std::array<DecodedEntry, kPageWords> entries;
  };

  // Decoded pages, direct-mapped by physical page number and allocated on
  // first use, so a hart holds at most kDecodedPages of them. Entries carry
  // no tag: validity is the raw-word compare, which makes a page slot
  // shared by two frames cost re-decodes, never a wrong instruction.
  static constexpr size_t kDecodedPages = 16;
  // Data translations, direct-mapped by virtual page number. A slot hits
  // only while the DTLB still holds its page, so the set never has more
  // live pages than the DTLB has entries (HartConfig::dtlb_entries, 32 by
  // default); a smaller set keeps losing pages the DTLB still holds.
  static constexpr size_t kDataPageSlots = 32;

  // 0 = no translation (S-mode or bare); 3 = Sv39; 4 = Sv48.
  unsigned paging_levels() const;
  unsigned pkey_bits() const;
  void raise(TrapCause cause, u64 tval);
  MemOutcome translate_fetch(u64 vaddr);
  MemOutcome translate_data(u64 vaddr, mem::Access access);
  bool data_access_allowed(const mem::TlbEntry& entry, u64 vaddr,
                           mem::Access access);
  [[gnu::noinline]] void deny_pkey(u32 pkey, u64 vaddr, bool write);
  bool page_cache_hit(const PageCache& cache, u64 vaddr,
                      const mem::Tlb& tlb) const;
  void fill_page_cache(PageCache* cache, u64 vaddr,
                       const mem::TlbEntry& entry, const mem::Tlb& tlb);
  PageCache& data_page(u64 vaddr) {
    return data_pages_[(vaddr >> mem::kPageShift) % kDataPageSlots];
  }

  // Block entry: translates pc_ once. On success sets the frame's host
  // page (a zero page for an unwritten frame), its decoded page, and
  // whether the block's later fetches count as ITLB hits.
  bool fetch_block(const u8** host, DecodedPage** page, bool* paged);
  DecodedPage& decoded_page(u64 ppn);
  static Handler handler_of(isa::Op op);
  template <unsigned kSize>
  bool mem_load(u64 vaddr, bool sign_extend, u64* value);
  template <unsigned kSize>
  bool mem_store(u64 vaddr, u64 value);
  // The handlers read regs_ directly and write through write_rd. decode()
  // only yields 5-bit register fields and x0 is never written, so regs_[0]
  // stays zero and neither needs the public accessors' checks.
  void write_rd(unsigned rd, u64 value) {
    if (rd != 0) regs_[rd] = value;
  }
  template <isa::Op kOp>
  Flow exec(const isa::Inst& inst);
  template <isa::Op kOp>
  static Flow exec_op(Hart& hart, const isa::Inst& inst) {
    return hart.exec<kOp>(inst);
  }
  bool exec_custom(const isa::Inst& inst);  // custom-0 extension
  bool exec_system(const isa::Inst& inst);
  bool exec_csr(const isa::Inst& inst);

  mem::PhysMem& mem_;
  HartConfig config_;
  std::array<u64, 32> regs_{};
  u64 pc_ = 0;
  Priv priv_ = Priv::kSupervisor;
  CsrFile csrs_;
  hw::Pkr pkr_;
  hw::SealUnit seal_unit_;
  hw::Pkru pkru_;
  mem::Tlb dtlb_;
  mem::Tlb itlb_;
  u64 cycles_ = 0;
  u64 instret_ = 0;
  HartStats stats_;
  PkrWriteHook pkr_write_hook_;
  obs::Recorder* recorder_ = nullptr;
  TrapCause trap_cause_ = TrapCause::kIllegalInst;  // set by raise()
  u64 next_pc_ = 0;  // where the current instruction goes next

  std::array<std::unique_ptr<DecodedPage>, kDecodedPages> decoded_;
  PageCache code_page_;
  std::array<PageCache, kDataPageSlots> data_pages_;
};

}  // namespace sealpk::core
