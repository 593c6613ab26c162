#include "core/hart.h"

#include <cstring>
#include <type_traits>

namespace sealpk::core {

using isa::Inst;
using isa::Op;

namespace {

// Paging levels selected by satp.MODE: 3 = Sv39, 4 = Sv48, 0 = bare.
unsigned satp_levels(u64 satp) {
  const u64 mode = csr::satp_mode(satp);
  if (mode == csr::satp_mode(csr::kSatpModeSv39)) return mem::sv39::kLevels;
  if (mode == csr::satp_mode(csr::kSatpModeSv48)) return mem::sv48::kLevels;
  return 0;
}

// Unsigned host type of a kSize-byte guest access.
template <unsigned kSize>
using Word = std::conditional_t<
    kSize == 1, u8,
    std::conditional_t<kSize == 2, u16,
                       std::conditional_t<kSize == 4, u32, u64>>>;

}  // namespace

const char* trap_cause_name(TrapCause cause) {
  switch (cause) {
    case TrapCause::kInstAddrMisaligned: return "instruction address misaligned";
    case TrapCause::kInstAccessFault: return "instruction access fault";
    case TrapCause::kIllegalInst: return "illegal instruction";
    case TrapCause::kBreakpoint: return "breakpoint";
    case TrapCause::kLoadAddrMisaligned: return "load address misaligned";
    case TrapCause::kLoadAccessFault: return "load access fault";
    case TrapCause::kStoreAddrMisaligned: return "store address misaligned";
    case TrapCause::kStoreAccessFault: return "store access fault";
    case TrapCause::kEcallFromU: return "ecall from U-mode";
    case TrapCause::kEcallFromS: return "ecall from S-mode";
    case TrapCause::kInstPageFault: return "instruction page fault";
    case TrapCause::kLoadPageFault: return "load page fault";
    case TrapCause::kStorePageFault: return "store page fault";
    case TrapCause::kSealViolation: return "sealed-pkey WRPKR violation";
    case TrapCause::kPkCamMiss: return "PK-CAM miss";
    case TrapCause::kMachineCheck:
      return "machine check (corrupted hardware state)";
  }
  return "unknown";
}

Hart::Hart(mem::PhysMem& mem, const HartConfig& config)
    : mem_(mem),
      config_(config),
      dtlb_(config.dtlb_entries),
      itlb_(config.itlb_entries) {}

u64 Hart::reg(unsigned idx) const {
  SEALPK_CHECK(idx < 32);
  return idx == 0 ? 0 : regs_[idx];
}

void Hart::set_reg(unsigned idx, u64 value) {
  SEALPK_CHECK(idx < 32);
  if (idx != 0) regs_[idx] = value;
}

unsigned Hart::paging_levels() const {
  return priv_ == Priv::kUser ? satp_levels(csrs_.satp) : 0;
}

unsigned Hart::pkey_bits() const {
  return config_.flavor == IsaFlavor::kSealPk ? mem::pte::kSealPkPkeyBits
                                              : mem::pte::kMpkPkeyBits;
}

void Hart::raise(TrapCause cause, u64 tval) {
  trap_cause_ = cause;
  ++stats_.traps;
  csrs_.scause = static_cast<u64>(cause);
  csrs_.sepc = pc_;
  csrs_.stval = tval;
  // Record the previous privilege in sstatus.SPP, as sret needs it.
  csrs_.sstatus = deposit(csrs_.sstatus, 8, 8,
                          priv_ == Priv::kSupervisor ? 1 : 0);
  priv_ = Priv::kSupervisor;
  next_pc_ = csrs_.stvec & ~u64{3};
  cycles_ += config_.timing.trap_enter_cycles;
  if (recorder_ != nullptr) {
    recorder_->emit(obs::EventKind::kTrap, instret_, cycles_, obs::kNoPkey,
                    static_cast<u64>(cause), tval);
  }
}

void Hart::inject_trap(TrapCause cause, u64 tval) {
  // raise() leaves the redirect in next_pc_ because in-pipeline traps are
  // committed by the block loop; an injected trap happens between
  // instructions, so commit the redirect here.
  raise(cause, tval);
  pc_ = next_pc_;
}

void Hart::flush_tlbs() {
  dtlb_.flush();
  itlb_.flush();
}

std::optional<u64> Hart::translate_debug(u64 vaddr,
                                         mem::Access access) const {
  const unsigned levels = satp_levels(csrs_.satp);
  if (levels == 0) return vaddr;  // bare
  const auto result =
      mem::walk(static_cast<const mem::PhysMem&>(mem_),
                csr::satp_ppn(csrs_.satp), vaddr, access, levels);
  if (!result.ok) return std::nullopt;
  return (result.ppn << mem::kPageShift) | mem::sv39::page_offset(vaddr);
}

bool Hart::page_cache_hit(const PageCache& cache, u64 vaddr,
                          const mem::Tlb& tlb) const {
  return cache.vpage == vaddr >> mem::kPageShift && priv_ == Priv::kUser &&
         cache.satp == csrs_.satp && cache.tlb_epoch == tlb.epoch() &&
         cache.mem_generation == mem_.generation();
}

void Hart::fill_page_cache(PageCache* cache, u64 vaddr,
                           const mem::TlbEntry& entry, const mem::Tlb& tlb) {
  u8* host = mem_.host_page(entry.ppn << mem::kPageShift);
  if (host == nullptr) return;  // an unwritten frame keeps the slow path
  *cache = {vaddr >> mem::kPageShift, csrs_.satp, tlb.epoch(),
            mem_.generation(), host, entry};
}

Hart::MemOutcome Hart::translate_fetch(u64 vaddr) {
  MemOutcome out;
  const unsigned levels = paging_levels();
  if (levels == 0) {
    if (!mem_.contains(vaddr, 4)) {
      out.cause = TrapCause::kInstAccessFault;
      out.tval = vaddr;
      return out;
    }
    out.ok = true;
    out.paddr = vaddr;
    return out;
  }
  const u64 vpn = mem::svxx::vpn_of(vaddr, levels);
  auto entry = itlb_.lookup(vpn);
  if (!entry) {
    const auto wr = mem::walk(mem_, csr::satp_ppn(csrs_.satp), vaddr,
                              mem::Access::kFetch, /*update_ad=*/true,
                              levels);
    cycles_ += config_.timing.ptw_cost(wr.accesses);
    if (!wr.ok) {
      out.cause = TrapCause::kInstPageFault;
      out.tval = vaddr;
      return out;
    }
    mem::TlbEntry fresh;
    fresh.vpn = vpn;
    fresh.ppn = wr.ppn;
    fresh.r = (wr.pte & mem::pte::kR) != 0;
    fresh.w = (wr.pte & mem::pte::kW) != 0;
    fresh.x = (wr.pte & mem::pte::kX) != 0;
    fresh.user = (wr.pte & mem::pte::kU) != 0;
    fresh.dirty = (wr.pte & mem::pte::kD) != 0;
    // The ITLB carries no pkey field (paper §III-A footnote: pkey checks
    // apply to data accesses only, so the ITLB is unmodified).
    itlb_.insert(fresh);
    entry = fresh;
  }
  if (!entry->x || !entry->user) {
    out.cause = TrapCause::kInstPageFault;
    out.tval = vaddr;
    return out;
  }
  out.ok = true;
  out.paddr =
      (entry->ppn << mem::kPageShift) | mem::sv39::page_offset(vaddr);
  fill_page_cache(&code_page_, vaddr, *entry, itlb_);
  return out;
}

// Effective permission of a data access through `entry`. A pkey denial
// latches spkinfo and is published; a PTE denial clears spkinfo. Inlined
// into every load and store; the denial itself is out of line.
[[gnu::always_inline]] inline bool Hart::data_access_allowed(
    const mem::TlbEntry& entry, u64 vaddr, mem::Access access) {
  const bool want_write = access == mem::Access::kStore;
  const bool pte_ok = entry.user && (want_write ? entry.w : entry.r);
  if (!pte_ok) {
    csrs_.spkinfo = 0;
    return false;
  }

  // Effective permission = PTE permission AND pkey permission (Figure 2).
  bool denied;
  if (config_.flavor == IsaFlavor::kSealPk) {
    denied = want_write ? pkr_.write_disabled(entry.pkey)
                        : pkr_.read_disabled(entry.pkey);
  } else {
    denied = pkru_.access_disabled(entry.pkey) ||
             (want_write && pkru_.write_disabled(entry.pkey));
  }
  if (denied) {
    deny_pkey(entry.pkey, vaddr, want_write);
    return false;
  }
  return true;
}

void Hart::deny_pkey(u32 pkey, u64 vaddr, bool write) {
  ++stats_.pkey_denials;
  // Hardware latches the denying pkey so the kernel can augment the
  // fault report (paper §III-B.2).
  csrs_.spkinfo = (u64{1} << 63) | pkey;
  if (recorder_ != nullptr) {
    recorder_->emit(obs::EventKind::kPkeyDenial, instret_, cycles_, pkey,
                    vaddr, write ? 1 : 0);
  }
}

Hart::MemOutcome Hart::translate_data(u64 vaddr, mem::Access access) {
  MemOutcome out;
  const bool is_store = access == mem::Access::kStore;
  const TrapCause fault =
      is_store ? TrapCause::kStorePageFault : TrapCause::kLoadPageFault;
  const unsigned levels = paging_levels();
  if (levels == 0) {
    if (!mem_.contains(vaddr, 1)) {
      out.cause = is_store ? TrapCause::kStoreAccessFault
                           : TrapCause::kLoadAccessFault;
      out.tval = vaddr;
      return out;
    }
    out.ok = true;
    out.paddr = vaddr;
    return out;
  }

  const u64 vpn = mem::svxx::vpn_of(vaddr, levels);
  auto entry = dtlb_.lookup(vpn);
  const bool need_dirty_walk =
      entry.has_value() && is_store && !entry->dirty;
  if (!entry || need_dirty_walk) {
    const auto wr = mem::walk(mem_, csr::satp_ppn(csrs_.satp), vaddr, access,
                              /*update_ad=*/true, levels);
    cycles_ += config_.timing.ptw_cost(wr.accesses);
    if (!wr.ok) {
      out.cause = fault;
      out.tval = vaddr;
      return out;
    }
    mem::TlbEntry fresh;
    fresh.vpn = vpn;
    fresh.ppn = wr.ppn;
    fresh.r = (wr.pte & mem::pte::kR) != 0;
    fresh.w = (wr.pte & mem::pte::kW) != 0;
    fresh.x = (wr.pte & mem::pte::kX) != 0;
    fresh.user = (wr.pte & mem::pte::kU) != 0;
    fresh.dirty = (wr.pte & mem::pte::kD) != 0;
    fresh.pkey = static_cast<u16>(mem::pte::pkey_of(wr.pte, pkey_bits()));
    dtlb_.insert(fresh);
    entry = fresh;
  }

  if (!data_access_allowed(*entry, vaddr, access)) {
    out.cause = fault;
    out.tval = vaddr;
    return out;
  }
  out.ok = true;
  out.paddr =
      (entry->ppn << mem::kPageShift) | mem::sv39::page_offset(vaddr);
  fill_page_cache(&data_page(vaddr), vaddr, *entry, dtlb_);
  return out;
}

// A code-page hit stands for an ITLB hit on the same entry, which already
// passed the X and U checks, so it only counts the hit. A block's later
// fetches hit the same page under the same key (nothing inside a block can
// change it), so with paging on each counts one ITLB hit as well.
[[gnu::always_inline]] inline bool Hart::fetch_block(const u8** host,
                                                  DecodedPage** page,
                                                  bool* paged) {
  // An unwritten frame reads as zero, which decodes to an illegal word.
  static constexpr std::array<u8, mem::kPageSize> kZeroPage{};
  if ((pc_ & 3) != 0) {
    raise(TrapCause::kInstAddrMisaligned, pc_);
    return false;
  }
  u64 ppn = 0;
  if (page_cache_hit(code_page_, pc_, itlb_)) {
    itlb_.count_hits();
    *host = code_page_.host;
    ppn = code_page_.entry.ppn;
    *paged = true;
  } else {
    const auto out = translate_fetch(pc_);
    if (!out.ok) {
      raise(out.cause, out.tval);
      return false;
    }
    const u8* frame = mem_.host_page(out.paddr);
    *host = frame != nullptr ? frame : kZeroPage.data();
    ppn = out.paddr >> mem::kPageShift;
    *paged = paging_levels() != 0;
  }
  *page = &decoded_page(ppn);
  return true;
}

Hart::DecodedPage& Hart::decoded_page(u64 ppn) {
  std::unique_ptr<DecodedPage>& slot = decoded_[ppn % kDecodedPages];
  if (slot == nullptr) {
    // Every entry starts as Inst{}, which is decode(0).
    slot = std::make_unique<DecodedPage>();
    slot->entries.fill({handler_of(Op::kIllegal), Inst{}});
  }
  return *slot;
}

// A data-page hit stands for a DTLB hit on the cached entry; the
// effective-permission check still runs, so PKR/PKRU writes apply to the
// very next access. Aligned accesses never leave the page.
template <unsigned kSize>
bool Hart::mem_load(u64 vaddr, bool sign_extend, u64* value) {
  if ((vaddr & (kSize - 1)) != 0) {
    raise(TrapCause::kLoadAddrMisaligned, vaddr);
    return false;
  }
  Word<kSize> raw = 0;
  const PageCache& cache = data_page(vaddr);
  if (page_cache_hit(cache, vaddr, dtlb_)) {
    dtlb_.count_hits();
    if (!data_access_allowed(cache.entry, vaddr, mem::Access::kLoad)) {
      raise(TrapCause::kLoadPageFault, vaddr);
      return false;
    }
    std::memcpy(&raw, cache.host + mem::sv39::page_offset(vaddr), kSize);
  } else {
    const auto out = translate_data(vaddr, mem::Access::kLoad);
    if (!out.ok) {
      raise(out.cause, out.tval);
      return false;
    }
    if (!mem_.contains(out.paddr, kSize)) {
      raise(TrapCause::kLoadAccessFault, vaddr);
      return false;
    }
    if constexpr (kSize == 1) raw = mem_.read_u8(out.paddr);
    if constexpr (kSize == 2) raw = mem_.read_u16(out.paddr);
    if constexpr (kSize == 4) raw = mem_.read_u32(out.paddr);
    if constexpr (kSize == 8) raw = mem_.read_u64(out.paddr);
  }
  *value = sign_extend ? static_cast<u64>(sext(raw, kSize * 8)) : raw;
  ++stats_.loads;
  cycles_ += config_.timing.mem_extra_cycles;
  return true;
}

// A store hits only a dirty entry; a clean one takes translate_data's
// dirty walk, exactly as without the cache.
template <unsigned kSize>
bool Hart::mem_store(u64 vaddr, u64 value) {
  if ((vaddr & (kSize - 1)) != 0) {
    raise(TrapCause::kStoreAddrMisaligned, vaddr);
    return false;
  }
  const auto raw = static_cast<Word<kSize>>(value);
  const PageCache& cache = data_page(vaddr);
  if (page_cache_hit(cache, vaddr, dtlb_) && cache.entry.dirty) {
    dtlb_.count_hits();
    if (!data_access_allowed(cache.entry, vaddr, mem::Access::kStore)) {
      raise(TrapCause::kStorePageFault, vaddr);
      return false;
    }
    std::memcpy(cache.host + mem::sv39::page_offset(vaddr), &raw, kSize);
  } else {
    const auto out = translate_data(vaddr, mem::Access::kStore);
    if (!out.ok) {
      raise(out.cause, out.tval);
      return false;
    }
    if (!mem_.contains(out.paddr, kSize)) {
      raise(TrapCause::kStoreAccessFault, vaddr);
      return false;
    }
    if constexpr (kSize == 1) mem_.write_u8(out.paddr, raw);
    if constexpr (kSize == 2) mem_.write_u16(out.paddr, raw);
    if constexpr (kSize == 4) mem_.write_u32(out.paddr, raw);
    if constexpr (kSize == 8) mem_.write_u64(out.paddr, raw);
  }
  ++stats_.stores;
  cycles_ += config_.timing.mem_extra_cycles;
  return true;
}

Hart::Handler Hart::handler_of(Op op) {
  static constexpr auto kHandlers = []<size_t... kOps>(
                                        std::index_sequence<kOps...>) {
    return std::array<Handler, sizeof...(kOps)>{
        &exec_op<static_cast<Op>(kOps)>...};
  }(std::make_index_sequence<isa::kNumOps>{});
  return kHandlers[static_cast<size_t>(op)];
}

StepResult Hart::step() { return run(1).value_or(StepResult{}); }

// The block loop. Each pass translates pc_ once (fetch_block), then runs
// the page's decoded entries in address order until a handler ends the
// block, the page ends, a trap is raised or the budget runs out. A branch
// or jump to the same page runs on without a new translation: nothing a
// jump does changes the code-page key. Every word is still read from the
// frame and compared with its entry's raw word, so a store into the page
// being run is seen by the next fetch. Instret, cycles and pc_ move per
// instruction; the ITLB hits of the fetches after the first are counted
// when the pass exits, even by a host exception.
std::optional<StepResult> Hart::run(u64 max_steps) {
  const u64 base_cycles = config_.timing.base_cycles;
  while (max_steps != 0) {
    cycles_ += base_cycles;
    const u8* host = nullptr;
    DecodedPage* page = nullptr;
    bool paged = false;
    if (!fetch_block(&host, &page, &paged)) {
      pc_ = next_pc_;
      return StepResult{StepKind::kTrap, trap_cause_};
    }
    const u64 vpage = pc_ >> mem::kPageShift;
    struct HitCount {
      mem::Tlb& tlb;
      bool paged;
      u64 later_fetches = 0;
      ~HitCount() {
        if (paged) tlb.count_hits(later_fetches);
      }
    } hits{itlb_, paged};
    for (u64 index = mem::sv39::page_offset(pc_) / 4;;) {
      u32 word = 0;
      std::memcpy(&word, host + 4 * index, sizeof word);
      DecodedEntry& entry = page->entries[index];
      if (entry.inst.raw != word) {
        entry.inst = isa::decode(word);
        entry.handler = handler_of(entry.inst.op);
      }
      const Flow flow = entry.handler(*this, entry.inst);
      if (flow == Flow::kTrap) {
        pc_ = next_pc_;
        return StepResult{StepKind::kTrap, trap_cause_};
      }
      ++instret_;
      --max_steps;
      if (flow == Flow::kNext) {
        pc_ += 4;
        if (++index == kPageWords) break;
      } else {
        pc_ = next_pc_;
        if (flow == Flow::kEnd || pc_ >> mem::kPageShift != vpage ||
            (pc_ & 3) != 0) {
          break;
        }
        index = mem::sv39::page_offset(pc_) / 4;
      }
      if (max_steps == 0) break;
      cycles_ += base_cycles;
      ++hits.later_fetches;
    }
  }
  return std::nullopt;
}

// Whether `op` ends a block: it may leave the straight line (branches,
// jumps, traps, sret), or change what the code-page key depends on (CSR
// writes such as satp, sfence.vma), or is a fence, a custom-0 instruction
// or an illegal word.
constexpr bool ends_block(Op op) {
  switch (op) {
    case Op::kJal:
    case Op::kJalr:
    case Op::kFence:
    case Op::kFenceI:
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kSret:
    case Op::kWfi:
    case Op::kSfenceVma:
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
    case Op::kIllegal:
      return true;
    default:
      return isa::is_branch(op) || isa::is_custom0(op);
  }
}

// The handler for one op: the switch folds to the single case of kOp.
template <Op kOp>
[[gnu::always_inline]] inline Hart::Flow Hart::exec(const Inst& inst) {
  constexpr bool kJumps =
      isa::is_branch(kOp) || kOp == Op::kJal || kOp == Op::kJalr;
  constexpr Flow kDone = kJumps            ? Flow::kJump
                         : ends_block(kOp) ? Flow::kEnd
                                           : Flow::kNext;
  if constexpr (ends_block(kOp)) next_pc_ = pc_ + 4;
  const u64 rs1 = regs_[inst.rs1];
  const u64 rs2 = regs_[inst.rs2];
  const auto& t = config_.timing;
  u64 value = 0;
  switch (kOp) {
    // --- upper immediate / control flow -----------------------------------
    case Op::kLui:
      write_rd(inst.rd, static_cast<u64>(inst.imm));
      break;
    case Op::kAuipc:
      write_rd(inst.rd, pc_ + static_cast<u64>(inst.imm));
      break;
    case Op::kJal:
      if (inst.rd == isa::ra) ++stats_.calls;
      write_rd(inst.rd, pc_ + 4);
      next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kJalr: {
      if (inst.rd == isa::ra) ++stats_.calls;
      const u64 target = (rs1 + static_cast<u64>(inst.imm)) & ~u64{1};
      write_rd(inst.rd, pc_ + 4);
      next_pc_ = target;
      break;
    }
    case Op::kBeq:
      if (rs1 == rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBne:
      if (rs1 != rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBlt:
      if (static_cast<i64>(rs1) < static_cast<i64>(rs2))
        next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBge:
      if (static_cast<i64>(rs1) >= static_cast<i64>(rs2))
        next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBltu:
      if (rs1 < rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;
    case Op::kBgeu:
      if (rs1 >= rs2) next_pc_ = pc_ + static_cast<u64>(inst.imm);
      break;

    // --- loads / stores -----------------------------------------------------
    case Op::kLb:
      if (!mem_load<1>(rs1 + inst.imm, true, &value)) return Flow::kTrap;
      write_rd(inst.rd, value);
      break;
    case Op::kLh:
      if (!mem_load<2>(rs1 + inst.imm, true, &value)) return Flow::kTrap;
      write_rd(inst.rd, value);
      break;
    case Op::kLw:
      if (!mem_load<4>(rs1 + inst.imm, true, &value)) return Flow::kTrap;
      write_rd(inst.rd, value);
      break;
    case Op::kLd:
      if (!mem_load<8>(rs1 + inst.imm, true, &value)) return Flow::kTrap;
      write_rd(inst.rd, value);
      break;
    case Op::kLbu:
      if (!mem_load<1>(rs1 + inst.imm, false, &value)) return Flow::kTrap;
      write_rd(inst.rd, value);
      break;
    case Op::kLhu:
      if (!mem_load<2>(rs1 + inst.imm, false, &value)) return Flow::kTrap;
      write_rd(inst.rd, value);
      break;
    case Op::kLwu:
      if (!mem_load<4>(rs1 + inst.imm, false, &value)) return Flow::kTrap;
      write_rd(inst.rd, value);
      break;
    case Op::kSb:
      if (!mem_store<1>(rs1 + inst.imm, rs2)) return Flow::kTrap;
      break;
    case Op::kSh:
      if (!mem_store<2>(rs1 + inst.imm, rs2)) return Flow::kTrap;
      break;
    case Op::kSw:
      if (!mem_store<4>(rs1 + inst.imm, rs2)) return Flow::kTrap;
      break;
    case Op::kSd:
      if (!mem_store<8>(rs1 + inst.imm, rs2)) return Flow::kTrap;
      break;

    // --- integer ALU --------------------------------------------------------
    case Op::kAddi: write_rd(inst.rd, rs1 + inst.imm); break;
    case Op::kSlti:
      write_rd(inst.rd, static_cast<i64>(rs1) < inst.imm ? 1 : 0);
      break;
    case Op::kSltiu:
      write_rd(inst.rd, rs1 < static_cast<u64>(inst.imm) ? 1 : 0);
      break;
    case Op::kXori: write_rd(inst.rd, rs1 ^ static_cast<u64>(inst.imm)); break;
    case Op::kOri: write_rd(inst.rd, rs1 | static_cast<u64>(inst.imm)); break;
    case Op::kAndi: write_rd(inst.rd, rs1 & static_cast<u64>(inst.imm)); break;
    case Op::kSlli: write_rd(inst.rd, rs1 << inst.imm); break;
    case Op::kSrli: write_rd(inst.rd, rs1 >> inst.imm); break;
    case Op::kSrai:
      write_rd(inst.rd, static_cast<u64>(static_cast<i64>(rs1) >> inst.imm));
      break;
    case Op::kAddiw:
      write_rd(inst.rd, static_cast<u64>(sext(rs1 + inst.imm, 32)));
      break;
    case Op::kSlliw:
      write_rd(inst.rd, static_cast<u64>(sext(rs1 << inst.imm, 32)));
      break;
    case Op::kSrliw:
      write_rd(inst.rd,
              static_cast<u64>(sext(zext(rs1, 32) >> inst.imm, 32)));
      break;
    case Op::kSraiw:
      write_rd(inst.rd, static_cast<u64>(
                           static_cast<i64>(sext(rs1, 32)) >> inst.imm));
      break;
    case Op::kAdd: write_rd(inst.rd, rs1 + rs2); break;
    case Op::kSub: write_rd(inst.rd, rs1 - rs2); break;
    case Op::kSll: write_rd(inst.rd, rs1 << (rs2 & 63)); break;
    case Op::kSlt:
      write_rd(inst.rd,
              static_cast<i64>(rs1) < static_cast<i64>(rs2) ? 1 : 0);
      break;
    case Op::kSltu: write_rd(inst.rd, rs1 < rs2 ? 1 : 0); break;
    case Op::kXor: write_rd(inst.rd, rs1 ^ rs2); break;
    case Op::kSrl: write_rd(inst.rd, rs1 >> (rs2 & 63)); break;
    case Op::kSra:
      write_rd(inst.rd,
              static_cast<u64>(static_cast<i64>(rs1) >> (rs2 & 63)));
      break;
    case Op::kOr: write_rd(inst.rd, rs1 | rs2); break;
    case Op::kAnd: write_rd(inst.rd, rs1 & rs2); break;
    case Op::kAddw:
      write_rd(inst.rd, static_cast<u64>(sext(rs1 + rs2, 32)));
      break;
    case Op::kSubw:
      write_rd(inst.rd, static_cast<u64>(sext(rs1 - rs2, 32)));
      break;
    case Op::kSllw:
      write_rd(inst.rd, static_cast<u64>(sext(rs1 << (rs2 & 31), 32)));
      break;
    case Op::kSrlw:
      write_rd(inst.rd,
              static_cast<u64>(sext(zext(rs1, 32) >> (rs2 & 31), 32)));
      break;
    case Op::kSraw:
      write_rd(inst.rd, static_cast<u64>(static_cast<i64>(sext(rs1, 32)) >>
                                        (rs2 & 31)));
      break;

    // --- M extension ----------------------------------------------------------
    case Op::kMul:
      cycles_ += t.mul_cycles;
      write_rd(inst.rd, rs1 * rs2);
      break;
    case Op::kMulh: {
      cycles_ += t.mul_cycles;
      const __int128 prod = static_cast<__int128>(static_cast<i64>(rs1)) *
                            static_cast<__int128>(static_cast<i64>(rs2));
      write_rd(inst.rd, static_cast<u64>(prod >> 64));
      break;
    }
    case Op::kMulhsu: {
      cycles_ += t.mul_cycles;
      const __int128 prod = static_cast<__int128>(static_cast<i64>(rs1)) *
                            static_cast<__int128>(rs2);
      write_rd(inst.rd, static_cast<u64>(prod >> 64));
      break;
    }
    case Op::kMulhu: {
      cycles_ += t.mul_cycles;
      const unsigned __int128 prod = static_cast<unsigned __int128>(rs1) *
                                     static_cast<unsigned __int128>(rs2);
      write_rd(inst.rd, static_cast<u64>(prod >> 64));
      break;
    }
    case Op::kDiv: {
      cycles_ += t.div_cycles;
      const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
      if (b == 0) {
        write_rd(inst.rd, ~u64{0});
      } else if (a == INT64_MIN && b == -1) {
        write_rd(inst.rd, static_cast<u64>(INT64_MIN));
      } else {
        write_rd(inst.rd, static_cast<u64>(a / b));
      }
      break;
    }
    case Op::kDivu:
      cycles_ += t.div_cycles;
      write_rd(inst.rd, rs2 == 0 ? ~u64{0} : rs1 / rs2);
      break;
    case Op::kRem: {
      cycles_ += t.div_cycles;
      const i64 a = static_cast<i64>(rs1), b = static_cast<i64>(rs2);
      if (b == 0) {
        write_rd(inst.rd, rs1);
      } else if (a == INT64_MIN && b == -1) {
        write_rd(inst.rd, 0);
      } else {
        write_rd(inst.rd, static_cast<u64>(a % b));
      }
      break;
    }
    case Op::kRemu:
      cycles_ += t.div_cycles;
      write_rd(inst.rd, rs2 == 0 ? rs1 : rs1 % rs2);
      break;
    case Op::kMulw:
      cycles_ += t.mul_cycles;
      write_rd(inst.rd, static_cast<u64>(sext(rs1 * rs2, 32)));
      break;
    case Op::kDivw: {
      cycles_ += t.div_cycles;
      const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
      i32 q;
      if (b == 0) {
        q = -1;
      } else if (a == INT32_MIN && b == -1) {
        q = INT32_MIN;
      } else {
        q = a / b;
      }
      write_rd(inst.rd, static_cast<u64>(static_cast<i64>(q)));
      break;
    }
    case Op::kDivuw: {
      cycles_ += t.div_cycles;
      const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
      const u32 q = b == 0 ? ~u32{0} : a / b;
      write_rd(inst.rd, static_cast<u64>(sext(q, 32)));
      break;
    }
    case Op::kRemw: {
      cycles_ += t.div_cycles;
      const i32 a = static_cast<i32>(rs1), b = static_cast<i32>(rs2);
      i32 r;
      if (b == 0) {
        r = a;
      } else if (a == INT32_MIN && b == -1) {
        r = 0;
      } else {
        r = a % b;
      }
      write_rd(inst.rd, static_cast<u64>(static_cast<i64>(r)));
      break;
    }
    case Op::kRemuw: {
      cycles_ += t.div_cycles;
      const u32 a = static_cast<u32>(rs1), b = static_cast<u32>(rs2);
      const u32 r = b == 0 ? a : a % b;
      write_rd(inst.rd, static_cast<u64>(sext(r, 32)));
      break;
    }

    // --- system ---------------------------------------------------------------
    case Op::kFence:
    case Op::kFenceI:
    case Op::kWfi:
      break;
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kSret:
    case Op::kSfenceVma:
      return exec_system(inst) ? kDone : Flow::kTrap;
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci:
      return exec_csr(inst) ? kDone : Flow::kTrap;

    // --- custom-0 ---------------------------------------------------------------
    case Op::kRdpkr:
    case Op::kWrpkr:
    case Op::kSealStart:
    case Op::kSealEnd:
    case Op::kSpkRange:
    case Op::kSpkSeal:
    case Op::kWrpkru:
    case Op::kRdpkru:
      return exec_custom(inst) ? kDone : Flow::kTrap;

    case Op::kIllegal:
      raise(TrapCause::kIllegalInst, inst.raw);
      return Flow::kTrap;
  }
  return kDone;
}

bool Hart::exec_system(const Inst& inst) {
  switch (inst.op) {
    case Op::kEcall:
      raise(priv_ == Priv::kUser ? TrapCause::kEcallFromU
                                 : TrapCause::kEcallFromS,
            0);
      return false;
    case Op::kEbreak:
      raise(TrapCause::kBreakpoint, pc_);
      return false;
    case Op::kSret: {
      if (priv_ != Priv::kSupervisor) {
        raise(TrapCause::kIllegalInst, inst.raw);
        return false;
      }
      next_pc_ = csrs_.sepc;
      priv_ = (csrs_.sstatus & csr::kSstatusSpp) != 0 ? Priv::kSupervisor
                                                      : Priv::kUser;
      csrs_.sstatus &= ~csr::kSstatusSpp;
      cycles_ += config_.timing.trap_return_cycles;
      return true;
    }
    case Op::kSfenceVma: {
      if (priv_ != Priv::kSupervisor) {
        raise(TrapCause::kIllegalInst, inst.raw);
        return false;
      }
      cycles_ += config_.timing.tlb_flush_cycles;
      if (inst.rs1 == 0) {
        flush_tlbs();
      } else {
        // TLB entries are keyed by the VPN width of satp's mode; a bare
        // satp keeps the Sv39 width.
        const unsigned levels = satp_levels(csrs_.satp);
        const u64 vpn = mem::svxx::vpn_of(
            regs_[inst.rs1], levels != 0 ? levels : mem::sv39::kLevels);
        dtlb_.flush_vpn(vpn);
        itlb_.flush_vpn(vpn);
      }
      return true;
    }
    default:
      raise(TrapCause::kIllegalInst, inst.raw);
      return false;
  }
}

bool Hart::exec_csr(const Inst& inst) {
  const u16 addr = inst.csr;
  if (priv_ == Priv::kUser && !CsrFile::user_readable(addr)) {
    raise(TrapCause::kIllegalInst, inst.raw);
    return false;
  }
  u64 old = 0;
  if (!csrs_.read(addr, cycles_, instret_, &old)) {
    raise(TrapCause::kIllegalInst, inst.raw);
    return false;
  }
  const bool is_imm = inst.op == Op::kCsrrwi || inst.op == Op::kCsrrsi ||
                      inst.op == Op::kCsrrci;
  const u64 operand = is_imm ? static_cast<u64>(inst.imm) : regs_[inst.rs1];
  u64 next = old;
  bool do_write = true;
  switch (inst.op) {
    case Op::kCsrrw:
    case Op::kCsrrwi:
      next = operand;
      break;
    case Op::kCsrrs:
    case Op::kCsrrsi:
      next = old | operand;
      do_write = is_imm ? inst.imm != 0 : inst.rs1 != 0;
      break;
    case Op::kCsrrc:
    case Op::kCsrrci:
      next = old & ~operand;
      do_write = is_imm ? inst.imm != 0 : inst.rs1 != 0;
      break;
    default:
      SEALPK_CHECK(false);
  }
  if (do_write && !csrs_.write(addr, next)) {
    raise(TrapCause::kIllegalInst, inst.raw);
    return false;
  }
  write_rd(inst.rd, old);
  return true;
}

bool Hart::exec_custom(const Inst& inst) {
  const auto& t = config_.timing;
  const bool sealpk = config_.flavor == IsaFlavor::kSealPk;
  switch (inst.op) {
    case Op::kRdpkr: {
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      ++stats_.rdpkr_count;
      const u32 pkey = static_cast<u32>(regs_[inst.rs1]) & (hw::kNumPkeys - 1);
      const u64 row_value = pkr_.read_row(hw::pkr_row_of(pkey));
      write_rd(inst.rd, row_value);
      if (recorder_ != nullptr) {
        recorder_->emit(obs::EventKind::kRdpkr, instret_, cycles_, pkey,
                        row_value, 0);
      }
      return true;
    }
    case Op::kWrpkr: {
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      const u32 pkey = static_cast<u32>(regs_[inst.rs1]) & (hw::kNumPkeys - 1);
      const hw::SealCheck check = seal_unit_.check_wrpkr(pkey, pc_);
      if (check == hw::SealCheck::kViolation) {
        raise(TrapCause::kSealViolation, pkey);
        return false;
      }
      if (check == hw::SealCheck::kMiss) {
        raise(TrapCause::kPkCamMiss, pkey);
        return false;
      }
      ++stats_.wrpkr_count;
      const u32 row = hw::pkr_row_of(pkey);
      u64 next = regs_[inst.rs2];
      // A row holds 32 keys. Hardware preserves the 2-bit fields of *other*
      // sealed keys in the row — otherwise a WRPKR naming an unsealed
      // neighbour could clobber a sealed key's permissions (a gap the paper
      // does not address; see DESIGN.md).
      const u64 old = pkr_.peek_row(row);
      next = hw::merge_sealed_row(seal_unit_, old, next, row, pkey);
      pkr_.write_row(row, next);
      if (pkr_write_hook_) pkr_write_hook_(row, next);
      if (recorder_ != nullptr) {
        recorder_->emit(obs::EventKind::kWrpkr, instret_, cycles_, pkey,
                        old, next);
      }
      return true;
    }
    case Op::kSealStart:
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      csrs_.seal_start = pc_;
      return true;
    case Op::kSealEnd:
      if (!sealpk) break;
      cycles_ += t.rocc_cycles;
      csrs_.seal_end = pc_;
      return true;
    case Op::kSpkRange:
      if (!sealpk || priv_ != Priv::kSupervisor) break;
      cycles_ += t.rocc_cycles;
      csrs_.seal_start = regs_[inst.rs1];
      csrs_.seal_end = regs_[inst.rs2];
      return true;
    case Op::kSpkSeal: {
      if (!sealpk || priv_ != Priv::kSupervisor) break;
      cycles_ += t.rocc_cycles;
      const u32 pkey = static_cast<u32>(regs_[inst.rs1]) & (hw::kNumPkeys - 1);
      if (csrs_.seal_start > csrs_.seal_end || seal_unit_.sealed(pkey)) {
        break;  // malformed range or double-seal: illegal instruction
      }
      seal_unit_.set_sealed(pkey);
      seal_unit_.refill(pkey, csrs_.seal_start, csrs_.seal_end);
      return true;
    }
    case Op::kWrpkru:
      if (sealpk) break;
      cycles_ += t.rocc_cycles;
      ++stats_.wrpkru_count;
      pkru_.set(static_cast<u32>(regs_[inst.rs1]));
      return true;
    case Op::kRdpkru:
      if (sealpk) break;
      cycles_ += t.rocc_cycles;
      write_rd(inst.rd, pkru_.value());
      return true;
    default:
      break;
  }
  raise(TrapCause::kIllegalInst, inst.raw);
  return false;
}

}  // namespace sealpk::core
