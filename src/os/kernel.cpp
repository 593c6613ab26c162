#include "os/kernel.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "mpk/key_manager.h"

namespace sealpk::os {

namespace {
// Magic supervisor entry address (stvec). No guest code lives there: the
// host run loop takes over whenever the hart lands in S-mode.
constexpr u64 kStvec = 0x1000;
constexpr u64 kStackTop = 0x3F'FFFF'F000;
constexpr u64 kMaxWriteLen = 1 << 20;
}  // namespace

Kernel::Kernel(core::Hart& hart, KernelConfig config)
    : hart_(hart),
      config_(config),
      frames_(kReservedBytes, hart.mem().size() - kReservedBytes) {
  hart_.csrs().stvec = kStvec;
  hart_.set_priv(core::Priv::kSupervisor);
  // Keep a live per-thread software shadow of the PKR: every user-mode
  // WRPKR is mirrored into the running thread's saved context, so a
  // corrupted SRAM row can always be scrubbed back from software.
  hart_.set_pkr_write_hook([this](u32 row, u64 value) {
    if (has_current_thread()) thread(current_tid_).ctx.pkr[row] = value;
  });
}

void Kernel::emit(obs::EventKind kind, u32 pkey, u64 arg0, u64 arg1) {
  if (recorder_ == nullptr) return;
  recorder_->emit(kind, hart_.instret(), hart_.cycles(), pkey, arg0, arg1);
}

std::unique_ptr<KeyManager> Kernel::make_key_manager() const {
  if (hart_.config().flavor != core::IsaFlavor::kSealPk) {
    return std::make_unique<mpk::MpkKeyManager>();
  }
  return std::make_unique<SealPkKeyManager>();
}

void Kernel::LivePkr::set_perm(u32 pkey, u8 perm) {
  if (k.hart_.config().flavor != core::IsaFlavor::kSealPk) {
    k.hart_.pkru().set_perm(pkey, (perm & 0b01) != 0, (perm & 0b10) != 0);
    return;
  }
  k.hart_.pkr().set_perm(pkey, perm);
  // Mirror the kernel-path write into the running thread's PKR shadow so
  // the shadow stays a faithful scrub source.
  if (k.has_current_thread()) {
    hw::Pkr::set_perm_in(k.thread(k.current_tid_).ctx.pkr, pkey, perm);
  }
}

void Kernel::SavedPkr::set_perm(u32 pkey, u8 perm) {
  for (const int tid : proc.thread_tids) {
    hw::Pkr::set_perm_in(k.thread(tid).ctx.pkr, pkey, perm);
  }
}

void Kernel::drain_key(int pid, u32 pkey) {
  Process& proc = process(pid);
  if (has_current_thread() && thread(current_tid_).pid == pid) {
    pkeys().drain(pkey);
  } else {
    hw::SealUnit seal;
    seal.restore(proc.seal_hw);
    SavedPkr saved{*this, proc};
    PkeyOps(*proc.keys, saved, seal).drain(pkey);
    proc.seal_hw = seal.save();
  }
  emit(obs::EventKind::kPkeyLazyDrain, pkey, 0, 0);
}

PkeyPageDelta Kernel::page_delta_hook() {
  return [this, ops = pkeys()](u32 pkey, i64 pages) {
    if (ops.count_pages(pkey, pages)) {
      emit(obs::EventKind::kPkeyLazyDrain, pkey, 0, 0);
    }
    emit(obs::EventKind::kPkeyPages, pkey, static_cast<u64>(pages),
         ops.keys().page_count(pkey));
  };
}

int Kernel::load_process(const isa::Image& image) {
  admission_error_.clear();
  const int pid = next_pid_;
  auto proc = std::make_unique<Process>();
  proc->pid = pid;
  const unsigned pkey_bits =
      hart_.config().flavor == core::IsaFlavor::kSealPk
          ? mem::pte::kSealPkPkeyBits
          : mem::pte::kMpkPkeyBits;
  proc->aspace = std::make_unique<AddressSpace>(
      hart_.mem(), frames_, pkey_bits,
      config_.sv48 ? mem::sv48::kLevels : mem::sv39::kLevels);
  proc->keys = make_key_manager();

  // Map the image segments with their natural permissions. Any mid-load
  // failure (overlapping/non-canonical segments, frame exhaustion, copy
  // into an unmapped hole) refuses the image instead of escaping as a host
  // error — a hostile or oversized image must not take the machine down.
  const auto refuse = [&](const std::string& reason) {
    admission_error_ = reason;
    // Best-effort unwind: release the data frames of everything mapped so
    // far. Page-table frames follow the same lifetime rule as those of
    // exited processes (held until machine teardown).
    std::vector<std::pair<u64, u64>> mapped;
    for (const auto& [start, vma] : proc->aspace->vmas()) {
      mapped.emplace_back(vma.start, vma.end - vma.start);
    }
    for (const auto& [start, len] : mapped) proc->aspace->unmap(start, len);
    return kLoadRefused;
  };
  const PkeyPageDelta count = [&proc](u32 pkey, i64 pages) {
    proc->keys->page_delta(pkey, pages);  // mapping never drains a key
  };
  for (const auto& seg : image.segments) {
    const u64 start = align_down(seg.addr, mem::kPageSize);
    const u64 end = align_up(seg.addr + seg.bytes.size(), mem::kPageSize);
    u64 prot = prot::kRead;
    if (seg.write) prot |= prot::kWrite;
    if (seg.exec) prot |= prot::kExec;
    const i64 rc =
        proc->aspace->map(start, end - start, prot, /*pkey=*/0, count);
    if (rc < 0) {
      return refuse(rc == err::kNoMem ? "image segment map failed: no memory"
                                      : "image segment map failed");
    }
    if (!proc->aspace->copy_out(seg.addr, seg.bytes.data(),
                                seg.bytes.size())) {
      return refuse("image segment copy failed");
    }
  }

  // Main-thread stack at the top of the user VA range.
  const u64 stack_len = config_.stack_pages * mem::kPageSize;
  const i64 rc = proc->aspace->map(kStackTop - stack_len, stack_len,
                                   prot::kRead | prot::kWrite, 0, count);
  if (rc < 0) {
    return refuse(rc == err::kNoMem ? "stack map failed: no memory"
                                    : "stack map failed");
  }
  ++next_pid_;

  auto main_thread = std::make_unique<Thread>();
  const int tid = next_tid_++;
  main_thread->tid = tid;
  main_thread->pid = pid;
  main_thread->ctx.pc = image.entry;
  main_thread->ctx.regs[isa::sp] = kStackTop - 64;
  proc->thread_tids.push_back(tid);
  proc->seal_hw = hw::SealUnit::Snapshot{};

  processes_.emplace(pid, std::move(proc));
  threads_.emplace(tid, std::move(main_thread));

  if (current_tid_ < 0) {
    restore_context(thread(tid), /*prev_pid=*/-1);
    return_to_user(thread(tid).ctx.pc);
  } else {
    run_queue_.push_back(tid);
  }
  return pid;
}

int Kernel::spawn_thread(int pid, u64 entry, u64 stack_top, u64 arg) {
  Process& proc = process(pid);
  SEALPK_CHECK(!proc.exited);
  auto th = std::make_unique<Thread>();
  const int tid = next_tid_++;
  th->tid = tid;
  th->pid = pid;
  th->ctx.pc = entry;
  th->ctx.regs[isa::sp] = stack_top;
  th->ctx.regs[isa::a0] = arg;
  // The child inherits the spawner's PKR contents (like fork/clone
  // inheriting PKRU on x86).
  if (current_tid_ >= 0 && thread(current_tid_).pid == pid) {
    th->ctx.pkr = hart_.pkr().save();
    th->ctx.pkru = hart_.pkru().value();
  }
  proc.thread_tids.push_back(tid);
  threads_.emplace(tid, std::move(th));
  run_queue_.push_back(tid);
  return tid;
}

Process& Kernel::process(int pid) {
  auto it = processes_.find(pid);
  SEALPK_CHECK_MSG(it != processes_.end(), "unknown pid " << pid);
  return *it->second;
}

const Process& Kernel::process(int pid) const {
  auto it = processes_.find(pid);
  SEALPK_CHECK_MSG(it != processes_.end(), "unknown pid " << pid);
  return *it->second;
}

Thread& Kernel::thread(int tid) {
  auto it = threads_.find(tid);
  SEALPK_CHECK_MSG(it != threads_.end(), "unknown tid " << tid);
  return *it->second;
}

const Thread& Kernel::thread(int tid) const {
  auto it = threads_.find(tid);
  SEALPK_CHECK_MSG(it != threads_.end(), "unknown tid " << tid);
  return *it->second;
}

std::vector<int> Kernel::pids() const {
  std::vector<int> out;
  out.reserve(processes_.size());
  for (const auto& [pid, proc] : processes_) out.push_back(pid);
  return out;
}

bool Kernel::all_exited() const {
  for (const auto& [pid, proc] : processes_) {
    if (!proc->exited) return false;
  }
  return !processes_.empty();
}

size_t Kernel::runnable_threads() const {
  return run_queue_.size() + (current_tid_ >= 0 ? 1 : 0);
}

void Kernel::save_current_context() {
  Thread& cur = thread(current_tid_);
  for (unsigned i = 0; i < 32; ++i) cur.ctx.regs[i] = hart_.reg(i);
  cur.ctx.pkr = hart_.pkr().save();
  cur.ctx.pkru = hart_.pkru().value();
  cur.ctx.seal_start = hart_.csrs().seal_start;
  cur.ctx.seal_end = hart_.csrs().seal_end;
}

void Kernel::restore_context(Thread& next, int prev_pid) {
  const auto& t = hart_.timing();
  hart_.add_cycles(t.context_switch_cycles);
  ++stats_.context_switches;

  if (hart_.config().flavor == core::IsaFlavor::kSealPk) {
    if (config_.save_pkr_on_switch) {
      // 32 rows saved + 32 restored (paper §III-B.2: < 1 % overhead).
      hart_.add_cycles(2 * hw::kPkrRows * t.pkr_row_swap_cycles);
      hart_.pkr().restore(next.ctx.pkr);
    }
  } else {
    hart_.add_cycles(2 * t.pkr_row_swap_cycles);  // single PKRU register
    hart_.pkru().set(next.ctx.pkru);
  }
  for (unsigned i = 0; i < 32; ++i) hart_.set_reg(i, next.ctx.regs[i]);
  hart_.csrs().seal_start = next.ctx.seal_start;
  hart_.csrs().seal_end = next.ctx.seal_end;

  if (next.pid != prev_pid) {
    if (prev_pid >= 0) {
      process(prev_pid).seal_hw = hart_.seal_unit().save();
    }
    Process& proc = process(next.pid);
    hart_.seal_unit().restore(proc.seal_hw);
    hart_.csrs().satp = proc.aspace->satp();
    hart_.flush_tlbs();
    hart_.add_cycles(t.tlb_flush_cycles);
  }
  current_tid_ = next.tid;
  if (recorder_ != nullptr) {
    recorder_->context_switch(hart_.instret(), hart_.cycles(),
                              static_cast<u32>(next.pid),
                              static_cast<u32>(next.tid));
  }
}

// Round-robin handoff from the current thread (which resumes at
// `resume_pc` when rescheduled) to the head of the run queue.
void Kernel::yield_to_next(u64 resume_pc) {
  Thread& cur = thread(current_tid_);
  const int prev_pid = cur.pid;
  save_current_context();
  cur.ctx.pc = resume_pc;
  run_queue_.push_back(current_tid_);
  const int next_tid = run_queue_.front();
  run_queue_.erase(run_queue_.begin());
  restore_context(thread(next_tid), prev_pid);
  return_to_user(thread(next_tid).ctx.pc);
}

void Kernel::return_to_user(u64 pc) {
  hart_.add_cycles(hart_.timing().trap_return_cycles);
  hart_.set_pc(pc);
  hart_.set_priv(core::Priv::kUser);
}

void Kernel::preempt() {
  if (run_queue_.empty() || current_tid_ < 0) return;
  // Timer interrupt: trap entry + schedule + return. The hart is between
  // instructions in U-mode, so the resume point is simply its current PC.
  hart_.add_cycles(hart_.timing().trap_enter_cycles);
  yield_to_next(hart_.pc());
}

void Kernel::handle_trap() {
  const auto cause = static_cast<core::TrapCause>(hart_.csrs().scause);
  switch (cause) {
    case core::TrapCause::kEcallFromU:
      do_syscall();
      return;
    case core::TrapCause::kLoadPageFault:
    case core::TrapCause::kStorePageFault:
    case core::TrapCause::kInstPageFault:
      handle_page_fault(cause);
      return;
    case core::TrapCause::kPkCamMiss:
      handle_cam_miss();
      return;
    case core::TrapCause::kMachineCheck:
      handle_machine_check();
      return;
    case core::TrapCause::kSealViolation:
      ++stats_.seal_violations;
      emit(obs::EventKind::kSealViolation,
           static_cast<u32>(hart_.csrs().stval & 0x3FF),
           hart_.csrs().sepc, 0);
      fatal_fault(cause);
      return;
    default:
      fatal_fault(cause);
      return;
  }
}

void Kernel::handle_page_fault(core::TrapCause cause) {
  ++stats_.page_faults;
  emit(obs::EventKind::kPageFault,
       (hart_.csrs().spkinfo >> 63) != 0
           ? static_cast<u32>(hart_.csrs().spkinfo & 0x3FF)
           : obs::kNoPkey,
       hart_.csrs().stval, static_cast<u64>(cause));
  FaultRecord rec = fault_record(cause);
  // §III-B.2: the fault report is augmented with the pkey when the denial
  // came from the protection key rather than the PTE.
  if (cause != core::TrapCause::kInstPageFault &&
      (hart_.csrs().spkinfo >> 63) != 0) {
    rec.pkey_fault = true;
    rec.pkey = static_cast<u32>(hart_.csrs().spkinfo & 0x3FF);
  }
  hart_.csrs().spkinfo = 0;
  // Before treating the fault as the guest's fault, check whether corrupted
  // hardware state produced it: a PTE disagreeing with its VMA, a stale TLB
  // line, or a flipped PKR row. If repair changed anything, re-execute the
  // access instead of signalling.
  switch (try_fault_recovery(rec)) {
    case Recovery::kRecovered:
      ++stats_.spurious_fault_fixes;
      return_to_user(rec.pc);
      return;
    case Recovery::kKilled:
      return;
    case Recovery::kNone:
      break;
  }
  signal_or_exit(rec, /*deliverable=*/true);
}

void Kernel::fatal_fault(core::TrapCause cause) {
  FaultRecord rec = fault_record(cause);
  // Seal violations are SEGV-class and deliverable like page faults.
  rec.pkey_fault = cause == core::TrapCause::kSealViolation;
  if (rec.pkey_fault) rec.pkey = static_cast<u32>(hart_.csrs().stval & 0x3FF);
  signal_or_exit(rec, /*deliverable=*/rec.pkey_fault);
}

FaultRecord Kernel::fault_record(core::TrapCause cause) {
  hart_.add_cycles(hart_.timing().fault_handler_cycles);
  FaultRecord rec;
  rec.pid = thread(current_tid_).pid;
  rec.tid = current_tid_;
  rec.cause = cause;
  rec.addr = hart_.csrs().stval;
  rec.pc = hart_.csrs().sepc;
  return rec;
}

void Kernel::signal_or_exit(FaultRecord& rec, bool deliverable) {
  const bool delivered = deliverable && deliver_signal(rec);
  faults_.push_back(rec);
  if (!delivered) sys_exit(-static_cast<i64>(rec.cause));
}

// Redirects the faulting thread into its process's registered handler.
// Returns false when there is no handler or the thread double-faulted.
bool Kernel::deliver_signal(FaultRecord& rec) {
  Thread& cur = thread(current_tid_);
  Process& proc = current_process();
  if (proc.signal_handler == 0 || cur.in_signal) return false;
  // Park the interrupted context (registers + the faulting PC).
  for (unsigned i = 0; i < 32; ++i) cur.signal_saved.regs[i] = hart_.reg(i);
  cur.signal_saved.pc = hart_.csrs().sepc;
  cur.in_signal = true;
  rec.delivered = true;
  // Enter the handler: siginfo in a0-a2, fresh red zone under sp, ra = 0
  // so a plain `ret` (instead of sigreturn) double-faults and kills.
  hart_.set_reg(isa::a0, static_cast<u64>(rec.cause));
  hart_.set_reg(isa::a1, rec.addr);
  hart_.set_reg(isa::a2,
                rec.pkey_fault ? ((u64{1} << 63) | rec.pkey) : 0);
  hart_.set_reg(isa::ra, 0);
  hart_.set_reg(isa::sp, align_down(hart_.reg(isa::sp) - 256, 16));
  hart_.add_cycles(hart_.timing().trap_enter_cycles);  // frame setup
  return_to_user(proc.signal_handler);
  return true;
}

void Kernel::sys_sigreturn(u64 skip) {
  Thread& cur = thread(current_tid_);
  if (!cur.in_signal) {
    // sigreturn outside a handler is a guest bug: kill, like Linux would.
    sys_exit(-static_cast<i64>(core::TrapCause::kIllegalInst));
    return;
  }
  cur.in_signal = false;
  for (unsigned i = 0; i < 32; ++i) {
    hart_.set_reg(i, cur.signal_saved.regs[i]);
  }
  return_to_user(cur.signal_saved.pc + (skip != 0 ? 4 : 0));
}

void Kernel::handle_cam_miss() {
  const u32 pkey = static_cast<u32>(hart_.csrs().stval & 0x3FF);
  const auto range = current_keys().perm_seal_range(pkey);
  if (!range.has_value()) {
    // SealReg says sealed but the kernel has no range on file — treat as a
    // violation (cannot legitimately happen through the syscall interface).
    fatal_fault(core::TrapCause::kSealViolation);
    return;
  }
  hart_.add_cycles(hart_.timing().cam_refill_handler_cycles);
  if (config_.cam_refill_drop && config_.cam_refill_drop()) {
    // Injected drop: the handler "loses" the refill; the re-executed WRPKR
    // misses again and retries. A permanent storm is the watchdog's job.
    ++stats_.cam_refills_dropped;
    return_to_user(hart_.csrs().sepc);
    return;
  }
  ++stats_.cam_refills;
  emit(obs::EventKind::kCamRefill, pkey, range->start, range->end);
  pkeys().refill(pkey, *range);
  if (config_.cam_refill_dup && config_.cam_refill_dup()) {
    // Injected duplicate: the entry lands a second time in the FIFO slot,
    // wasting a CAM line until the audit dedups it.
    ++stats_.cam_refills_duplicated;
    hart_.seal_unit().refill_duplicate(pkey, range->start, range->end);
  }
  // Re-execute the faulting WRPKR.
  return_to_user(hart_.csrs().sepc);
}

void Kernel::kill_current(i64 code, KillOrigin origin) {
  if (!has_current_thread()) return;  // nothing to kill: don't count one
  if (origin == KillOrigin::kMachineCheck && config_.machine_check_escalation &&
      config_.machine_check_escalation()) {
    // The machine claimed the failure for snapshot rollback: the process
    // survives, so no kill is counted. Whatever half-handled state the
    // kernel is in right now is irrelevant — the rollback overwrites it.
    return;
  }
  if (origin == KillOrigin::kMachineCheck) {
    ++stats_.machine_check_kills;
  } else {
    ++stats_.watchdog_kills;
  }
  emit(obs::EventKind::kProcessKill, obs::kNoPkey, static_cast<u64>(code),
       static_cast<u64>(origin));
  sys_exit(code);
}

struct Kernel::SyscallArgs {
  u64 a0, a1, a2, a3, resume_pc;
};

namespace {
// The table handler of a service whose parameters take a0, a1, ... in
// order; one with no result (exit, sigreturn) redirected the hart itself.
template <auto fn, typename Args>
std::optional<i64> service(Kernel& k, const Args& a) {
  const u64 regs[] = {a.a0, a.a1, a.a2, a.a3};
  return [&]<typename R, typename... P>(R (Kernel::*)(P...)) {
    return [&]<size_t... I>(std::index_sequence<I...>) -> std::optional<i64> {
      if constexpr (std::is_void_v<R>) {
        (k.*fn)(static_cast<P>(regs[I])...);
        return std::nullopt;
      } else {
        return (k.*fn)(static_cast<P>(regs[I])...);
      }
    }(std::index_sequence_for<P...>{});
  }(fn);
}
}  // namespace

// Every served syscall, at its number; any other number is ENOSYS.
constinit const std::array<Kernel::SyscallHandler, sys::kTableSize>
    Kernel::kSyscalls = [] {
      using Args = const SyscallArgs&;
      using Ret = std::optional<i64>;
      std::array<SyscallHandler, sys::kTableSize> t{};
      t[sys::kWrite] = service<&Kernel::sys_write>;
      t[sys::kExit] = service<&Kernel::sys_exit>;
      t[sys::kSchedYield] = [](Kernel& k, Args a) -> Ret {
        if (k.run_queue_.empty()) return 0;
        k.hart_.set_reg(isa::a0, 0);
        k.yield_to_next(a.resume_pc);
        return std::nullopt;
      };
      t[sys::kSigaction] = [](Kernel& k, Args a) -> Ret {
        k.current_process().signal_handler = a.a0;
        return 0;
      };
      t[sys::kSigreturn] = service<&Kernel::sys_sigreturn>;
      t[sys::kGetTid] = [](Kernel& k, Args) -> Ret { return k.current_tid_; };
      t[sys::kMunmap] = service<&Kernel::sys_munmap>;
      t[sys::kClone] = service<&Kernel::sys_clone>;
      t[sys::kMmap] = service<&Kernel::sys_mmap>;
      t[sys::kMprotect] = service<&Kernel::sys_mprotect>;
      t[sys::kPkeyMprotect] = service<&Kernel::sys_pkey_mprotect>;
      t[sys::kPkeyAlloc] = service<&Kernel::sys_pkey_alloc>;
      t[sys::kPkeyFree] = service<&Kernel::sys_pkey_free>;
      t[sys::kPkeySeal] = service<&Kernel::sys_pkey_seal>;
      t[sys::kPkeyPermSeal] = service<&Kernel::sys_pkey_perm_seal>;
      t[sys::kReport] = [](Kernel& k, Args a) -> Ret {
        k.reports_.push_back(a.a0);
        return 0;
      };
      t[sys::kMark] = service<&Kernel::record_mark>;
      t[sys::kVaultSeal] = [](Kernel& k, Args a) -> Ret {
        return k.sys_vault_commit(a.a0, a.a1, /*reseal=*/false);
      };
      t[sys::kVaultUnseal] = service<&Kernel::sys_vault_unseal>;
      t[sys::kVaultReseal] = [](Kernel& k, Args a) -> Ret {
        return k.sys_vault_commit(a.a0, a.a1, /*reseal=*/true);
      };
      t[sys::kVpkeyAlloc] = service<&Kernel::sys_vpkey_alloc>;
      t[sys::kVpkeyFree] = service<&Kernel::sys_vpkey_free>;
      t[sys::kVpkeyMprotect] = service<&Kernel::sys_vpkey_mprotect>;
      t[sys::kVpkeySet] = service<&Kernel::sys_vpkey_set>;
      return t;
    }();

void Kernel::do_syscall() {
  ++stats_.syscalls;
  const u64 nr = hart_.reg(isa::a7);
  emit(obs::EventKind::kSyscall, obs::kNoPkey, nr, 0);
  ++stats_.syscall_counts[nr];
  hart_.add_cycles(hart_.timing().syscall_dispatch_cycles);
  const u64 a0 = hart_.reg(isa::a0);
  const u64 a1 = hart_.reg(isa::a1);
  const u64 a2 = hart_.reg(isa::a2);
  const u64 a3 = hart_.reg(isa::a3);
  const u64 resume_pc = hart_.csrs().sepc + 4;

  const std::optional<i64> ret =
      sys::served(nr) ? kSyscalls[nr](*this, {a0, a1, a2, a3, resume_pc})
                      : err::kNoSys;
  if (!ret.has_value()) return;  // the handler redirected the hart
  hart_.set_reg(isa::a0, static_cast<u64>(*ret));
  return_to_user(resume_pc);
}

bool sys::served(u64 nr) {
  return nr < Kernel::kSyscalls.size() && Kernel::kSyscalls[nr] != nullptr;
}

i64 Kernel::sys_write(u64 fd, u64 buf, u64 len) {
  if (fd != 1 && fd != 2) return -9;  // EBADF
  if (len > kMaxWriteLen) return err::kInval;
  // The console is world-readable output: refuse to copy from any page the
  // caller's own live PKR cannot read. Without this check write(2) is an
  // exfiltration channel out of read-disabled (e.g. vault) domains — the
  // kernel would read bytes on the guest's behalf that the guest's loads
  // would fault on.
  if (len > 0 && hart_.config().flavor == core::IsaFlavor::kSealPk) {
    const u64 first = align_down(buf, mem::kPageSize);
    for (u64 page = first; page < buf + len; page += mem::kPageSize) {
      const std::optional<u32> pkey = current_aspace().page_pkey(page);
      if (pkey.has_value() && *pkey != 0 &&
          (hart_.pkr().peek_perm(*pkey) & 0b10) != 0) {
        return err::kAcces;
      }
    }
  }
  std::vector<u8> bytes(len);
  if (!current_aspace().copy_in(buf, bytes.data(), len)) return err::kFault;
  console_.append(reinterpret_cast<const char*>(bytes.data()), len);
  hart_.add_cycles(len);  // copy_{from}_user cost
  return static_cast<i64>(len);
}

i64 Kernel::record_mark(u64 kind, u64 arg0, u64 arg1, u32 pkey) {
  MarkRecord m;
  m.kind = kind;
  m.arg0 = arg0;
  m.arg1 = arg1;
  m.pkey = pkey;
  m.tid = current_tid_;
  m.instret = hart_.instret();
  m.cycles = hart_.cycles();
  marks_.push_back(m);
  obs::EventKind ek;
  switch (kind) {
    case mark::kGateEnter: ek = obs::EventKind::kGateEnter; break;
    case mark::kGateExit: ek = obs::EventKind::kGateExit; break;
    case mark::kDisposition: ek = obs::EventKind::kRequestDisposition; break;
    case mark::kQuarantine: ek = obs::EventKind::kQuarantine; break;
    case mark::kVaultIntent: ek = obs::EventKind::kVaultIntent; break;
    case mark::kVaultCommit: ek = obs::EventKind::kVaultCommit; break;
    case mark::kVaultUnseal: ek = obs::EventKind::kVaultUnseal; break;
    case mark::kVaultDenied: ek = obs::EventKind::kVaultDenied; break;
    default: return err::kInval;
  }
  emit(ek, pkey, arg0, arg1);
  return 0;
}

// addr == 0 lets the kernel pick from the mmap region; a non-zero addr is
// honoured exactly (MAP_FIXED-style) or fails with EINVAL on overlap.
i64 Kernel::sys_mmap(u64 addr, u64 len, u64 prot) {
  const auto& t = hart_.timing();
  const i64 rc = current_aspace().map(addr, len, prot, 0, page_delta_hook());
  if (rc >= 0) {
    const u64 pages = align_up(len, mem::kPageSize) >> mem::kPageShift;
    hart_.add_cycles(t.vma_lookup_cycles + pages * t.pte_update_cycles);
    stats_.pte_pages_updated += pages;
  }
  return rc;
}

i64 Kernel::sys_munmap(u64 addr, u64 len) {
  const auto& t = hart_.timing();
  const i64 rc = current_aspace().unmap(addr, len, page_delta_hook());
  if (rc >= 0) {
    const u64 pages = align_up(len, mem::kPageSize) >> mem::kPageShift;
    hart_.add_cycles(t.vma_lookup_cycles + pages * t.pte_update_cycles +
                     t.tlb_flush_cycles);
    hart_.flush_tlbs();
  }
  return rc;
}

i64 Kernel::sys_mprotect(u64 addr, u64 len, u64 prot) {
  const auto& t = hart_.timing();
  const i64 pages =
      current_aspace().protect(addr, len, prot, &current_keys());
  hart_.add_cycles(t.vma_lookup_cycles);
  if (pages >= 0) {
    hart_.add_cycles(static_cast<u64>(pages) * t.pte_update_cycles +
                     t.tlb_flush_cycles +
                     current_aspace().pages_mapped() *
                         t.mprotect_rss_cycles_per_page);
    stats_.pte_pages_updated += static_cast<u64>(pages);
    hart_.flush_tlbs();
    return 0;
  }
  return pages;
}

i64 Kernel::sys_clone(u64 entry, u64 stack_top, u64 arg) {
  if (entry == 0 || stack_top == 0) return err::kInval;
  return spawn_thread(thread(current_tid_).pid, entry, stack_top, arg);
}

void Kernel::sys_exit(i64 code) {
  Thread& cur = thread(current_tid_);
  Process& proc = process(cur.pid);
  emit(obs::EventKind::kProcessExit, obs::kNoPkey, static_cast<u64>(code),
       static_cast<u64>(cur.pid));
  proc.exited = true;
  proc.exit_code = code;
  for (const int tid : proc.thread_tids) thread(tid).exited = true;
  run_queue_.erase(
      std::remove_if(run_queue_.begin(), run_queue_.end(),
                     [this](int tid) { return thread(tid).exited; }),
      run_queue_.end());
  const int prev_pid = cur.pid;
  current_tid_ = -1;
  if (!run_queue_.empty()) {
    const int next_tid = run_queue_.front();
    run_queue_.erase(run_queue_.begin());
    restore_context(thread(next_tid), prev_pid);
    return_to_user(thread(next_tid).ctx.pc);
  }
}

// --- snapshot serialization --------------------------------------------------

namespace {

template <typename Io, typename Self>
void context_fields(Io& io, Self& ctx) {
  io.fields(ctx.regs, ctx.pc, ctx.pkr, ctx.pkru, ctx.seal_start,
            ctx.seal_end);
}

// Smallest encodings, for the decoder's count checks: a process (pid,
// handler, the address space's fixed fields), a thread (tid, pid, two
// contexts, two flags), and a fault record.
constexpr u64 kContextBytes = 32 * 8 + 8 + hw::kPkrRows * 8 + 4 + 8 + 8;
constexpr u64 kProcessBytes = 4 + 8 + 4 + 4 + 8 + 8 + 8 + 8;
constexpr u64 kThreadBytes = 4 + 4 + 2 * kContextBytes + 2;
constexpr u64 kFaultBytes = 4 + 4 + 1 + 8 + 8 + 1 + 4 + 1;

}  // namespace

template <typename Io, typename Self>
void Kernel::state_fields(Io& io, Self& k) {
  // std::map iteration order makes the stream canonical.
  io.keyed(k.processes_, kProcessBytes, [&](auto& pid, auto& proc) {
    io.field(as<u32>(pid));
    if constexpr (Io::kLoading) {
      proc = std::make_unique<Process>();
      proc->pid = pid;
      proc->keys = k.make_key_manager();
    }
    io.field(proc->signal_handler);
    if constexpr (Io::kLoading) {
      proc->aspace =
          std::make_unique<AddressSpace>(k.hart_.mem(), k.frames_, io);
    } else {
      proc->aspace->save_state(io);
    }
    state_io(io, *proc->keys);
    hw::SealUnit::snapshot_fields(io, proc->seal_hw);
    io.seq(proc->thread_tids, sizeof(u32),
           [&](auto& tid) { io.field(as<u32>(tid)); });
    io.fields(proc->exited, proc->exit_code);
  });
  io.keyed(k.threads_, kThreadBytes, [&](auto& tid, auto& th) {
    io.field(as<u32>(tid));
    if constexpr (Io::kLoading) {
      th = std::make_unique<Thread>();
      th->tid = tid;
    }
    io.field(as<u32>(th->pid));
    context_fields(io, th->ctx);
    io.fields(th->exited, th->in_signal);
    context_fields(io, th->signal_saved);
  });

  io.seq(k.run_queue_, sizeof(u32),
         [&](auto& tid) { io.field(as<u32>(tid)); });
  io.fields(as<i64>(k.current_tid_), as<i64>(k.next_pid_),
            as<i64>(k.next_tid_));
  state_io(io, k.frames_);
  io.field(k.admission_error_);
  io.seq(k.faults_, kFaultBytes, [&](auto& rec) {
    io.fields(as<u32>(rec.pid), as<u32>(rec.tid), as<u8>(rec.cause),
              rec.addr, rec.pc, rec.pkey_fault, rec.pkey, rec.delivered);
  });
  io.field(k.console_);
  io.seq(k.reports_, sizeof(u64));
  io.seq(k.host_errors_, sizeof(u64));  // length prefixes

  auto& st = k.stats_;
  io.fields(st.syscalls, st.context_switches, st.cam_refills,
            st.page_faults, st.seal_violations, st.pte_pages_updated);
  io.keyed(st.syscall_counts, 2 * sizeof(u64),
           [&](auto& nr, auto& count) { io.fields(nr, count); });
  io.fields(st.cam_refills_dropped, st.cam_refills_duplicated,
            st.pkr_scrubs, st.tlb_flush_recoveries, st.pte_repairs,
            st.key_counter_repairs, st.run_queue_scrubs, st.cam_dedups,
            st.spurious_fault_fixes, st.machine_checks,
            st.machine_check_kills, st.watchdog_kills, st.audit_runs,
            st.audit_findings, st.host_errors_contained);
}

void Kernel::save_state(ByteWriter& w) const { state_fields(w, *this); }

void Kernel::load_state(ByteReader& r) {
  stats_ = {};  // vkey_repairs does not travel: a resumed run recounts it
  state_fields(r, *this);
}

// One VKEY record: a pid and, if that process virtualizes, its table.
template <typename Io, typename Pid, typename Table>
void vkey_record(Io& io, Pid& pid, Table& table) {
  io.field(as<u32>(pid));
  bool has_table = table != nullptr;
  io.field(has_table);
  if (!has_table) return;
  if constexpr (Io::kLoading) table = std::make_unique<mpk::VkeyTable>();
  state_io(io, *table);
}

void Kernel::save_vkey_state(ByteWriter& w) const {
  w.put_u64(processes_.size());
  for (const auto& [pid, proc] : processes_) vkey_record(w, pid, proc->vkeys);
}

// Each record names a process KERN already restored, and a table in it is
// attached to that process.
void Kernel::load_vkey_state(ByteReader& r) {
  const u64 n = r.get_count(sizeof(u32) + 1);
  for (u64 i = 0; i < n; ++i) {
    int pid = 0;
    std::unique_ptr<mpk::VkeyTable> table;
    vkey_record(r, pid, table);
    if (table) process(pid).vkeys = std::move(table);
  }
}

}  // namespace sealpk::os
