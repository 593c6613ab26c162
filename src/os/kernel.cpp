#include "os/kernel.h"

#include <algorithm>

#include "mpk/key_manager.h"
#include "vault/format.h"

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

void Kernel::install_drained_hook(SealPkKeyManager& keys, int pid) {
  keys.set_drained_hook([this, pid](u32 pkey) {
    // The key fully drained: dissolve its hardware seal state so a future
    // owner starts fresh.
    auto it = processes_.find(pid);
    if (it == processes_.end()) return;
    if (current_tid_ >= 0 && thread(current_tid_).pid == pid) {
      hart_.seal_unit().clear_key(pkey);
    }
    set_hw_pkey_perm(pkey, 0);
    emit(obs::EventKind::kPkeyLazyDrain, pkey, 0, 0);
  });
}

std::unique_ptr<KeyManager> Kernel::make_key_manager(int pid) {
  if (hart_.config().flavor != core::IsaFlavor::kSealPk) {
    return std::make_unique<mpk::MpkKeyManager>();
  }
  auto keys = std::make_unique<SealPkKeyManager>();
  install_drained_hook(*keys, pid);
  return keys;
}

PkeyPageDelta Kernel::page_delta_hook() {
  KeyManager* keys = &current_keys();
  if (recorder_ == nullptr) {
    return [keys](u32 pkey, i64 pages) { keys->page_delta(pkey, pages); };
  }
  return [this, keys](u32 pkey, i64 pages) {
    keys->page_delta(pkey, pages);
    emit(obs::EventKind::kPkeyPages, pkey, static_cast<u64>(pages),
         keys->page_count(pkey));
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
  proc->keys = make_key_manager(pid);

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
  for (const auto& seg : image.segments) {
    const u64 start = align_down(seg.addr, mem::kPageSize);
    const u64 end = align_up(seg.addr + seg.bytes.size(), mem::kPageSize);
    u64 prot = prot::kRead;
    if (seg.write) prot |= prot::kWrite;
    if (seg.exec) prot |= prot::kExec;
    const i64 rc = proc->aspace->map(
        start, end - start, prot, /*pkey=*/0,
        [&proc](u32 pkey, i64 pages) { proc->keys->page_delta(pkey, pages); });
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
  const i64 rc = proc->aspace->map(
      kStackTop - stack_len, stack_len, prot::kRead | prot::kWrite, 0,
      [&proc](u32 pkey, i64 pages) { proc->keys->page_delta(pkey, pages); });
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

void Kernel::set_hw_pkey_perm(u32 pkey, u8 perm) {
  if (hart_.config().flavor == core::IsaFlavor::kSealPk) {
    hart_.pkr().set_perm(pkey, perm);
    // Mirror the kernel-path write into the running thread's PKR shadow so
    // the shadow stays a faithful scrub source.
    if (has_current_thread()) {
      auto& pkr = thread(current_tid_).ctx.pkr;
      const u32 row = hw::pkr_row_of(pkey);
      const u32 slot = hw::pkr_slot_of(pkey);
      pkr[row] = deposit(pkr[row], 2 * slot + 1, 2 * slot, perm);
    }
  } else {
    hart_.pkru().set_perm(pkey, (perm & 0b01) != 0, (perm & 0b10) != 0);
  }
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
  hart_.add_cycles(hart_.timing().fault_handler_cycles);
  FaultRecord rec;
  rec.pid = thread(current_tid_).pid;
  rec.tid = current_tid_;
  rec.cause = cause;
  rec.addr = hart_.csrs().stval;
  rec.pc = hart_.csrs().sepc;
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
  if (deliver_signal(rec)) {
    faults_.push_back(rec);
    return;
  }
  faults_.push_back(rec);
  sys_exit(-static_cast<i64>(cause));
}

void Kernel::fatal_fault(core::TrapCause cause) {
  hart_.add_cycles(hart_.timing().fault_handler_cycles);
  FaultRecord rec;
  rec.pid = thread(current_tid_).pid;
  rec.tid = current_tid_;
  rec.cause = cause;
  rec.addr = hart_.csrs().stval;
  rec.pc = hart_.csrs().sepc;
  if (cause == core::TrapCause::kSealViolation) {
    rec.pkey_fault = true;
    rec.pkey = static_cast<u32>(hart_.csrs().stval & 0x3FF);
    // Seal violations are SEGV-class and deliverable like page faults.
    if (deliver_signal(rec)) {
      faults_.push_back(rec);
      return;
    }
  }
  faults_.push_back(rec);
  sys_exit(-static_cast<i64>(cause));
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
  hart_.seal_unit().refill(pkey, range->start, range->end);
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

  i64 ret = 0;
  switch (nr) {
    case sys::kExit:
      sys_exit(static_cast<i64>(a0));
      return;
    case sys::kSchedYield: {
      hart_.set_reg(isa::a0, 0);
      if (!run_queue_.empty()) {
        yield_to_next(resume_pc);
      } else {
        return_to_user(resume_pc);
      }
      return;
    }
    case sys::kGetTid:
      ret = current_tid_;
      break;
    case sys::kWrite:
      ret = sys_write(a0, a1, a2);
      break;
    case sys::kMmap:
      ret = sys_mmap(a0, a1, a2);
      break;
    case sys::kMunmap:
      ret = sys_munmap(a0, a1);
      break;
    case sys::kMprotect:
      ret = sys_mprotect(a0, a1, a2);
      break;
    case sys::kPkeyMprotect:
      ret = sys_pkey_mprotect(a0, a1, a2, a3);
      break;
    case sys::kPkeyAlloc:
      ret = sys_pkey_alloc(a0, a1);
      break;
    case sys::kPkeyFree:
      ret = sys_pkey_free(a0);
      break;
    case sys::kPkeySeal:
      ret = sys_pkey_seal(a0, a1, a2);
      break;
    case sys::kPkeyPermSeal:
      ret = sys_pkey_perm_seal(a0);
      break;
    case sys::kClone:
      ret = sys_clone(a0, a1, a2);
      break;
    case sys::kReport:
      reports_.push_back(a0);
      break;
    case sys::kVaultSeal:
      ret = sys_vault_commit(a0, a1, /*reseal=*/false);
      break;
    case sys::kVaultReseal:
      ret = sys_vault_commit(a0, a1, /*reseal=*/true);
      break;
    case sys::kVaultUnseal:
      ret = sys_vault_unseal(a0, a1, a2);
      break;
    case sys::kVpkeyAlloc:
      ret = sys_vpkey_alloc(a0, a1);
      break;
    case sys::kVpkeyFree:
      ret = sys_vpkey_free(a0);
      break;
    case sys::kVpkeyMprotect:
      ret = sys_vpkey_mprotect(a0, a1, a2, a3);
      break;
    case sys::kVpkeySet:
      ret = sys_vpkey_set(a0, a1);
      break;
    case sys::kMark:
      ret = record_mark(a0, a1, a2, static_cast<u32>(a3));
      break;
    case sys::kSigaction:
      current_process().signal_handler = a0;
      break;
    case sys::kSigreturn:
      sys_sigreturn(a0);
      return;
    default:
      ret = err::kNoSys;
      break;
  }
  hart_.set_reg(isa::a0, static_cast<u64>(ret));
  return_to_user(resume_pc);
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

// --- sealed-storage vault (src/vault, DESIGN.md §14) -------------------------

i64 Kernel::open_vault(u64 vault_base, vault::Geometry* geo) {
  if (hart_.config().flavor != core::IsaFlavor::kSealPk) return err::kNoSys;
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  AddressSpace& as = current_aspace();
  u8 sb[vault::kSuperblockSize];
  if (!as.copy_in(vault_base, sb, vault::kSuperblockSize)) return err::kFault;
  const std::optional<vault::Geometry> parsed =
      vault::parse_superblock(sb, vault::kSuperblockSize);
  if (!parsed) return err::kInval;
  const Vma* vma = as.find_vma(vault_base);
  if (vma == nullptr || vma->pkey != parsed->vault_pkey ||
      vault_base + parsed->total_len() > vma->end) {
    return err::kInval;
  }
  // The vault domain itself must be fully sealed before the kernel will
  // notarise anything into it or serve anything out of it: an unsealed
  // "vault" offers no guarantee the guest can't rewrite history behind the
  // journal's back.
  const u32 vk = static_cast<u32>(parsed->vault_pkey);
  if (!current_keys().domain_sealed(vk) || !current_keys().pages_sealed(vk)) {
    return err::kPerm;
  }
  *geo = *parsed;
  return 0;
}

i64 Kernel::sys_vault_commit(u64 vault_base, u64 intent_off, bool reseal) {
  vault::Geometry geo;
  if (const i64 rc = open_vault(vault_base, &geo); rc != 0) return rc;
  AddressSpace& as = current_aspace();
  const u32 vk = static_cast<u32>(geo.vault_pkey);

  // Intent records live at even journal indices; the kernel owns the odd
  // slot right after each one.
  if (intent_off < geo.journal_off ||
      (intent_off - geo.journal_off) % vault::kRecordSize != 0) {
    return err::kInval;
  }
  const u64 index = (intent_off - geo.journal_off) / vault::kRecordSize;
  if ((index % 2) != 0 || index + 1 >= geo.journal_cap) return err::kInval;

  u8 rb[vault::kRecordSize];
  if (!as.copy_in(vault_base + intent_off, rb, vault::kRecordSize)) {
    return err::kFault;
  }
  const vault::Record intent = vault::parse_record(rb);
  if (!intent.present) return err::kInval;
  if (!intent.valid) {
    // A torn or corrupted intent is detected — and refused — here, never
    // silently committed.
    ++vault_stats_.corruption_detected;
    return err::kInval;
  }
  if (intent.type != (reseal ? vault::kRecordIntentReseal
                             : vault::kRecordIntentSeal)) {
    return err::kInval;
  }
  if (intent.slot >= geo.n_slots || intent.len == 0 ||
      intent.len > geo.slot_size || (intent.len % 8) != 0) {
    return err::kInval;
  }

  // Ownership gate: the caller's *live* PKR must grant read+write on the
  // vault's owner domain. A handler running with the owner key closed (or
  // a foreign process) is refused and the refusal is notarised.
  if (hart_.pkr().peek_perm(static_cast<u32>(geo.owner_pkey)) !=
      pkeyperm::kRw) {
    ++vault_stats_.denials;
    record_mark(mark::kVaultDenied, intent.id, static_cast<u64>(-err::kAcces),
                vk);
    return err::kAcces;
  }

  std::vector<u8> region(geo.total_len());
  if (!as.copy_in(vault_base, region.data(), region.size())) {
    return err::kFault;
  }
  hart_.add_cycles(region.size() / 8);  // journal scan + checksum cost
  const vault::Ledger ledger = vault::replay(region.data(), region.size());
  const auto live = ledger.live.find(intent.id);
  if (!reseal && live != ledger.live.end()) return err::kBusy;
  if (reseal) {
    if (live == ledger.live.end()) return err::kInval;
    // Copy-on-write: a reseal must land in a fresh slot with a newer
    // sequence number, so a crash mid-payload-write can never tear the
    // still-committed previous version.
    if (live->second.slot == intent.slot || intent.seq <= live->second.seq) {
      return err::kInval;
    }
  }
  for (const auto& [id, b] : ledger.live) {
    if (b.slot == intent.slot) return err::kBusy;  // slot holds live data
  }
  // The kernel's half of the record pair must still be virgin.
  const vault::Record existing =
      vault::parse_record(region.data() + geo.record_off(index + 1));
  if (existing.present) return err::kBusy;

  // The payload must already be fully in place and match the intent's
  // checksum — the commit record is the durability point, so nothing may
  // be outstanding once it exists.
  if (checksum64(region.data() + geo.slot_off(intent.slot), intent.len) !=
      intent.payload_fnv) {
    ++vault_stats_.corruption_detected;
    return err::kBadMsg;
  }

  const std::vector<u8> commit =
      vault::record_bytes(vault::kRecordCommit, intent.id, intent.slot,
                          intent.len, intent.seq, intent.payload_fnv);
  if (!as.copy_out(vault_base + geo.record_off(index + 1), commit.data(),
                   commit.size())) {
    return err::kFault;
  }
  if (reseal) {
    ++vault_stats_.reseals;
  } else {
    ++vault_stats_.seals;
  }
  record_mark(mark::kVaultCommit, intent.id, intent.seq, vk);
  return 0;
}

i64 Kernel::sys_vault_unseal(u64 vault_base, u64 id, u64 dst) {
  vault::Geometry geo;
  if (const i64 rc = open_vault(vault_base, &geo); rc != 0) return rc;
  AddressSpace& as = current_aspace();
  const u32 vk = static_cast<u32>(geo.vault_pkey);
  if (hart_.pkr().peek_perm(static_cast<u32>(geo.owner_pkey)) !=
      pkeyperm::kRw) {
    ++vault_stats_.denials;
    record_mark(mark::kVaultDenied, id, static_cast<u64>(-err::kAcces), vk);
    return err::kAcces;
  }

  std::vector<u8> region(geo.total_len());
  if (!as.copy_in(vault_base, region.data(), region.size())) {
    return err::kFault;
  }
  hart_.add_cycles(region.size() / 8);
  // Newest valid commit for `id` (structural scan; payload verified below
  // so a checksum failure is reported as corruption, not as "absent").
  bool found = false;
  vault::Record best;
  for (u64 i = 1; i < geo.journal_cap; i += 2) {
    const vault::Record r =
        vault::parse_record(region.data() + geo.record_off(i));
    if (!r.present || !r.valid || r.type != vault::kRecordCommit) continue;
    if (r.id != id || r.slot >= geo.n_slots || r.len > geo.slot_size) {
      continue;
    }
    if (!found || r.seq >= best.seq) {
      best = r;
      found = true;
    }
  }
  if (!found) return err::kInval;
  if (checksum64(region.data() + geo.slot_off(best.slot), best.len) !=
      best.payload_fnv) {
    // Detected before serving: a corrupted committed payload is never
    // handed out.
    ++vault_stats_.corruption_detected;
    return err::kBadMsg;
  }

  // The destination must sit entirely inside the owner domain and be
  // writable under the caller's live PKR: secrets never leave the
  // {vault, owner} domain pair through this syscall.
  const u64 first = align_down(dst, mem::kPageSize);
  for (u64 page = first; page < dst + best.len; page += mem::kPageSize) {
    const std::optional<u32> pkey = as.page_pkey(page);
    if (!pkey.has_value()) return err::kFault;
    if (*pkey != geo.owner_pkey ||
        (hart_.pkr().peek_perm(*pkey) & 0b01) != 0) {
      return err::kAcces;
    }
  }
  if (!as.copy_out(dst, region.data() + geo.slot_off(best.slot), best.len)) {
    return err::kFault;
  }
  hart_.add_cycles(best.len);  // copy_to_user cost
  ++vault_stats_.unseals;
  record_mark(mark::kVaultUnseal, id, best.len, vk);
  return static_cast<i64>(best.len);
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
  KeyManager& keys = current_keys();
  const i64 pages = current_aspace().protect(
      addr, len, prot, [&keys](u32 pkey) { return keys.domain_sealed(pkey); });
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

i64 Kernel::retag_pages(u64 addr, u64 len, u64 prot, u32 pkey) {
  const auto& t = hart_.timing();
  KeyManager& keys = current_keys();
  const i64 pages = current_aspace().protect_pkey(
      addr, len, prot, pkey,
      [&keys](u32 k) { return keys.domain_sealed(k); },
      [&keys](u32 k) { return keys.pages_sealed(k); }, page_delta_hook());
  hart_.add_cycles(t.vma_lookup_cycles);
  if (pages >= 0) {
    hart_.add_cycles(static_cast<u64>(pages) * t.pte_update_cycles);
    stats_.pte_pages_updated += static_cast<u64>(pages);
  }
  return pages;
}

i64 Kernel::sys_pkey_mprotect(u64 addr, u64 len, u64 prot, u64 pkey) {
  if (!current_keys().assignable(static_cast<u32>(pkey))) return err::kInval;
  const i64 pages = retag_pages(addr, len, prot, static_cast<u32>(pkey));
  if (pages < 0) return pages;
  hart_.add_cycles(hart_.timing().tlb_flush_cycles);
  hart_.flush_tlbs();
  emit(obs::EventKind::kPkeyMprotect, static_cast<u32>(pkey), addr,
       static_cast<u64>(pages));
  return 0;
}

i64 Kernel::sys_pkey_alloc(u64 flags, u64 init_perm) {
  if (flags != 0 || init_perm > 3) return err::kInval;
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  const i64 pkey = current_keys().alloc();
  if (pkey >= 0) {
    set_hw_pkey_perm(static_cast<u32>(pkey), static_cast<u8>(init_perm));
    emit(obs::EventKind::kPkeyAlloc, static_cast<u32>(pkey), init_perm, 0);
  }
  return pkey;
}

i64 Kernel::sys_pkey_free(u64 pkey) {
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  KeyManager& keys = current_keys();
  const i64 rc = keys.free_key(static_cast<u32>(pkey));
  if (rc != 0) return rc;
  emit(obs::EventKind::kPkeyFree, static_cast<u32>(pkey),
       keys.page_count(static_cast<u32>(pkey)), 0);
  if (hart_.config().flavor == core::IsaFlavor::kSealPk) {
    // Lazy de-allocation (§III-B.1): clear the key's PKR permission to
    // (0,0) so the page-table permissions alone govern its orphan pages,
    // in the current thread and in every sibling's saved PKR.
    set_hw_pkey_perm(static_cast<u32>(pkey), 0);
    Process& proc = current_process();
    for (const int tid : proc.thread_tids) {
      Thread& th = thread(tid);
      const u32 row = hw::pkr_row_of(static_cast<u32>(pkey));
      const u32 slot = hw::pkr_slot_of(static_cast<u32>(pkey));
      th.ctx.pkr[row] =
          deposit(th.ctx.pkr[row], 2 * slot + 1, 2 * slot, 0);
    }
    // Immediate full release: when no page carries the key, free_key()
    // scrubbed the bookkeeping without going through the lazy quarantine,
    // so the drained hook never fires. Dissolve the hardware seal state
    // here too, or a future pkey_alloc would hand out a key whose SealReg
    // bit and PK-CAM entry still belong to the previous owner (found by
    // the model checker; replayed in tests/model_traces/).
    if (!keys.dirty(static_cast<u32>(pkey))) {
      hart_.seal_unit().clear_key(static_cast<u32>(pkey));
    }
  }
  // The Intel-MPK flavour intentionally leaves PKRU and the PTEs untouched,
  // reproducing Linux's eager-free semantics (the use-after-free bug).
  return 0;
}

i64 Kernel::sys_pkey_seal(u64 pkey, u64 seal_domain, u64 seal_page) {
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  const i64 rc = current_keys().seal(static_cast<u32>(pkey),
                                     seal_domain != 0, seal_page != 0);
  if (rc == 0) {
    emit(obs::EventKind::kPkeySeal, static_cast<u32>(pkey), seal_domain,
         seal_page);
  }
  return rc;
}

i64 Kernel::sys_pkey_perm_seal(u64 pkey) {
  const auto& t = hart_.timing();
  hart_.add_cycles(t.pkey_bookkeeping_cycles);
  const SealRange range{hart_.csrs().seal_start, hart_.csrs().seal_end};
  const i64 rc =
      current_keys().set_perm_seal(static_cast<u32>(pkey), range);
  if (rc != 0) return rc;
  // Commit via the supervisor-only custom instruction path (spk.range +
  // spk.seal) — modelled as direct unit updates with the same cycle cost.
  hart_.add_cycles(2 * t.rocc_cycles);
  hart_.seal_unit().set_sealed(static_cast<u32>(pkey));
  hart_.seal_unit().refill(static_cast<u32>(pkey), range.start, range.end);
  emit(obs::EventKind::kPkeyPermSeal, static_cast<u32>(pkey), range.start,
       range.end);
  return 0;
}

// Maps the vkey table's side-effect port onto the kernel's real mechanisms,
// with the same cycle charging as the raw pkey syscalls: rekey() is a
// pkey_mprotect minus its per-call TLB flush (the table batches those),
// acquire_phys() is a pkey_alloc, set_perm() is the shared PKR write path.
struct VkeyKernelOps final : mpk::VkeyOps {
  Kernel& k;
  explicit VkeyKernelOps(Kernel& kernel) : k(kernel) {}

  i64 acquire_phys() override {
    k.hart_.add_cycles(k.hart_.timing().pkey_bookkeeping_cycles);
    return k.current_keys().alloc();
  }

  i64 rekey(u64 addr, u64 len, u64 prot, u32 pkey) override {
    return k.retag_pages(addr, len, prot, pkey);
  }

  void set_perm(u32 pkey, u8 perm) override { k.set_hw_pkey_perm(pkey, perm); }

  void flush_tlb() override {
    k.hart_.add_cycles(k.hart_.timing().tlb_flush_cycles);
    k.hart_.flush_tlbs();
  }

  void note_map(u64 vkey, u32 phys, u64 pages) override {
    k.emit(obs::EventKind::kVkeyMap, phys, vkey, pages);
  }

  void note_evict(u64 vkey, u32 phys, bool drained) override {
    k.emit(obs::EventKind::kVkeyEvict, phys, vkey, drained ? 1 : 0);
  }

  void note_sync(u64 pages, u64 vkeys) override {
    k.emit(obs::EventKind::kVkeySync, obs::kNoPkey, pages, vkeys);
  }
};

mpk::VkeyTable& Kernel::ensure_vkeys(Process& proc) {
  if (!proc.vkeys) {
    mpk::VkeyTableConfig cfg;
    cfg.mru_slots = config_.vkey_mru_slots;
    cfg.lazy_sync = config_.vkey_lazy_sync;
    proc.vkeys = std::make_unique<mpk::VkeyTable>(cfg);
  }
  return *proc.vkeys;
}

i64 Kernel::sys_vpkey_alloc(u64 flags, u64 init_perm) {
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  // Pure metadata: the physical binding happens at first vpkey_set.
  return ensure_vkeys(current_process()).alloc(flags,
                                               static_cast<u8>(init_perm));
}

i64 Kernel::sys_vpkey_free(u64 vkey) {
  Process& proc = current_process();
  if (!proc.vkeys) return err::kInval;
  hart_.add_cycles(hart_.timing().pkey_bookkeeping_cycles);
  VkeyKernelOps ops(*this);
  return proc.vkeys->free_vkey(ops, vkey);
}

i64 Kernel::sys_vpkey_mprotect(u64 addr, u64 len, u64 prot, u64 vkey) {
  Process& proc = current_process();
  if (!proc.vkeys) return err::kInval;
  VkeyKernelOps ops(*this);
  return proc.vkeys->mprotect(ops, addr, len, prot, vkey);
}

i64 Kernel::sys_vpkey_set(u64 vkey, u64 perm) {
  Process& proc = current_process();
  if (!proc.vkeys) return err::kInval;
  VkeyKernelOps ops(*this);
  const i64 rc = proc.vkeys->set(ops, vkey, static_cast<u8>(perm));
  if (rc < 0) return rc;
  // An MRU-cache hit is just the PKR write; anything deeper pays the
  // bookkeeping path (the rekey/flush costs were charged by the ops).
  const auto outcome = static_cast<mpk::VkeySetOutcome>(rc);
  hart_.add_cycles(outcome == mpk::VkeySetOutcome::kMruHit
                       ? hart_.timing().rocc_cycles
                       : hart_.timing().pkey_bookkeeping_cycles);
  return 0;
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
      proc->keys = k.make_key_manager(pid);
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

bool Kernel::any_vkey_tables() const {
  for (const auto& [pid, proc] : processes_) {
    if (proc->vkeys) return true;
  }
  return false;
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
