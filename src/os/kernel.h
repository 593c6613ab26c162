// The kernel model: program loading, trap dispatch, the syscall table,
// page-fault handling with pkey-augmented fault reports, PK-CAM refill
// service, and a round-robin scheduler that swaps per-thread PKR state.
// The pkey and seal syscalls live in sys_pkey.cpp, the vault in sys_vault.cpp.
//
// The kernel executes as host code "above" the hart, the way spike's proxy
// kernel sits above the ISA model: on a trap the hart redirects to stvec in
// S-mode, the surrounding run loop calls handle_trap(), and the kernel
// manipulates architectural state directly, charging calibrated cycle
// costs from the TimingModel for each software path it models.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/hart.h"
#include "isa/program.h"
#include "obs/recorder.h"
#include "os/audit.h"
#include "os/pkey_ops.h"
#include "os/process.h"
#include "os/syscall_abi.h"

namespace sealpk::vault {
struct Geometry;
}  // namespace sealpk::vault

namespace sealpk::os {

struct KernelConfig {
  // §III-B.2 footnote: maintaining PKR across context switches costs < 1 %.
  // The context-switch bench toggles this to measure exactly that.
  bool save_pkr_on_switch = true;
  u64 stack_pages = 64;  // main-thread stack (256 KiB)
  // Sv48 instead of Sv39 (paper footnote 1: the Sv48 PTE has the same 10
  // reserved bits, so the pkey field is unchanged; only the walk deepens).
  bool sv48 = false;
  // Pkey virtualization (src/mpk/vkey_table.h, DESIGN.md §15): size of the
  // per-process MRU key cache (vpkey_set hits skip the bookkeeping path and
  // the cached vkeys are exempt from eviction), and the eviction sync
  // policy — eager parks a victim's pages at eviction time, lazy queues
  // victims (key held no-access) and parks the whole queue under one
  // batched TLB shootdown when the free pool runs dry.
  u32 vkey_mru_slots = 8;
  bool vkey_lazy_sync = false;
  // Fault-injection hooks on the PK-CAM refill path. Consulted (when set)
  // once per refill: `cam_refill_drop` returning true makes the handler
  // return without refilling (the WRPKR re-faults and retries);
  // `cam_refill_dup` returning true makes the handler write the entry twice
  // (a glitched handshake leaving a duplicate CAM line). Wired up by the
  // fault injector; unset in normal runs.
  std::function<bool()> cam_refill_drop;
  std::function<bool()> cam_refill_dup;
  // Escalation hook consulted before a machine-check kill: returning true
  // claims the failure (the surrounding machine will roll back to a
  // checkpoint instead), so the kill is suppressed. Unset or returning
  // false keeps the existing kill-the-process behaviour. kill_current is
  // the single choke point every unrecoverable-corruption path funnels
  // through (audit escalation, page-fault recovery, the machine-check
  // handler, and host-error containment), so this one hook covers them all.
  std::function<bool()> machine_check_escalation;
};

struct FaultRecord {
  int pid = 0;
  int tid = 0;
  core::TrapCause cause = core::TrapCause::kIllegalInst;
  u64 addr = 0;  // stval
  u64 pc = 0;    // sepc
  bool pkey_fault = false;  // augmented SIGSEGV info (paper §III-B.2)
  u32 pkey = 0;
  bool delivered = false;  // handed to a guest signal handler (not fatal)
};

// A guest-published request-plane mark (sys::kMark): the serve engine's
// host side reads these to attribute per-request latency and in-flight
// state without parsing the event trace. Timestamps are the calling
// hart's retired-instruction and modelled-cycle counters at the ecall.
// Marks are observability, not architectural state: like the Recorder,
// they are NOT serialized in snapshots — a resumed run records the marks
// after the restore point, and concatenation with the pre-save marks
// reproduces the uninterrupted stream bit-for-bit.
struct MarkRecord {
  u64 kind = 0;  // os::mark::k* value
  u64 arg0 = 0;
  u64 arg1 = 0;
  u32 pkey = 0;  // obs::kNoPkey when the mark has no pkey
  int tid = 0;
  u64 instret = 0;
  u64 cycles = 0;

  bool operator==(const MarkRecord&) const = default;
};

// Sealed-storage vault service counters (src/vault, DESIGN.md §14). Like
// MarkRecord these are observability, not architectural state: the durable
// vault truth lives entirely in guest DRAM (journal + payload slots), which
// the snapshot layer already carries in the MEM section, so the counters
// are NOT serialized — a resumed run recounts from its restore point.
struct VaultStats {
  u64 seals = 0;                 // successful sys_vault_seal commits
  u64 reseals = 0;               // successful sys_vault_reseal commits
  u64 unseals = 0;               // successful sys_vault_unseal copies
  u64 denials = 0;               // ownership-gate rejections (non-owner)
  u64 corruption_detected = 0;   // checksum failures caught before serving
};

struct KernelStats {
  u64 syscalls = 0;
  u64 context_switches = 0;
  u64 cam_refills = 0;
  u64 page_faults = 0;
  u64 seal_violations = 0;
  u64 pte_pages_updated = 0;
  std::map<u64, u64> syscall_counts;

  // --- robustness: fault detection and recovery ---------------------------
  u64 cam_refills_dropped = 0;     // refills the injector made the OS drop
  u64 cam_refills_duplicated = 0;  // refills committed twice
  u64 pkr_scrubs = 0;              // PKR rows rewritten from the shadow
  u64 tlb_flush_recoveries = 0;    // flush-and-rewalk recoveries
  u64 pte_repairs = 0;             // leaf PTEs rewritten from the VMA
  u64 key_counter_repairs = 0;     // pkey page counters reconciled
  u64 run_queue_scrubs = 0;        // bogus/dead tids dropped from the queue
  u64 cam_dedups = 0;              // duplicate PK-CAM lines invalidated
  u64 spurious_fault_fixes = 0;    // page faults resolved by state repair
  u64 machine_checks = 0;          // modelled machine-check traps taken
  u64 machine_check_kills = 0;     // processes killed as unrecoverable
  u64 watchdog_kills = 0;          // trap-storm / livelock kills
  u64 audit_runs = 0;              // Kernel::audit_and_recover calls
  u64 audit_findings = 0;          // invariant violations those audits saw
  u64 host_errors_contained = 0;   // host exceptions converted to kills

  // Vkey-table fields rebuilt from the PTE ground truth by the audit.
  // NOT serialized (the KERN byte layout is frozen by the v1 golden blob;
  // a resumed run recounts from its restore point, like VaultStats).
  u64 vkey_repairs = 0;

  // Total successful recovery actions — the acceptance counter: every
  // injected fault must show up here or in a kill counter.
  u64 recoveries() const {
    return pkr_scrubs + tlb_flush_recoveries + pte_repairs +
           key_counter_repairs + run_queue_scrubs + cam_dedups +
           spurious_fault_fixes;
  }
};

// Exit codes for robustness kills, distinct from the -TrapCause codes of
// ordinary fatal faults (watchdog codes sit below any trap cause).
constexpr i64 kExitMachineCheck =
    -static_cast<i64>(core::TrapCause::kMachineCheck);   // -26
constexpr i64 kExitTrapStorm = -120;
constexpr i64 kExitLivelock = -121;

class Kernel {
 public:
  // Which subsystem decided to kill a process (routes the kill counter).
  enum class KillOrigin : u8 { kMachineCheck, kWatchdog };

  // Bottom of DRAM reserved for the resident kernel footprint; frames above
  // it are handed to processes and page tables, so DRAM must be larger.
  static constexpr u64 kReservedBytes = 2 * 1024 * 1024;

  Kernel(core::Hart& hart, KernelConfig config = {});

  // Creates a process from a linked image plus its main thread; the first
  // loaded process is scheduled onto the hart immediately. Returns the pid,
  // or kLoadRefused when a mid-load failure occurs (segment map/copy
  // failure, frame exhaustion, stack map failure) — the reason is kept in
  // admission_error() and any partially-mapped memory is released. Static
  // verification happens before this, in sim::Machine::load.
  static constexpr int kLoadRefused = -1;
  int load_process(const isa::Image& image);
  const std::string& admission_error() const { return admission_error_; }

  // Adds a thread to an existing process (host-side spawn; the guest-side
  // path is the clone syscall). Returns the tid.
  int spawn_thread(int pid, u64 entry, u64 stack_top, u64 arg);

  // Dispatches the trap the hart just took.
  void handle_trap();

  // Timer-driven preemption (the surrounding run loop implements the timer
  // by instruction quantum).
  void preempt();

  bool all_exited() const;
  size_t runnable_threads() const;

  Process& process(int pid);
  const Process& process(int pid) const;
  Thread& thread(int tid);
  const Thread& thread(int tid) const;
  bool has_process(int pid) const { return processes_.count(pid) != 0; }
  bool has_thread(int tid) const { return threads_.count(tid) != 0; }
  bool has_current_thread() const {
    return current_tid_ >= 0 && has_thread(current_tid_);
  }
  std::vector<int> pids() const;
  int current_tid() const { return current_tid_; }
  const std::vector<int>& run_queue() const { return run_queue_; }
  // Mutable run-queue access for planted-inconsistency tests only.
  std::vector<int>& run_queue_for_test() { return run_queue_; }
  core::Hart& hart() { return hart_; }

  // Observability sink (src/obs): syscalls, pkey lifecycle, context
  // switches, CAM refills and fault handling are published here. Null =
  // disabled; emits charge no cycles (same discipline as the hart hooks).
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  const std::vector<FaultRecord>& faults() const { return faults_; }
  const std::string& console() const { return console_; }
  const std::vector<u64>& reports() const { return reports_; }
  const std::vector<MarkRecord>& marks() const { return marks_; }
  const KernelStats& stats() const { return stats_; }
  const VaultStats& vault_stats() const { return vault_stats_; }
  const KernelConfig& config() const { return config_; }

  // --- consistency audit (os/audit.h) -------------------------------------
  // Detection only: cross-checks the hardware state against the kernel's
  // software truth through peek-style accessors, so it never perturbs
  // statistics or architectural state — safe in bit-identity-sensitive
  // clean runs.
  AuditReport audit() const;
  // audit() plus repair of whatever it found, counted into audit_runs /
  // audit_findings and the matching recovery counters. A PKR parity error
  // with no trustworthy shadow kills the current process as a machine
  // check.
  AuditReport audit_and_recover();
  // Kills the current process with `code` (no-op without a current thread).
  void kill_current(i64 code, KillOrigin origin);

  void note_host_error(const std::string& what) {
    ++stats_.host_errors_contained;
    host_errors_.push_back(what);
  }
  const std::vector<std::string>& host_errors() const { return host_errors_; }

  // --- snapshot ports ------------------------------------------------------
  // Serializes the complete kernel truth: process table (address spaces,
  // key managers, per-process seal state), threads, scheduler queue, frame
  // allocator, fault/console/report logs and stats. The hart itself is
  // saved separately by the snapshot layer. load_state rebuilds everything
  // in place.
  void save_state(ByteWriter& w) const;
  void load_state(ByteReader& r);

  // Per-process vkey tables, serialized apart from the frozen KERN layout
  // (the snapshot layer's v2 VKEY section). load_vkey_state expects the
  // process table to be loaded already; v1 blobs skip it and leave every
  // table null.
  void save_vkey_state(ByteWriter& w) const;
  void load_vkey_state(ByteReader& r);

 private:
  // The KERN section's field list, shared by save_state and load_state.
  template <typename Io, typename Self>
  static void state_fields(Io& io, Self& k);
  // The VkeyOps adapter (sys_pkey.cpp) that maps the vkey table's
  // side-effect port onto AddressSpace / PKR / TLB mechanisms.
  friend struct VkeyKernelOps;

  Process& current_process() { return *processes_.at(thread(current_tid_).pid); }
  KeyManager& current_keys() { return *current_process().keys; }
  AddressSpace& current_aspace() { return *current_process().aspace; }

  // The syscall table (kernel.cpp), indexed by number; sys::served reads it
  // too. A handler returns a0, or nullopt if it redirected the hart itself.
  struct SyscallArgs;  // a0..a3 and the PC after the ecall
  using SyscallHandler = std::optional<i64> (*)(Kernel&, const SyscallArgs&);
  static const std::array<SyscallHandler, sys::kTableSize> kSyscalls;
  friend bool sys::served(u64 nr);

  void do_syscall();
  i64 sys_mmap(u64 addr, u64 len, u64 prot);
  i64 sys_munmap(u64 addr, u64 len);
  i64 sys_mprotect(u64 addr, u64 len, u64 prot);
  i64 sys_pkey_mprotect(u64 addr, u64 len, u64 prot, u64 pkey);
  // pkey_mprotect's page work without its TLB flush: retags [addr,
  // addr+len) to pkey, charges the VMA lookup and per-page PTE updates.
  // Returns the page count or an errno. Shared by sys_pkey_mprotect and
  // the vkey table's rekey (which batches its flushes).
  i64 retag_pages(u64 addr, u64 len, u64 prot, u32 pkey);
  i64 sys_pkey_alloc(u64 flags, u64 init_perm);
  i64 sys_pkey_free(u64 pkey);
  i64 sys_pkey_seal(u64 pkey, u64 seal_domain, u64 seal_page);
  i64 sys_pkey_perm_seal(u64 pkey);
  // Virtualized pkeys (sys::kVpkey*): policy lives in the per-process
  // mpk::VkeyTable; these adapt its side-effect port onto the real
  // mechanisms (AddressSpace::protect_pkey, PKR writes, TLB shootdowns)
  // with the same cycle charging as the raw pkey syscalls.
  i64 sys_vpkey_alloc(u64 flags, u64 init_perm);
  i64 sys_vpkey_free(u64 vkey);
  i64 sys_vpkey_mprotect(u64 addr, u64 len, u64 prot, u64 vkey);
  i64 sys_vpkey_set(u64 vkey, u64 perm);
  mpk::VkeyTable& ensure_vkeys(Process& proc);
  i64 sys_write(u64 fd, u64 buf, u64 len);
  // Vault service (sys::kVaultSeal / kVaultReseal / kVaultUnseal). The
  // commit path validates the guest-written intent record and writes the
  // matching commit record in this one trap, so commits are host-atomic;
  // the unseal path re-verifies the payload checksum before serving it.
  i64 sys_vault_commit(u64 vault_base, u64 intent_off, bool reseal);
  // Shared opening of both vault syscalls: flavour gate, bookkeeping
  // charge, superblock read, VMA/pkey/extent check and the vault domain's
  // seal check. Returns 0 with *geo set, or the errno to return.
  i64 open_vault(u64 vault_base, vault::Geometry* geo);
  i64 sys_vault_unseal(u64 vault_base, u64 id, u64 dst);
  // What both vault syscalls run next: the ownership gate (a refusal of
  // bundle `id` is notarised), then the whole region read and its scan
  // charge. Returns 0 with *region set, or the errno to return.
  i64 owner_region(u64 vault_base, const vault::Geometry& geo, u64 id,
                   std::vector<u8>* region);
  // Appends a MarkRecord and mirrors it into the event trace. Serves
  // sys::kMark and the kernel-authored vault marks (ground truth for the
  // crash sweep). An unknown kind is still logged but emits no event and
  // returns EINVAL.
  i64 record_mark(u64 kind, u64 arg0, u64 arg1, u32 pkey);
  i64 sys_clone(u64 entry, u64 stack_top, u64 arg);
  void sys_exit(i64 code);
  // Returns true if the fault was delivered to a registered guest handler.
  bool deliver_signal(FaultRecord& rec);
  void sys_sigreturn(u64 skip);

  void handle_page_fault(core::TrapCause cause);
  void handle_cam_miss();
  void handle_machine_check();
  void fatal_fault(core::TrapCause cause);
  // Charges the fault handler and records who faulted where.
  FaultRecord fault_record(core::TrapCause cause);
  // Logs `rec`, then signals the guest (if `deliverable`) or exits.
  void signal_or_exit(FaultRecord& rec, bool deliverable);

  // Outcome of the spurious-fault repair attempt inside handle_page_fault.
  enum class Recovery : u8 { kNone, kRecovered, kKilled };
  Recovery try_fault_recovery(const FaultRecord& rec);

  // Invariant predicates and repairs (os/audit.cpp). The PKR shadow is
  // trustworthy only while the kernel swaps PKR per thread and one runs.
  bool pkr_shadow_trusted() const;
  // Which PKR check `row` fails, if any (parity before shadow).
  std::optional<AuditCheck> pkr_row_fault(u32 row) const;
  // Whether run-queue entry `tid` is valid given the entries before it
  // (`seen` collects them).
  bool queued_tid_ok(int tid, std::set<int>& seen) const;
  void audit_pkr(AuditReport& report) const;
  void audit_tlbs(AuditReport& report) const;
  void audit_cam(AuditReport& report) const;
  void audit_processes(AuditReport& report) const;  // PTEs + key counters
  void audit_scheduler(AuditReport& report) const;
  void audit_vkeys(AuditReport& report) const;
  // Scrubs the PKR rows named by `report`'s PKR findings from the shadow;
  // kills the current process and returns false when there is none.
  bool recover_pkr(const AuditReport& report);
  // Flush-and-rewalk: drop both TLBs so stale entries re-walk the live
  // page tables. Counted as a recovery (unlike the plain sfence path).
  void recover_tlb_flush();

  // The flavour's key manager for a new (or restored) process.
  std::unique_ptr<KeyManager> make_key_manager() const;

  // The PKR views the pkey core (os/pkey_ops.h) writes through. LivePkr
  // is the running process's: the live PKR (PKRU for the MPK flavour) and
  // the running thread's shadow. SavedPkr is the saved rows of every
  // thread of `proc`, the whole PKR of a process that is not running.
  struct LivePkr {
    Kernel& k;
    void set_perm(u32 pkey, u8 perm);
  };
  struct SavedPkr {
    Kernel& k;
    const Process& proc;
    void set_perm(u32 pkey, u8 perm);
  };
  // The pkey core over the running process's key manager and live units.
  PkeyOps<FaithfulKernel, LivePkr> pkeys() {
    return {current_keys(), live_pkr_, hart_.seal_unit()};
  }
  // Scrubs drained `pkey` from process `pid`'s units: the live ones when
  // it is running, else its saved seal state and threads' PKR rows.
  void drain_key(int pid, u32 pkey);

  void save_current_context();
  void restore_context(Thread& next, int prev_pid);
  void yield_to_next(u64 resume_pc);
  void return_to_user(u64 pc);

  PkeyPageDelta page_delta_hook();

  // Emits an event stamped with the hart's current instret/cycles; a plain
  // no-op when no recorder is attached.
  void emit(obs::EventKind kind, u32 pkey, u64 arg0, u64 arg1);

  core::Hart& hart_;
  KernelConfig config_;
  LivePkr live_pkr_{*this};
  obs::Recorder* recorder_ = nullptr;
  std::map<int, std::unique_ptr<Process>> processes_;
  std::map<int, std::unique_ptr<Thread>> threads_;
  std::vector<int> run_queue_;  // runnable tids, excluding current
  int current_tid_ = -1;
  int next_pid_ = 1;
  int next_tid_ = 1;
  FrameAllocator frames_;
  std::string admission_error_;
  std::vector<FaultRecord> faults_;
  std::string console_;
  std::vector<u64> reports_;
  std::vector<MarkRecord> marks_;  // not serialized (see MarkRecord)
  std::vector<std::string> host_errors_;
  KernelStats stats_;
  VaultStats vault_stats_;  // not serialized (see VaultStats)
};

}  // namespace sealpk::os
