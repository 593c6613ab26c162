#include "sim/machine.h"

#include <algorithm>
#include <exception>
#include <optional>

#include "snapshot/snapshot.h"

namespace sealpk::sim {

int Machine::load(const isa::Image& image) {
  if (config_.verify_policy != analysis::LoadVerifyPolicy::kOff) {
    verify_report_ = analysis::verify_image(image, config_.verify_options);
    if (config_.verify_policy == analysis::LoadVerifyPolicy::kEnforce &&
        !verify_report_.admissible()) {
      return kLoadRefused;
    }
  }
  const int pid = kernel_.load_process(image);
  if (pid >= 0 && recorder_ != nullptr) {
    // Feed the loader's function ranges to the profiler so PC samples can
    // be attributed to guest functions.
    recorder_->add_symbols(static_cast<u32>(pid), image.func_ranges);
  }
  return pid;
}

void Machine::take_checkpoint() {
  // The schedule advances before the save so the blob carries the *next*
  // deadline: a machine restored from this checkpoint re-checkpoints at the
  // same instret as the uninterrupted run would.
  runloop_.next_checkpoint = hart_.instret() + config_.checkpoint_interval;
  if (injector_ != nullptr && !kernel_.audit().clean()) {
    // Latent corruption in flight — freezing it would make the "known-good"
    // checkpoint anything but. Keep the previous one and try again next
    // period. audit() is peek-only, so skipping changes no machine state.
    return;
  }
  checkpoint_ = snapshot::save_unsealed(*this);
  checkpoint_sealed_ = false;
  checkpoint_injected_ =
      injector_ != nullptr ? injector_->lifetime_injected() : 0;
  ++checkpoints_;
  if (recorder_ != nullptr) {
    recorder_->emit(obs::EventKind::kCheckpoint, hart_.instret(),
                    hart_.cycles(), obs::kNoPkey, checkpoints_,
                    checkpoint_.size());
  }
}

u32 Machine::peek_inst_word(u64 vaddr) const {
  const auto paddr = hart_.translate_debug(vaddr, mem::Access::kFetch);
  return paddr && mem_.contains(*paddr, 4) ? mem_.read_u32(*paddr) : 0;
}

const std::vector<u8>& Machine::checkpoint_blob() {
  if (!checkpoint_sealed_ && !checkpoint_.empty()) {
    snapshot::seal(checkpoint_);
    checkpoint_sealed_ = true;
  }
  return checkpoint_;
}

bool Machine::request_rollback() {
  if (rollback_pending_) return true;  // already armed by an earlier kill
  if (in_final_ || injector_ == nullptr || checkpoint_.empty()) return false;
  if (rollbacks_ >= config_.max_rollbacks) {
    ++rollback_failures_;
    return false;
  }
  if (injector_->lifetime_injected() <= checkpoint_injected_) {
    // Nothing fired since the checkpoint, so there is no injection to
    // suppress: re-execution would deterministically hit the same machine
    // check and loop forever. Let the kill stand.
    ++rollback_failures_;
    return false;
  }
  rollback_pending_ = true;
  return true;
}

void Machine::perform_rollback() {
  rollback_pending_ = false;
  const u64 fired = injector_->lifetime_injected() - checkpoint_injected_;
  try {
    snapshot::restore(*this, checkpoint_blob());
  } catch (const std::exception& e) {
    // The checkpoint itself failed to restore (should not happen — it was
    // produced by save() on this very machine). The machine may now be torn;
    // drop the checkpoint so we never retry it and fall back to the kill.
    ++rollback_failures_;
    checkpoint_.clear();
    kernel_.note_host_error(e.what());
    try {
      if (kernel_.has_current_thread()) {
        kernel_.kill_current(os::kExitMachineCheck,
                             os::Kernel::KillOrigin::kMachineCheck);
      }
    } catch (const std::exception&) {
    }
    return;
  }
  // Re-execute the doomed window with the injections that led here held
  // back. Anything the plan schedules *after* the window still fires — the
  // rollback absorbs this corruption, not the whole plan.
  injector_->suppress(fired);
  ++rollbacks_;
  if (recorder_ != nullptr) {
    // restore() re-seeded the stamping context; the event carries the
    // *restored* (rewound) clocks, so a trace shows the rewind explicitly.
    recorder_->emit(obs::EventKind::kRollback, hart_.instret(),
                    hart_.cycles(), obs::kNoPkey, rollbacks_, fired);
  }
}

RunOutcome Machine::run(u64 max_instructions) {
  RunOutcome outcome;
  const u64 start_instret = hart_.instret();
  const u64 start_cycles = hart_.cycles();

  const bool faults = injector_ != nullptr;
  const u64 audit_every =
      config_.audit_interval != 0
          ? config_.audit_interval
          : (faults ? kDefaultAuditInterval : 0);
  // next_audit == 0 is the "never scheduled" sentinel; a restored machine
  // arrives with its schedule already set and keeps it.
  if (runloop_.next_audit == 0) {
    runloop_.next_audit =
        audit_every != 0 ? hart_.instret() + audit_every : ~u64{0};
  }
  const u64 ckpt_every = config_.checkpoint_interval;
  const u64 quantum = config_.preempt_quantum;
  // What the loop does after each retired instruction, applied once for a
  // chunk that retired `retired` of them.
  const auto note_retired = [&](u64 retired) {
    if (retired == 0) return;
    runloop_.trap_streak = 0;
    runloop_.last_trap_pc = ~u64{0};
    runloop_.stall_streak = 0;
    if (quantum != 0) runloop_.since_switch += retired;
  };

  while (!kernel_.all_exited()) {
    if (rollback_pending_) perform_rollback();
    const u64 done = hart_.instret() - start_instret;
    if (done >= max_instructions) break;
    try {
      if (hart_.instret() >= runloop_.next_audit) {
        kernel_.audit_and_recover();
        if (faults) injector_->note_recoveries(kernel_);
        runloop_.next_audit = hart_.instret() + audit_every;
      }
      // An escalated audit kill arms the rollback instead of killing; skip
      // the rest of the iteration so we do not step corrupted state.
      if (rollback_pending_) continue;

      if (ckpt_every != 0 && hart_.instret() >= runloop_.next_checkpoint) {
        take_checkpoint();
      }

      // Between traps, every check this loop makes is a pure function of
      // the retired count, so one Hart::run chunk covers all steps up to the
      // nearest deadline: budget, audit, checkpoint, quantum, the
      // injector's next fire and the profiler's next sample. A past-due
      // deadline gives a chunk of one step.
      const u64 before = hart_.instret();
      const auto until = [before](u64 deadline) {
        return deadline > before ? deadline - before : u64{1};
      };
      u64 chunk = std::min(max_instructions - done, until(runloop_.next_audit));
      if (ckpt_every != 0) {
        chunk = std::min(chunk, until(runloop_.next_checkpoint));
      }
      if (quantum != 0) {
        chunk = std::min(chunk, quantum > runloop_.since_switch
                                    ? quantum - runloop_.since_switch
                                    : u64{1});
      }
      if (faults) chunk = std::min(chunk, until(injector_->next_fire()));
      if (recorder_ != nullptr) {
        chunk = std::min(chunk, until(recorder_->next_sample()));
      }
      std::optional<core::StepResult> trap;
      try {
        trap = hart_.run(chunk);
      } catch (...) {
        note_retired(hart_.instret() - before);
        throw;
      }
      note_retired(hart_.instret() - before);

      if (trap.has_value()) {
        // The trapping step itself retired nothing; the livelock watchdog
        // asks whether the kernel's handling moves instret on from here.
        const u64 trap_instret = hart_.instret();
        const u64 trap_pc = hart_.csrs().sepc;
        kernel_.handle_trap();
        runloop_.since_switch = 0;
        // The instruction log already named the trapping instruction at
        // this instret; name the one the kernel resumes at too (after an
        // ecall, or in a thread switched in).
        if (recorder_ != nullptr && recorder_->config().sample_interval == 1 &&
            !kernel_.all_exited()) {
          recorder_->sample(hart_.instret(), hart_.cycles(), hart_.pc(),
                            peek_inst_word(hart_.pc()));
        }
        if (faults) injector_->note_recoveries(kernel_);
        runloop_.trap_streak =
            trap_pc == runloop_.last_trap_pc ? runloop_.trap_streak + 1 : 1;
        runloop_.last_trap_pc = trap_pc;
        if (config_.watchdog_trap_storm != 0 &&
            runloop_.trap_streak >= config_.watchdog_trap_storm) {
          kernel_.kill_current(os::kExitTrapStorm,
                               os::Kernel::KillOrigin::kWatchdog);
          if (faults) {
            // The storm was the visible face of whatever is outstanding on
            // the refill path; the kill is its resolution.
            injector_->resolve(fault::FaultKind::kCamDropRefill,
                               fault::FaultResolution::kProcessKilled);
          }
          runloop_.trap_streak = 0;
          runloop_.last_trap_pc = ~u64{0};
          runloop_.stall_streak = 0;
        }
        if (hart_.instret() != trap_instret) {
          runloop_.stall_streak = 0;
        } else if (config_.watchdog_livelock != 0 &&
                   ++runloop_.stall_streak >= config_.watchdog_livelock) {
          kernel_.kill_current(os::kExitLivelock,
                               os::Kernel::KillOrigin::kWatchdog);
          runloop_.stall_streak = 0;
          runloop_.trap_streak = 0;
          runloop_.last_trap_pc = ~u64{0};
        }
      } else if (quantum != 0 && runloop_.since_switch >= quantum) {
        if (kernel_.runnable_threads() > 1) kernel_.preempt();
        runloop_.since_switch = 0;
      }

      if (faults && !rollback_pending_) injector_->maybe_inject(hart_, kernel_);
      // Sampling profiler: one compare per chunk or trap when tracing is
      // on, nothing at all when it is off. The instruction word is read
      // only for a sample that is due.
      if (recorder_ != nullptr &&
          hart_.instret() >= recorder_->next_sample()) {
        recorder_->sample(hart_.instret(), hart_.cycles(), hart_.pc(),
                          peek_inst_word(hart_.pc()));
      }
    } catch (const std::exception& e) {
      // A host-level exception (CheckError from a torn invariant, bad_alloc,
      // ...) must never escape the simulated machine: contain it as a
      // modelled machine check against the process that triggered it (which
      // may arm a rollback instead of killing). If even the kill path is
      // broken the machine stops instead of rethrowing.
      kernel_.note_host_error(e.what());
      bool contained = false;
      try {
        if (kernel_.has_current_thread()) {
          kernel_.kill_current(os::kExitMachineCheck,
                               os::Kernel::KillOrigin::kMachineCheck);
          contained = true;
        }
      } catch (const std::exception&) {
      }
      if (!contained && rollback_pending_) contained = true;
      if (!contained) break;
      runloop_.since_switch = 0;
    }
  }

  if (rollback_pending_) perform_rollback();

  if (faults && kernel_.all_exited()) {
    // Final reckoning: repair whatever is still inconsistent, then classify
    // any injected fault that never became architecturally visible. Only on
    // actual completion — a run() that stopped at its instruction budget is
    // mid-flight, and reckoning there would perturb state an uninterrupted
    // run would not have (breaking snapshot-resume equivalence). No rollback
    // from here — there is nothing left to re-execute.
    in_final_ = true;
    try {
      kernel_.audit_and_recover();
      injector_->note_recoveries(kernel_);
    } catch (const std::exception& e) {
      kernel_.note_host_error(e.what());
    }
    injector_->resolve_all_outstanding(fault::FaultResolution::kMaskedBenign);
    in_final_ = false;
  }

  outcome.completed = kernel_.all_exited();
  // A rollback can rewind instret below this run()'s starting point when the
  // restored checkpoint was taken during an earlier run() call; clamp
  // instead of wrapping.
  outcome.instructions =
      hart_.instret() >= start_instret ? hart_.instret() - start_instret : 0;
  outcome.cycles =
      hart_.cycles() >= start_cycles ? hart_.cycles() - start_cycles : 0;
  return outcome;
}

}  // namespace sealpk::sim
