#include "serve/server.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>

#include "analysis/report.h"
#include "common/json.h"
#include "common/pool.h"
#include "obs/hist.h"
#include "sim/machine.h"

namespace sealpk::serve {

namespace {

// Host-side failure causes recorded in a request's attempt history; the
// guest's own poison values (trap causes, kPoisonGate*) stay below 100.
constexpr u64 kCauseTimeout = 100;      // request budget exhausted
constexpr u64 kCauseBadChecksum = 101;  // clean return, wrong result
constexpr u64 kCauseMachineKill = 102;  // epoch died under the request

u32 clamped_primaries(const ServeConfig& cfg) {
  return std::clamp<u32>(cfg.primaries, 1, 7);
}

void add_stats(os::KernelStats& into, const os::KernelStats& from) {
  into.syscalls += from.syscalls;
  into.context_switches += from.context_switches;
  into.cam_refills += from.cam_refills;
  into.page_faults += from.page_faults;
  into.seal_violations += from.seal_violations;
  into.pte_pages_updated += from.pte_pages_updated;
  for (const auto& [nr, n] : from.syscall_counts) {
    into.syscall_counts[nr] += n;
  }
  into.cam_refills_dropped += from.cam_refills_dropped;
  into.cam_refills_duplicated += from.cam_refills_duplicated;
  into.pkr_scrubs += from.pkr_scrubs;
  into.tlb_flush_recoveries += from.tlb_flush_recoveries;
  into.pte_repairs += from.pte_repairs;
  into.key_counter_repairs += from.key_counter_repairs;
  into.run_queue_scrubs += from.run_queue_scrubs;
  into.cam_dedups += from.cam_dedups;
  into.spurious_fault_fixes += from.spurious_fault_fixes;
  into.machine_checks += from.machine_checks;
  into.machine_check_kills += from.machine_check_kills;
  into.watchdog_kills += from.watchdog_kills;
  into.audit_runs += from.audit_runs;
  into.audit_findings += from.audit_findings;
  into.host_errors_contained += from.host_errors_contained;
}

sim::MachineConfig machine_config(const ServeConfig& cfg,
                                  const BuiltServer& built, u64 epoch,
                                  analysis::LoadVerifyPolicy policy) {
  sim::MachineConfig mc;
  mc.verify_policy = policy;
  mc.verify_options = built.verify_options;
  if (cfg.attack == redteam::AttackKind::kInterruptedGate) {
    // Tight quantum: preemption traps land inside half-open gates while
    // the probe sibling hammers monitor memory. Traps reset the run
    // loop's quantum counter, so this must be shorter than the gates'
    // trap-free stretches or the timer never fires between syscalls.
    mc.preempt_quantum = 29;
  }
  if (cfg.chaos.enabled || cfg.attack == redteam::AttackKind::kPkrGlitch) {
    mc.fault_plan.enabled = true;
    mc.fault_plan.seed =
        (cfg.chaos.enabled ? cfg.chaos.seed : cfg.seed) + epoch * 1000003ULL;
    // The dedicated glitch attack wants guaranteed upsets even on short
    // runs; chaos mode takes whatever rate the caller dialled in.
    mc.fault_plan.rate = cfg.chaos.enabled ? cfg.chaos.rate : 4e-3;
    mc.fault_plan.cam_rate = 0.0;
    mc.fault_plan.max_faults =
        cfg.chaos.enabled ? cfg.chaos.max_faults : 6;
    // PKR upsets only: exactly the state the gates' monotonic checks and
    // the kernel audit's shadow scrub are contractually responsible for.
    mc.fault_plan.kinds = fault::kind_bit(fault::FaultKind::kPkrBitFlip);
  }
  if (cfg.trace) {
    mc.trace.enabled = true;
    mc.trace.ring_capacity = 1 << 16;
  }
  return mc;
}

}  // namespace

const char* disposition_name(Disposition d) {
  switch (d) {
    case Disposition::kServed: return "served";
    case Disposition::kRetried: return "retried";
    case Disposition::kShed: return "shed";
    case Disposition::kQuarantined: return "quarantined";
  }
  return "?";
}

ServeResult run_server(const ServeConfig& cfg) {
  const u32 primaries = clamped_primaries(cfg);
  const u32 slots = 2 * primaries;
  const u32 n = cfg.requests;

  ServeResult res;
  res.slot_strikes.assign(slots, 0);
  res.slot_quarantined.assign(slots, false);
  res.records.resize(n);
  for (u32 i = 0; i < n; ++i) {
    res.records[i].index = i;
    res.records[i].home_slot = i % primaries;
  }
  for (const redteam::Attack& a : redteam::attacks()) {
    if (a.kind == cfg.attack) res.attack = &a;
  }

  analysis::LoadVerifyPolicy policy = cfg.verify;
  if (cfg.attack == redteam::AttackKind::kRogueWrpkr) {
    // The rogue WRPKR models JIT-emitted code the static scan never saw;
    // admitting it is the point — the hardware check is the catcher.
    policy = analysis::LoadVerifyPolicy::kOff;
  }

  std::vector<u32> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  std::vector<u64> eligible(n, 0);
  std::vector<bool> resolved(n, false);
  bool attack_disarmed = false;  // set once the admission gate refused it

  // Epoch budget: room for every allowed attempt plus its backoff.
  const u64 max_epochs = 4 * cfg.max_attempts + 8;
  const u64 slice = std::max<u64>(2000, cfg.request_budget / 4);

  u64 epoch = 0;
  while (!pending.empty() && epoch < max_epochs) {
    // Route every eligible request: even failed-attempt counts start at
    // the home (primary) slot, odd ones at its replica; a quarantined
    // choice falls through to the other; both dead => shed.
    std::vector<std::pair<u32, u32>> reqs;
    for (const u32 id : pending) {
      if (eligible[id] > epoch) continue;
      const u32 prim = id % primaries;
      const u32 repl = prim + primaries;
      const u32 first = res.records[id].attempts % 2 == 0 ? prim : repl;
      const u32 second = first == prim ? repl : prim;
      if (!res.slot_quarantined[first]) {
        reqs.emplace_back(id, first);
      } else if (!res.slot_quarantined[second]) {
        reqs.emplace_back(id, second);
      } else {
        res.records[id].disposition = Disposition::kShed;
        resolved[id] = true;
      }
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](u32 id) { return resolved[id]; }),
                  pending.end());
    if (reqs.empty()) {
      ++epoch;  // everything eligible later: fast-forward (backoff)
      continue;
    }

    WorkloadSpec spec;
    spec.primaries = primaries;
    spec.rounds = cfg.rounds;
    spec.seed = cfg.seed;
    spec.attack =
        attack_disarmed ? redteam::AttackKind::kNone : cfg.attack;
    spec.requests = reqs;
    const BuiltServer built = build_server(spec);

    sim::Machine m(machine_config(cfg, built, epoch, policy));
    const int pid = m.load(built.image);
    if (pid == sim::Machine::kLoadRefused) {
      if (attack_disarmed) {
        // A benign build must admit; refusing it is a configuration bug.
        res.config_ok = false;
        res.monitor_alive = false;
        break;
      }
      res.evidence.verifier_refused = true;
      for (const auto& f : m.verify_report().findings()) {
        if (f.check == analysis::Check::kGateEscape) {
          ++res.evidence.gate_escape_findings;
        }
      }
      // The hostile plugin is dead on arrival: quarantine its slot and
      // keep serving through the replica with a clean build.
      res.slot_quarantined[0] = true;
      ++res.slot_strikes[0];
      attack_disarmed = true;
      continue;  // admission costs no epoch
    }

    // Run the epoch in slices, enforcing the per-request budget from the
    // mark log (an open gate_enter that overstays its budget kills the
    // epoch — the machine is discarded, the attempt counted).
    u64 epoch_instructions = 0, epoch_cycles = 0;
    const u64 epoch_cap =
        3'000'000 + reqs.size() * (cfg.request_budget + 60'000);
    bool killed_by_budget = false;
    bool completed = false;
    while (true) {
      const sim::RunOutcome out = m.run(slice);
      epoch_instructions += out.instructions;
      epoch_cycles += out.cycles;
      if (out.completed) {
        completed = true;
        break;
      }
      const auto& marks = m.kernel().marks();
      if (!marks.empty() && marks.back().kind == os::mark::kGateEnter &&
          m.hart().instret() - marks.back().instret > cfg.request_budget) {
        killed_by_budget = true;
        break;
      }
      if (epoch_instructions >= epoch_cap) {
        killed_by_budget = true;
        break;
      }
    }
    if (killed_by_budget) ++res.evidence.budget_timeouts;
    res.instructions += epoch_instructions;
    res.cycles += epoch_cycles;

    // Evidence + stats.
    const os::KernelStats& ks = m.kernel().stats();
    add_stats(res.kstats, ks);
    res.evidence.seal_violations += ks.seal_violations;
    for (const os::FaultRecord& fr : m.kernel().faults()) {
      if (fr.pkey_fault && fr.pkey == kMonitorPkey) {
        ++res.evidence.monitor_denials;
      }
      if (fr.pkey_fault && fr.pkey == vault_pkey_for(slots)) {
        ++res.evidence.vault_probe_denials;
      }
    }
    // Side-vault evidence: ownership-gate refusals, and — since no unseal
    // in this workload is legitimate — every successful copy is a leak.
    const os::VaultStats& vs = m.kernel().vault_stats();
    res.evidence.unseal_denials += vs.denials;
    res.evidence.vault_leaks += vs.unseals;
    if (m.injector() != nullptr) {
      res.evidence.faults_injected += m.injector()->total_injected();
      res.evidence.faults_recovered_or_killed +=
          m.injector()->total_injected() - m.injector()->outstanding();
    }

    // Parse the mark log into per-request outcomes.
    struct OpenGate {
      bool open = false;
      u32 id = 0;
      u32 slot = 0;
      u64 instret = 0;
    } open_gate;
    struct Outcome {
      u32 id;
      u32 slot;
      bool success;
      u64 cause;    // failure only
      u64 latency;  // success only
    };
    std::vector<Outcome> outcomes;
    for (const os::MarkRecord& mk : m.kernel().marks()) {
      switch (mk.kind) {
        case os::mark::kGateEnter:
          open_gate = {true, static_cast<u32>(mk.arg0),
                       static_cast<u32>(mk.arg1), mk.instret};
          break;
        case os::mark::kGateExit: {
          if (!open_gate.open) break;
          const u64 expected = checksum_for(cfg.seed, open_gate.id,
                                            open_gate.slot, cfg.rounds);
          if (mk.arg1 == expected) {
            outcomes.push_back({open_gate.id, open_gate.slot, true, 0,
                                mk.instret - open_gate.instret});
          } else {
            outcomes.push_back(
                {open_gate.id, open_gate.slot, false, kCauseBadChecksum, 0});
          }
          open_gate.open = false;
          break;
        }
        case os::mark::kDisposition: {
          if (!open_gate.open) break;
          outcomes.push_back(
              {open_gate.id, open_gate.slot, false, mk.arg1, 0});
          if (mk.arg1 == static_cast<u64>(kPoisonGateEntry) ||
              mk.arg1 == static_cast<u64>(kPoisonGateExit)) {
            ++res.evidence.gate_scrubs;
          }
          open_gate.open = false;
          break;
        }
        default:
          break;
      }
    }
    res.crossings += 2 * outcomes.size();
    // A request in flight when the epoch died: one half-crossing, one
    // failed attempt against its slot.
    if (open_gate.open) {
      outcomes.push_back({open_gate.id, open_gate.slot, false,
                          killed_by_budget ? kCauseTimeout
                                           : kCauseMachineKill,
                          0});
      res.crossings += 1;
    }

    // Final dispositions are a host-side judgment (the guest only marks
    // failed attempts), so the host mirrors them onto the obs bus the
    // same way it notarises quarantine transitions — the span builder
    // needs the kRequestDisposition edge to close request spans.
    const auto emit_disposition = [&m](const RequestRecord& rec) {
      if (m.recorder() != nullptr) {
        const u32 pkey = rec.served_by == 0xFFFFFFFF
                             ? obs::kNoPkey
                             : 2 + rec.served_by;  // slot keys start at 2
        m.recorder()->emit(obs::EventKind::kRequestDisposition,
                           m.hart().instret(), m.hart().cycles(), pkey,
                           rec.index, static_cast<u64>(rec.disposition));
      }
    };
    for (const Outcome& oc : outcomes) {
      if (oc.id >= n || resolved[oc.id]) continue;
      RequestRecord& rec = res.records[oc.id];
      if (oc.success) {
        rec.disposition = rec.attempts == 0 ? Disposition::kServed
                                            : Disposition::kRetried;
        rec.served_by = oc.slot;
        rec.latency = oc.latency;
        resolved[oc.id] = true;
        emit_disposition(rec);
        continue;
      }
      ++rec.attempts;
      if (oc.slot < slots) {
        ++res.slot_strikes[oc.slot];
        if (!res.slot_quarantined[oc.slot] &&
            res.slot_strikes[oc.slot] >= cfg.strike_limit) {
          res.slot_quarantined[oc.slot] = true;
          if (m.recorder() != nullptr) {
            m.recorder()->emit(obs::EventKind::kQuarantine,
                               m.hart().instret(), m.hart().cycles(),
                               2 + oc.slot, oc.slot,
                               res.slot_strikes[oc.slot]);
          }
        }
      }
      if (rec.attempts >= cfg.max_attempts) {
        rec.disposition = Disposition::kQuarantined;
        resolved[oc.id] = true;
        emit_disposition(rec);
      } else {
        // Deterministic backoff: sit out one epoch per failed attempt
        // (the next attempt lands on the other slot of the pair).
        eligible[oc.id] = epoch + 1 + rec.attempts;
      }
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](u32 id) { return resolved[id]; }),
                  pending.end());

    if (completed) {
      const i64 code = m.exit_code(pid);
      if (code == kExitBadPkey || code == kExitSealFailed ||
          code == kExitVaultSetup) {
        res.config_ok = false;
        res.monitor_alive = false;
        break;
      }
      if (code == 0) {
        const auto& reports = m.kernel().reports();
        if (reports.size() >= 4) {
          if (reports[0] != kCanary) {
            res.canary_intact = false;
            res.monitor_alive = false;
          }
          res.evidence.probe_attempts += reports[2];
          res.evidence.probe_successes += reports[3];
        }
      }
      // Any other exit code is a machine-level kill (machine check,
      // watchdog): the epoch is lost, its unresolved requests retry on
      // the next one — the plane absorbs the loss, the ledger records it.
    }

    if (cfg.trace && m.recorder() != nullptr) {
      const obs::Trace t = m.recorder()->trace();
      if (res.trace.symbols.empty()) {
        res.trace.ring_capacity = t.ring_capacity;
        res.trace.sample_interval = t.sample_interval;
        res.trace.symbols = t.symbols;
      }
      res.trace.events.insert(res.trace.events.end(), t.events.begin(),
                              t.events.end());
      res.trace.dropped += t.dropped;
    }

    ++res.epochs;
    ++epoch;
  }

  // Whatever is still pending when the epoch budget runs out is shed.
  for (const u32 id : pending) {
    res.records[id].disposition = Disposition::kShed;
  }
  for (const RequestRecord& rec : res.records) {
    switch (rec.disposition) {
      case Disposition::kServed: ++res.served; break;
      case Disposition::kRetried: ++res.retried; break;
      case Disposition::kShed: ++res.shed; break;
      case Disposition::kQuarantined: ++res.quarantined; break;
    }
  }
  if (res.evidence.probe_successes > 0) res.monitor_alive = false;
  if (res.attack != nullptr) {
    res.attack_caught = redteam::caught_by(res.attack->catcher, res.evidence);
  }
  return res;
}

std::vector<AttackRun> run_attack_suite(const ServeConfig& base,
                                        unsigned threads) {
  const std::vector<redteam::Attack>& registry = redteam::attacks();
  std::vector<AttackRun> runs(registry.size());
  for (size_t i = 0; i < registry.size(); ++i) {
    runs[i].cfg = base;
    runs[i].cfg.attack = registry[i].kind;
  }
  pool::run(runs.size(), threads, [&runs](size_t i, unsigned) {
    runs[i].result = run_server(runs[i].cfg);
  });
  return runs;
}

std::string canonical_ledger(const ServeResult& r) {
  std::ostringstream os;
  for (const RequestRecord& rec : r.records) {
    os << "req index=" << rec.index << " home=" << rec.home_slot
       << " attempts=" << rec.attempts
       << " disp=" << disposition_name(rec.disposition);
    if (rec.served_by != 0xFFFFFFFF) {
      os << " by=" << rec.served_by << " latency=" << rec.latency;
    }
    os << "\n";
  }
  os << "summary requests=" << r.records.size() << " served=" << r.served
     << " retried=" << r.retried << " shed=" << r.shed
     << " quarantined=" << r.quarantined << " crossings=" << r.crossings
     << " epochs=" << r.epochs << " instructions=" << r.instructions
     << " cycles=" << r.cycles << " monitor=" << (r.monitor_alive ? 1 : 0)
     << " canary=" << (r.canary_intact ? 1 : 0) << "\n";
  const redteam::CatchEvidence& e = r.evidence;
  os << "evidence refused=" << (e.verifier_refused ? 1 : 0)
     << " gate_escapes=" << e.gate_escape_findings
     << " seal_violations=" << e.seal_violations
     << " monitor_denials=" << e.monitor_denials
     << " gate_scrubs=" << e.gate_scrubs
     << " budget_timeouts=" << e.budget_timeouts
     << " faults_injected=" << e.faults_injected
     << " faults_handled=" << e.faults_recovered_or_killed
     << " probe_attempts=" << e.probe_attempts
     << " probe_successes=" << e.probe_successes
     << " vault_probe_denials=" << e.vault_probe_denials
     << " unseal_denials=" << e.unseal_denials
     << " vault_leaks=" << e.vault_leaks << "\n";
  return os.str();
}

void write_result_json(std::ostream& os, const ServeConfig& cfg,
                       const ServeResult& r) {
  char thr[64];
  std::snprintf(thr, sizeof(thr), "%.2f", r.crossings_per_sec());
  os << "{\n";
  os << "  \"schema\": \"sealpk-serve-v1\",\n";
  os << "  \"attack\": \""
     << json_escape(r.attack != nullptr ? r.attack->name : "none")
     << "\",\n";
  if (r.attack != nullptr) {
    os << "  \"catcher\": \"" << redteam::catcher_name(r.attack->catcher)
       << "\", \"caught\": " << (r.attack_caught ? "true" : "false")
       << ",\n";
  }
  os << "  \"config\": {\"primaries\": " << clamped_primaries(cfg)
     << ", \"requests\": " << cfg.requests << ", \"rounds\": " << cfg.rounds
     << ", \"seed\": " << cfg.seed
     << ", \"request_budget\": " << cfg.request_budget
     << ", \"max_attempts\": " << cfg.max_attempts
     << ", \"strike_limit\": " << cfg.strike_limit
     << ", \"chaos\": " << (cfg.chaos.enabled ? "true" : "false") << "},\n";
  os << "  \"monitor_alive\": " << (r.monitor_alive ? "true" : "false")
     << ", \"canary_intact\": " << (r.canary_intact ? "true" : "false")
     << ", \"config_ok\": " << (r.config_ok ? "true" : "false") << ",\n";
  os << "  \"epochs\": " << r.epochs << ", \"crossings\": " << r.crossings
     << ", \"instructions\": " << r.instructions
     << ", \"cycles\": " << r.cycles
     << ", \"crossings_per_sec\": " << thr << ",\n";
  os << "  \"dispositions\": {\"served\": " << r.served
     << ", \"retried\": " << r.retried << ", \"shed\": " << r.shed
     << ", \"quarantined\": " << r.quarantined << "},\n";
  // Handler-latency quantiles over every served/retried request: the SLO
  // gate's p99 ceiling reads this block. Integer instruction counts
  // through the deterministic histogram, so the block is byte-identical
  // across hosts and thread counts.
  obs::Histogram lat;
  for (const RequestRecord& rec : r.records) {
    if (rec.served_by != 0xFFFFFFFF) lat.record(rec.latency);
  }
  os << "  \"latency\": " << lat.quantiles_json() << ",\n";
  const redteam::CatchEvidence& e = r.evidence;
  os << "  \"evidence\": {\"verifier_refused\": "
     << (e.verifier_refused ? "true" : "false")
     << ", \"gate_escape_findings\": " << e.gate_escape_findings
     << ", \"seal_violations\": " << e.seal_violations
     << ", \"monitor_denials\": " << e.monitor_denials
     << ", \"gate_scrubs\": " << e.gate_scrubs
     << ", \"budget_timeouts\": " << e.budget_timeouts
     << ", \"faults_injected\": " << e.faults_injected
     << ", \"faults_handled\": " << e.faults_recovered_or_killed
     << ", \"probe_attempts\": " << e.probe_attempts
     << ", \"probe_successes\": " << e.probe_successes
     << ", \"vault_probe_denials\": " << e.vault_probe_denials
     << ", \"unseal_denials\": " << e.unseal_denials
     << ", \"vault_leaks\": " << e.vault_leaks << "},\n";
  os << "  \"slots\": [";
  for (u32 s = 0; s < r.slot_strikes.size(); ++s) {
    if (s != 0) os << ", ";
    os << "{\"slot\": " << s << ", \"strikes\": " << r.slot_strikes[s]
       << ", \"quarantined\": " << (r.slot_quarantined[s] ? "true" : "false")
       << "}";
  }
  os << "],\n";
  os << "  \"requests\": [\n";
  for (size_t i = 0; i < r.records.size(); ++i) {
    const RequestRecord& rec = r.records[i];
    os << "    {\"index\": " << rec.index << ", \"home\": " << rec.home_slot
       << ", \"attempts\": " << rec.attempts << ", \"disposition\": \""
       << disposition_name(rec.disposition) << "\"";
    if (rec.served_by != 0xFFFFFFFF) {
      os << ", \"served_by\": " << rec.served_by
         << ", \"latency\": " << rec.latency;
    }
    os << "}" << (i + 1 < r.records.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

}  // namespace sealpk::serve
