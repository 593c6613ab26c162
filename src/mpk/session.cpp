#include "mpk/session.h"

#include <algorithm>
#include <sstream>

#include "common/pool.h"
#include "hw/pkr.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace sealpk::mpk {

const char* session_mode(const SessionConfig& cfg) {
  if (cfg.flavor != core::IsaFlavor::kSealPk) {
    return cfg.lazy_sync ? "mpk-lazy" : "mpk-eager";
  }
  if (cfg.raw) return "raw";
  return cfg.lazy_sync ? "virt-lazy" : "virt-eager";
}

SessionResult run_session_server(const SessionConfig& cfg) {
  SEALPK_CHECK_MSG(!cfg.raw || (cfg.flavor == core::IsaFlavor::kSealPk &&
                                 cfg.sessions <= kRawSessionCap),
                   "raw mode needs the SealPK flavour and sessions <= "
                       << kRawSessionCap);
  const wl::SessionShape shape{.sessions = cfg.sessions,
                               .ops = cfg.ops,
                               .seed = cfg.seed,
                               .raw = cfg.raw};

  sim::MachineConfig mc;
  mc.hart.flavor = cfg.flavor;
  mc.kernel.vkey_mru_slots = cfg.mru_slots;
  mc.kernel.vkey_lazy_sync = cfg.lazy_sync;
  mc.trace.enabled = cfg.trace;
  // One arena page per session plus page tables and slack; the default
  // 256 MiB board covers everything up to ~50k sessions.
  const u64 arena = cfg.sessions * mem::kPageSize;
  mc.mem_bytes =
      std::max<u64>(mc.mem_bytes,
                    align_up(arena + arena / 64 + (96ULL << 20),
                             mem::kPageSize));

  sim::Machine machine(mc);
  const int pid = machine.load(wl::build_session_prog(shape).link());
  SEALPK_CHECK(pid >= 0);
  const sim::RunOutcome out = machine.run(cfg.max_instructions);

  SessionResult r;
  r.completed = out.completed;
  r.instructions = out.instructions;
  r.cycles = out.cycles;
  r.exit_code = machine.exit_code(pid);
  r.expected = wl::golden_session_sum(shape);
  const auto& reports = machine.kernel().reports();
  r.checksum = reports.empty() ? 0 : reports.front();
  r.checksum_ok = r.completed && r.checksum == r.expected;

  const wl::SessionSchedule sched = wl::session_schedule(shape);
  r.connects = sched.connects;
  r.reconnects = sched.reconnects;
  r.touches = sched.touches;
  // alloc + mprotect + open + close per connect, free per reconnect,
  // open + close per touch — mode-independent, so raw and virtualized
  // cells of one shape share the numerator.
  r.churn_ops = 4 * sched.connects + sched.reconnects + 2 * sched.touches;

  if (!cfg.raw) {
    const os::Process& proc = machine.kernel().process(pid);
    if (proc.vkeys) {
      r.vstats = proc.vkeys->stats();
      r.live = proc.vkeys->live();
      r.mapped = proc.vkeys->mapped();
    }
  }
  if (machine.recorder() != nullptr) r.trace = machine.recorder()->trace();
  return r;
}

std::string session_record(const SessionConfig& cfg,
                           const SessionResult& r) {
  std::ostringstream os;
  const VkeyStats& v = r.vstats;
  os << "mode=" << session_mode(cfg) << " sessions=" << cfg.sessions
     << " ops=" << cfg.ops << " seed=" << cfg.seed << " mru=" << cfg.mru_slots
     << " ok=" << (r.ok() ? 1 : 0) << " checksum=" << r.checksum
     << " live=" << r.live << " mapped=" << r.mapped
     << " allocs=" << v.allocs << " frees=" << v.frees << " sets=" << v.sets
     << " mprotects=" << v.mprotects << " map_ins=" << v.map_ins
     << " revivals=" << v.revivals << " mru_hits=" << v.mru_hits
     << " evictions=" << v.evictions << " drains=" << v.drains
     << " drain_flushes=" << v.drain_flushes << " pte_rekeys=" << v.pte_rekeys
     << " tlb_flushes=" << v.tlb_flushes << " churn_ops=" << r.churn_ops
     << " instructions=" << r.instructions << " cycles=" << r.cycles
     << " churn_per_sec=" << r.churn_per_sec() << "\n";
  return os.str();
}

std::vector<ChurnCell> run_churn_sweep(const std::vector<u64>& scales,
                                       u64 seed, unsigned threads) {
  std::vector<ChurnCell> cells;
  for (const u64 sessions : scales) {
    for (const bool lazy : {false, true}) {
      ChurnCell cell;
      cell.cfg.sessions = sessions;
      cell.cfg.ops = 2 * sessions;
      cell.cfg.seed = seed;
      cell.cfg.lazy_sync = lazy;
      cells.push_back(cell);
    }
    if (sessions <= kRawSessionCap) {
      ChurnCell cell;
      cell.cfg.sessions = sessions;
      cell.cfg.ops = 2 * sessions;
      cell.cfg.seed = seed;
      cell.cfg.raw = true;
      cells.push_back(cell);
    }
  }
  pool::run(cells.size(), threads, [&cells](size_t i, unsigned) {
    cells[i].result = run_session_server(cells[i].cfg);
  });
  return cells;
}

std::string sweep_records(const std::vector<ChurnCell>& cells) {
  std::string out;
  for (const ChurnCell& cell : cells) {
    out += session_record(cell.cfg, cell.result);
  }
  return out;
}

std::string churn_json(const std::vector<ChurnCell>& cells) {
  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"keychurn\",\n"
     << "  \"nominal_hz\": " << core::kNominalHz << ",\n"
     << "  \"physical_keys\": " << (hw::kNumPkeys - 1) << ",\n"
     << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const SessionConfig& cfg = cells[i].cfg;
    const SessionResult& r = cells[i].result;
    const VkeyStats& v = r.vstats;
    os << "    {\"mode\": \"" << session_mode(cfg) << "\""
       << ", \"sessions\": " << cfg.sessions << ", \"ops\": " << cfg.ops
       << ", \"seed\": " << cfg.seed << ", \"mru_slots\": " << cfg.mru_slots
       << ", \"ok\": " << (r.ok() ? "true" : "false")
       << ", \"checksum\": " << r.checksum << ", \"live\": " << r.live
       << ", \"mapped\": " << r.mapped << ", \"allocs\": " << v.allocs
       << ", \"frees\": " << v.frees << ", \"sets\": " << v.sets
       << ", \"mprotects\": " << v.mprotects << ", \"map_ins\": " << v.map_ins
       << ", \"revivals\": " << v.revivals << ", \"mru_hits\": " << v.mru_hits
       << ", \"evictions\": " << v.evictions << ", \"drains\": " << v.drains
       << ", \"drain_flushes\": " << v.drain_flushes
       << ", \"pte_rekeys\": " << v.pte_rekeys
       << ", \"tlb_flushes\": " << v.tlb_flushes
       << ", \"churn_ops\": " << r.churn_ops
       << ", \"instructions\": " << r.instructions
       << ", \"cycles\": " << r.cycles
       << ", \"churn_per_sec\": " << r.churn_per_sec() << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace sealpk::mpk
