// serve: a clean plugin-server run, the crossing-dense workload (WRPKR and
// RDPKR through perm-sealed gates, PK-CAM, a kMark syscall per crossing)
// and the only one admitted through the static verifier.
#include <memory>
#include <string>

#include "analysis/verifier.h"
#include "drive.h"
#include "serve/server.h"
#include "workloads.h"

namespace hostbench {

namespace serve = sealpk::serve;
namespace sim = sealpk::sim;
namespace os = sealpk::os;

namespace {

serve::ServeConfig config(const Options& opts) {
  serve::ServeConfig cfg;
  cfg.primaries = 3;
  cfg.requests = opts.tiny ? 300 : 24000;
  cfg.seed = opts.seed;
  return cfg;  // verify = kEnforce: every epoch is admitted by the verifier
}

// The guest run_server builds for its first epoch: every request routed to
// its home primary, in index order.
serve::WorkloadSpec first_epoch(const serve::ServeConfig& cfg) {
  serve::WorkloadSpec spec;
  spec.primaries = cfg.primaries;
  spec.rounds = cfg.rounds;
  spec.seed = cfg.seed;
  for (u32 i = 0; i < cfg.requests; ++i) {
    spec.requests.emplace_back(i, i % cfg.primaries);
  }
  return spec;
}

// Build, admit and load the first epoch, timing each layer. Returns the
// loaded machine (null when admission refused the image).
std::unique_ptr<sim::Machine> prepare(const serve::ServeConfig& cfg,
                                      Layers& layers, int* pid,
                                      serve::BuiltServer* built) {
  double t0 = now_s();
  *built = serve::build_server(first_epoch(cfg));
  layers.build_s += now_s() - t0;
  t0 = now_s();
  const sealpk::analysis::Report report =
      sealpk::analysis::verify_image(built->image, built->verify_options);
  layers.verify_s += now_s() - t0;
  if (!report.admissible()) return nullptr;
  // Admission ran above, on its own clock; the machine loads without
  // repeating it (the verdict only gates the load).
  std::unique_ptr<sim::Machine> m = new_machine(sim::MachineConfig{}, layers);
  *pid = load(*m, built->image, layers);
  return m;
}

// run_server's bookkeeping for one clean epoch, rebuilt from a machine the
// traced loop ran: the same mark parsing, evidence and dispositions, so
// canonical_ledger() can be compared byte for byte.
serve::ServeResult ledger_of(const serve::ServeConfig& cfg, sim::Machine& m,
                             int pid, const sim::RunOutcome& out,
                             bool* clean) {
  const u32 slots = 2 * cfg.primaries;
  serve::ServeResult r;
  r.epochs = 1;
  r.instructions = out.instructions;
  r.cycles = out.cycles;
  r.slot_strikes.assign(slots, 0);
  r.slot_quarantined.assign(slots, false);
  r.records.resize(cfg.requests);
  for (u32 i = 0; i < cfg.requests; ++i) {
    r.records[i].index = i;
    r.records[i].home_slot = i % cfg.primaries;
  }
  const os::KernelStats& ks = m.kernel().stats();
  r.evidence.seal_violations = ks.seal_violations;
  for (const os::FaultRecord& fr : m.kernel().faults()) {
    if (fr.pkey_fault && fr.pkey == serve::kMonitorPkey) {
      ++r.evidence.monitor_denials;
    }
    if (fr.pkey_fault && fr.pkey == serve::vault_pkey_for(slots)) {
      ++r.evidence.vault_probe_denials;
    }
  }
  r.evidence.unseal_denials = m.kernel().vault_stats().denials;
  r.evidence.vault_leaks = m.kernel().vault_stats().unseals;

  *clean = out.completed;
  bool open = false;
  u32 open_id = 0, open_slot = 0;
  u64 open_instret = 0;
  for (const os::MarkRecord& mk : m.kernel().marks()) {
    if (mk.kind == os::mark::kGateEnter) {
      open = true;
      open_id = static_cast<u32>(mk.arg0);
      open_slot = static_cast<u32>(mk.arg1);
      open_instret = mk.instret;
    } else if (mk.kind == os::mark::kGateExit && open) {
      open = false;
      r.crossings += 2;
      const bool good =
          open_id < cfg.requests &&
          mk.arg1 == serve::checksum_for(cfg.seed, open_id, open_slot,
                                         cfg.rounds) &&
          r.records[open_id].served_by == 0xFFFFFFFF;
      if (!good) {
        *clean = false;
        continue;
      }
      serve::RequestRecord& rec = r.records[open_id];
      rec.disposition = serve::Disposition::kServed;
      rec.served_by = open_slot;
      rec.latency = mk.instret - open_instret;
    } else if (mk.kind == os::mark::kDisposition && open) {
      // A failed attempt: run_server would retry it in a later epoch, which
      // a clean run never needs.
      *clean = false;
      open = false;
    }
  }
  if (open) *clean = false;
  if (m.exit_code(pid) != 0) *clean = false;
  const std::vector<u64>& reports = m.kernel().reports();
  if (reports.size() >= 4) {
    if (reports[0] != serve::kCanary) {
      r.canary_intact = false;
      r.monitor_alive = false;
    }
    r.evidence.probe_attempts = reports[2];
    r.evidence.probe_successes = reports[3];
  }
  for (const serve::RequestRecord& rec : r.records) {
    if (rec.disposition == serve::Disposition::kServed) {
      ++r.served;
    } else {
      ++r.shed;
    }
  }
  if (r.evidence.probe_successes > 0) r.monitor_alive = false;
  return r;
}

class ServeService final : public Service {
 public:
  ServeService(const Options& opts, Result& res)
      : opts_(opts), res_(res), cfg_(config(opts)) {}

  const char* name() const override { return "serve"; }

  double setup() override {
    Layers scratch;
    int pid = 0;
    serve::BuiltServer built;
    const double t0 = now_s();
    const bool admitted = prepare(cfg_, scratch, &pid, &built) != nullptr;
    const double s = now_s() - t0;
    if (!admitted) res_.fail("verifier refused the clean server image");
    return s;
  }

  Rep rep() override {
    const double t0 = now_s();
    serve::ServeResult r = serve::run_server(cfg_);
    Rep out;
    out.wall_s = now_s() - t0;
    // Oracle: every request completed (served, or served after a retry)
    // with its checksum, and the monitor survived.
    const u64 want = cfg_.requests + (opts_.corrupt_oracle ? 1 : 0);
    const u64 done = r.monitor_alive && r.config_ok && r.canary_intact
                         ? r.served + r.retried
                         : 0;
    res_.attempted += want;
    if (done != want) {
      res_.failed += want > done ? want - done : 1;
      res_.log.push_back("FAIL served+retried=" + std::to_string(done) +
                         " of " + std::to_string(want) + " requests");
    }
    out.instructions = static_cast<double>(r.instructions);
    out.sim_cycles = static_cast<double>(r.cycles);
    out.ops = static_cast<double>(done);
    const std::string ledger = serve::canonical_ledger(r);
    if (expected_.empty()) {
      expected_ = ledger;
    } else if (ledger != expected_) {
      res_.fail("serve ledger differs between repetitions");
    }
    last_ = std::move(r);
    return out;
  }

  double traced_rep(Layers& layers) override {
    if (last_.epochs != 1) {
      res_.fail("clean serve run took " + std::to_string(last_.epochs) +
                " epochs; the traced loop replays one");
    }
    const double t0 = now_s();
    m_ = prepare(cfg_, layers, &pid_, &built_);
    if (m_ == nullptr) {
      res_.fail("verifier refused the clean server image");
      return now_s() - t0;
    }
    const sim::RunOutcome out = drive(
        *m_, 3'000'000 + cfg_.requests * (cfg_.request_budget + 60'000),
        layers);
    fold(*m_, layers);
    bool clean = false;
    const serve::ServeResult r = ledger_of(cfg_, *m_, pid_, out, &clean);
    const double wall = now_s() - t0;
    if (!clean || serve::canonical_ledger(r) != expected_) {
      res_.fail("traced serve ledger differs from untraced");
    }
    return wall;
  }

  void extras(Extras& x, double wall_s) const override {
    x.serve_epochs = static_cast<double>(last_.epochs);
    x.serve_crossings = static_cast<double>(last_.crossings);
    if (last_.crossings != 0) {
      x.serve_host_ns_per_crossing =
          wall_s * 1e9 / static_cast<double>(last_.crossings);
    }
  }

  const sealpk::isa::Image* image() const override {
    return m_ != nullptr ? &built_.image : nullptr;
  }
  sim::Machine* machine(int* pid) override {
    *pid = pid_;
    return m_.get();
  }

  std::string digest_line() const override {
    return "digest serve " + digest(expected_) + " (canonical ledger)";
  }

 private:
  const Options& opts_;
  Result& res_;
  const serve::ServeConfig cfg_;
  std::string expected_;
  serve::ServeResult last_;
  std::unique_ptr<sim::Machine> m_;
  int pid_ = 0;
  serve::BuiltServer built_;
};

}  // namespace

std::unique_ptr<Service> make_serve(const Options& opts, Result& res) {
  return std::make_unique<ServeService>(opts, res);
}

}  // namespace hostbench
