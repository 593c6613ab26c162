// vkey-churn: the session server at 6x the physical keys, lazy drain. It is
// kernel-bound (vkey map-in and eviction, PTE re-keying, TLB shootdowns),
// the contrast to fig5's interpreter-bound matrix.
#include <algorithm>
#include <memory>
#include <string>

#include "drive.h"
#include "mpk/session.h"
#include "workloads.h"
#include "workloads/workload.h"

namespace hostbench {

namespace mpk = sealpk::mpk;
namespace sim = sealpk::sim;
namespace wl = sealpk::wl;

namespace {

mpk::SessionConfig config(const Options& opts) {
  mpk::SessionConfig cfg;
  cfg.sessions = opts.tiny ? 1100 : 6 * 1024;
  cfg.ops = opts.tiny ? 1100 : 4 * cfg.sessions;
  cfg.seed = opts.seed;
  cfg.lazy_sync = true;
  return cfg;
}

wl::SessionShape shape_of(const mpk::SessionConfig& cfg) {
  return {.sessions = cfg.sessions, .ops = cfg.ops, .seed = cfg.seed,
          .raw = cfg.raw};
}

// The machine run_session_server builds for `cfg`.
sim::MachineConfig machine_config(const mpk::SessionConfig& cfg) {
  sim::MachineConfig mc;
  mc.kernel.vkey_mru_slots = cfg.mru_slots;
  mc.kernel.vkey_lazy_sync = cfg.lazy_sync;
  const u64 arena = cfg.sessions * sealpk::mem::kPageSize;
  mc.mem_bytes = std::max<u64>(
      mc.mem_bytes, sealpk::align_up(arena + arena / 64 + (96ULL << 20),
                                     sealpk::mem::kPageSize));
  return mc;
}

// Build, link, construct and load, timing each layer.
std::unique_ptr<sim::Machine> prepare(const mpk::SessionConfig& cfg,
                                      Layers& layers, int* pid,
                                      sealpk::isa::Image* image) {
  double t0 = now_s();
  sealpk::isa::Program prog = wl::build_session_prog(shape_of(cfg));
  layers.build_s += now_s() - t0;
  t0 = now_s();
  *image = prog.link();
  layers.link_s += now_s() - t0;
  std::unique_ptr<sim::Machine> m = new_machine(machine_config(cfg), layers);
  *pid = load(*m, *image, layers);
  return m;
}

// run_session_server's result fields for a machine the traced loop ran.
mpk::SessionResult result_of(const mpk::SessionConfig& cfg, sim::Machine& m,
                             int pid, const sim::RunOutcome& out) {
  const wl::SessionShape shape = shape_of(cfg);
  mpk::SessionResult r;
  r.completed = out.completed;
  r.instructions = out.instructions;
  r.cycles = out.cycles;
  r.exit_code = m.exit_code(pid);
  r.expected = wl::golden_session_sum(shape);
  const std::vector<u64>& reports = m.kernel().reports();
  r.checksum = reports.empty() ? 0 : reports.front();
  r.checksum_ok = r.completed && r.checksum == r.expected;
  const wl::SessionSchedule sched = wl::session_schedule(shape);
  r.connects = sched.connects;
  r.reconnects = sched.reconnects;
  r.touches = sched.touches;
  r.churn_ops = 4 * sched.connects + sched.reconnects + 2 * sched.touches;
  const sealpk::os::Process& proc = m.kernel().process(pid);
  if (proc.vkeys) {
    r.vstats = proc.vkeys->stats();
    r.live = proc.vkeys->live();
    r.mapped = proc.vkeys->mapped();
  }
  return r;
}

class VkeyChurnService final : public Service {
 public:
  VkeyChurnService(const Options& opts, Result& res)
      : opts_(opts), res_(res), cfg_(config(opts)) {}

  const char* name() const override { return "vkey-churn"; }

  double setup() override {
    Layers scratch;
    int pid = 0;
    sealpk::isa::Image image;
    const double t0 = now_s();
    const bool loaded = prepare(cfg_, scratch, &pid, &image) != nullptr;
    const double s = now_s() - t0;
    if (!loaded || pid < 0) res_.fail("session guest failed to load");
    return s;
  }

  Rep rep() override {
    const double t0 = now_s();
    const mpk::SessionResult r = mpk::run_session_server(cfg_);
    Rep out;
    out.wall_s = now_s() - t0;
    // Oracle: SessionResult::ok() — completed, exit 0, and the guest
    // checksum equal to the host golden model.
    const u64 golden = r.expected + (opts_.corrupt_oracle ? 1 : 0);
    res_.check(r.ok() && r.checksum == golden,
               "session run: exit=" + std::to_string(r.exit_code) +
                   " checksum=" + std::to_string(r.checksum) +
                   " expected=" + std::to_string(golden));
    out.instructions = static_cast<double>(r.instructions);
    out.sim_cycles = static_cast<double>(r.cycles);
    out.ops = static_cast<double>(r.churn_ops);
    const std::string record = mpk::session_record(cfg_, r);
    if (expected_.empty()) {
      expected_ = record;
    } else if (record != expected_) {
      res_.fail("session record differs between repetitions");
    }
    return out;
  }

  double traced_rep(Layers& layers) override {
    const double t0 = now_s();
    m_ = prepare(cfg_, layers, &pid_, &image_);
    const sim::RunOutcome out = drive(*m_, cfg_.max_instructions, layers);
    fold(*m_, layers);
    const mpk::SessionResult r = result_of(cfg_, *m_, pid_, out);
    const double wall = now_s() - t0;
    if (mpk::session_record(cfg_, r) != expected_) {
      res_.fail("traced session record differs from untraced");
    }
    return wall;
  }

  const sealpk::isa::Image* image() const override {
    return m_ != nullptr ? &image_ : nullptr;
  }
  sim::Machine* machine(int* pid) override {
    *pid = pid_;
    return m_.get();
  }

  std::string digest_line() const override {
    return "digest vkey-churn " + digest(expected_) + " (session record)";
  }

 private:
  const Options& opts_;
  Result& res_;
  const mpk::SessionConfig cfg_;
  std::string expected_;
  std::unique_ptr<sim::Machine> m_;
  int pid_ = 0;
  sealpk::isa::Image image_;
};

}  // namespace

std::unique_ptr<Service> make_vkey_churn(const Options& opts, Result& res) {
  return std::make_unique<VkeyChurnService>(opts, res);
}

}  // namespace hostbench
