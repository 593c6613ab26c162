// vault-crash: the default crash-anywhere sweep. Every point builds a fresh
// machine that runs a few thousand guest instructions, so machine
// lifecycle, snapshot save/restore and cold replay dominate, and the
// interpreter barely registers.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "drive.h"
#include "snapshot/snapshot.h"
#include "vault/sweep.h"
#include "workloads.h"

namespace hostbench {

namespace sim = sealpk::sim;
namespace vault = sealpk::vault;

namespace {

// vault::run_sweep's budget for runs to completion.
constexpr u64 kRunBudget = 400'000'000ULL;

vault::SweepConfig config(const Options& opts) {
  vault::SweepConfig cfg;
  cfg.spec.seed = opts.seed;
  cfg.threads = 1;
  if (opts.tiny) {
    cfg.spec.seals = 2;
    cfg.spec.reseals = 1;
    cfg.spec.unseals = 1;
    cfg.min_points = 20;
    cfg.stride_points = 10;
  }
  return cfg;
}

sim::MachineConfig machine_config(const vault::SweepConfig& cfg) {
  sim::MachineConfig mc;
  mc.checkpoint_interval = cfg.checkpoint_interval;
  return mc;
}

// Cold replay of the vault region of `pid` (timed as vault.replay_s).
vault::Ledger replay(sim::Machine& m, int pid, Layers& layers) {
  const double t0 = now_s();
  vault::Ledger ledger;
  const sealpk::os::AddressSpace& aspace = *m.kernel().process(pid).aspace;
  if (const std::optional<vault::VaultLocation> loc =
          vault::find_vault(aspace)) {
    std::vector<u8> region(loc->geo.total_len());
    if (aspace.copy_in(loc->base, region.data(), region.size())) {
      ledger = vault::replay(region.data(), region.size());
    }
  }
  layers.replay.s += now_s() - t0;
  ++layers.replay.count;
  return ledger;
}

// The instret of the last checkpoint a machine killed at `crash_at` holds:
// run() checkpoints at instret 0, interval, 2*interval, ... and stops at
// crash_at before taking one there.
u64 last_checkpoint(u64 crash_at, u64 interval) {
  return (crash_at - 1) / interval * interval;
}

// Guest instructions one sweep retires: the learning run, every killed run
// up to its crash point, and every checkpoint-resume leg to completion.
u64 sweep_instructions(const vault::SweepResult& r, u64 interval) {
  u64 total = r.total_instructions;
  for (const vault::PointVerdict& v : r.verdicts) {
    total += v.instret;
    if (v.resumed) {
      total += r.total_instructions - last_checkpoint(v.instret, interval);
    }
  }
  return total;
}

class VaultCrashService final : public Service {
 public:
  VaultCrashService(const Options& opts, Result& res)
      : res_(res),
        cfg_(config(opts)),
        mc_(machine_config(cfg_)),
        built_(vault::build_vault(cfg_.spec)),
        oracle_ledger_(built_.expected_ledger) {
    // The oracle ledger comes from another seed's plan when the self-test
    // asks for a deliberately wrong expectation.
    if (opts.corrupt_oracle) {
      vault::VaultSpec other = cfg_.spec;
      other.seed += 1;
      oracle_ledger_ = vault::build_vault(other).expected_ledger;
    }
    // sim_cycles: modelled cycles of one uninterrupted run of the guest (the
    // sweep's learning run), which run_sweep does not return.
    sim::Machine m(mc_);
    const int pid = m.load(built_.image);
    m.run(kRunBudget);
    sim_cycles_ = static_cast<double>(m.hart().cycles());
    if (m.exit_code(pid) != 0) res_.fail("uninterrupted vault run failed");
  }

  const char* name() const override { return "vault-crash"; }

  // What run_sweep does before its learning run.
  double setup() override {
    Layers scratch;
    const double t0 = now_s();
    built_ = vault::build_vault(cfg_.spec);
    const std::unique_ptr<sim::Machine> m = new_machine(mc_, scratch);
    const int pid = load(*m, built_.image, scratch);
    const double s = now_s() - t0;
    if (pid < 0) res_.fail("vault guest failed to load");
    return s;
  }

  Rep rep() override {
    const double t0 = now_s();
    vault::SweepResult r = vault::run_sweep(cfg_);
    Rep out;
    out.wall_s = now_s() - t0;
    // Oracle: the learning run reproduced the planned ledger, and every
    // crash point kept the durability triple (failures == 0, ok).
    res_.check(r.learning_failure.empty() && r.final_ledger == oracle_ledger_,
               "learning run / final ledger");
    for (const vault::PointVerdict& v : r.verdicts) {
      res_.check(v.ok, "crash point " + std::to_string(v.instret) + ": " +
                           v.failure);
    }
    if (!r.ok || r.failures != 0) res_.fail("sweep verdict not ok");
    out.instructions =
        static_cast<double>(sweep_instructions(r, cfg_.checkpoint_interval));
    out.ops = static_cast<double>(r.points);
    out.sim_cycles = sim_cycles_;
    if (expected_.empty()) {
      expected_ = r.canonical;
    } else if (r.canonical != expected_) {
      res_.fail("sweep canonical verdict differs between repetitions");
    }
    last_ = std::move(r);
    return out;
  }

  double traced_rep(Layers& layers) override {
    const u64 interval = cfg_.checkpoint_interval;
    // A machine's own checkpoint equals the blob the traced loop saves
    // (once per run, off the traced clock).
    if (!blob_checked_) {
      blob_checked_ = true;
      for (const vault::PointVerdict& v : last_.verdicts) {
        if (!v.resumed) continue;
        Layers scratch;
        std::vector<u8> blob;
        sim::Machine own(mc_);
        own.load(built_.image);
        own.run(v.instret);
        const std::unique_ptr<sim::Machine> m = new_machine(mc_, scratch);
        load(*m, built_.image, scratch);
        drive(*m, v.instret, scratch, &blob);
        if (blob != own.checkpoint_blob()) {
          res_.fail("traced checkpoint blob differs from Machine::run's");
        }
        break;
      }
    }

    const double t0 = now_s();
    const double t_build = now_s();
    const vault::BuiltVault rebuilt = vault::build_vault(cfg_.spec);
    layers.build_s += now_s() - t_build;
    learn_ = new_machine(mc_, layers);
    learn_pid_ = load(*learn_, rebuilt.image, layers);
    const sim::RunOutcome lo = drive(*learn_, kRunBudget, layers);
    fold(*learn_, layers);
    bool same = lo.completed && learn_->exit_code(learn_pid_) == 0 &&
                vault::ledger_string(replay(*learn_, learn_pid_, layers)) ==
                    rebuilt.expected_ledger &&
                lo.instructions == last_.total_instructions;
    u64 executed = lo.instructions;
    for (const vault::PointVerdict& v : last_.verdicts) {
      std::vector<u8> blob;
      const std::unique_ptr<sim::Machine> m = new_machine(mc_, layers);
      const int pid = load(*m, rebuilt.image, layers);
      const sim::RunOutcome out = drive(*m, v.instret, layers, &blob);
      fold(*m, layers);
      executed += out.instructions;
      const vault::Ledger ledger = replay(*m, pid, layers);
      same = same && out.instructions == v.instret &&
             ledger.live.size() == v.live &&
             ledger.commits_seen == v.commits &&
             ledger.torn_or_corrupt == v.torn;
      if (!v.resumed) continue;
      const std::unique_ptr<sim::Machine> resumed =
          new_machine(sealpk::snapshot::config_from(blob), layers);
      const double t_restore = now_s();
      sealpk::snapshot::restore(*resumed, blob);
      layers.restore.s += now_s() - t_restore;
      ++layers.restore.count;
      const sim::MachineStats since = sim::collect_stats(*resumed);
      const sim::RunOutcome ro = drive(*resumed, kRunBudget, layers);
      fold(*resumed, layers, &since);
      executed += ro.instructions;
      same = same && ro.completed && resumed->exit_code(pid) == 0 &&
             vault::ledger_string(replay(*resumed, pid, layers)) ==
                 rebuilt.expected_ledger &&
             resumed->hart().instret() - ro.instructions ==
                 last_checkpoint(v.instret, interval);
    }
    const double wall = now_s() - t0;
    if (!same) res_.fail("traced sweep replay differs from the untraced sweep");
    if (executed != sweep_instructions(last_, interval)) {
      res_.fail("traced sweep retired " + std::to_string(executed) +
                " instructions, the untraced count says " +
                std::to_string(sweep_instructions(last_, interval)));
    }
    return wall;
  }

  void extras(Extras& x, double /*wall_s*/) const override {
    x.vault_points = static_cast<double>(last_.points);
    x.vault_resume_points = static_cast<double>(last_.resume_points);
  }

  const sealpk::isa::Image* image() const override {
    return learn_ != nullptr ? &built_.image : nullptr;
  }
  sim::Machine* machine(int* pid) override {
    *pid = learn_pid_;
    return learn_.get();
  }

  std::string digest_line() const override {
    return "digest vault-crash " + digest(expected_) +
           " (sweep canonical verdict)";
  }

 private:
  Result& res_;
  const vault::SweepConfig cfg_;
  const sim::MachineConfig mc_;
  vault::BuiltVault built_;
  std::string oracle_ledger_;
  double sim_cycles_ = 0;
  std::string expected_;
  vault::SweepResult last_;
  bool blob_checked_ = false;
  std::unique_ptr<sim::Machine> learn_;
  int learn_pid_ = 0;
};

}  // namespace

std::unique_ptr<Service> make_vault_crash(const Options& opts, Result& res) {
  return std::make_unique<VaultCrashService>(opts, res);
}

}  // namespace hostbench
