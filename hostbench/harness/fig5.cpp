// fig5: the paper's evaluation matrix, the interpreter hot path.
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "common/rng.h"
#include "drive.h"
#include "fleet/engine.h"
#include "workloads.h"

namespace hostbench {

namespace fleet = sealpk::fleet;
namespace passes = sealpk::passes;
namespace sim = sealpk::sim;
namespace wl = sealpk::wl;

namespace {

struct Variant {
  passes::ShadowStackKind ss;
  bool perm_seal;
};

// none, inline, func, sealpk-wr, sealpk-rdwr, mprotect, sealed: the same
// axis and order as sealpk-fleet's matrix.
constexpr Variant kVariants[] = {
    {passes::ShadowStackKind::kNone, false},
    {passes::ShadowStackKind::kInline, false},
    {passes::ShadowStackKind::kFunc, false},
    {passes::ShadowStackKind::kSealPkWr, false},
    {passes::ShadowStackKind::kSealPkRdWr, false},
    {passes::ShadowStackKind::kMprotect, false},
    {passes::ShadowStackKind::kSealPkWr, true},
};

// Every cell at its workload's test scale. Ids are matrix positions; the
// seed only fixes the order the cells are dispatched in.
std::vector<fleet::JobSpec> matrix(const Options& opts) {
  std::vector<fleet::JobSpec> specs;
  const std::vector<wl::Workload>& all = wl::all_workloads();
  const size_t workloads = opts.tiny ? 2 : all.size();
  for (size_t w = 0; w < workloads; ++w) {
    for (const Variant& v : kVariants) {
      fleet::JobSpec spec;
      spec.id = static_cast<u32>(specs.size());
      spec.workload = &all[w];
      spec.ss = v.ss;
      spec.perm_seal = v.perm_seal;
      spec.scale = all[w].test_scale;
      specs.push_back(spec);
    }
  }
  sealpk::Rng rng(opts.seed);
  for (size_t i = specs.size(); i > 1; --i) {
    std::swap(specs[i - 1], specs[rng.below(i)]);
  }
  return specs;
}

// The oracle, checked here rather than trusted from the engine's verdict.
bool cell_ok(const fleet::JobSpec& spec, const fleet::JobResult& r,
             bool corrupt_oracle) {
  const u64 golden =
      spec.workload->golden(spec.scale) + (corrupt_oracle ? 1 : 0);
  return r.ok && r.completed && r.exit_code == 0 && r.reports.size() == 1 &&
         r.reports[0] == golden;
}

// Canonical job records in matrix order, whatever order they ran in.
std::map<u32, std::string> records(const std::vector<fleet::JobResult>& rs) {
  std::map<u32, std::string> out;
  for (const fleet::JobResult& r : rs) out[r.id] = fleet::canonical_record(r);
  return out;
}

// One cell on the traced loop, filling the fields fleet::execute_job's kRun
// path fills (so canonical_record can be compared byte for byte).
fleet::JobResult traced_cell(const fleet::JobSpec& spec,
                             const sealpk::isa::Image& image, Layers& layers,
                             std::unique_ptr<sim::Machine>* keep,
                             int* pid_out) {
  fleet::JobResult r;
  r.id = spec.id;
  r.label = spec.label();
  r.workload = spec.workload;
  r.ss = spec.ss;
  r.perm_seal = spec.perm_seal;
  r.kind = spec.kind;
  std::unique_ptr<sim::Machine> m = new_machine(spec.config, layers);
  const int pid = load(*m, image, layers);
  if (pid == sim::Machine::kLoadRefused) {
    r.exit_code = sim::Machine::kNoExitCode;
    r.verdict = "load refused";
    return r;
  }
  const sim::RunOutcome out = drive(*m, spec.budget, layers);
  r.ran = true;
  r.completed = out.completed;
  r.exit_code = m->exit_code(pid);
  r.instructions = out.instructions;
  r.cycles = out.cycles;
  r.calls = m->hart().stats().calls;
  r.pages_mapped = m->kernel().process(pid).aspace->pages_mapped();
  r.reports = m->kernel().reports();
  r.stats = sim::collect_stats(*m);
  fold(*m, layers);
  const u64 golden = spec.workload->golden(spec.scale);
  if (!r.completed) {
    r.verdict = "timeout: instruction budget exhausted";
  } else if (r.exit_code != 0) {
    std::ostringstream os;
    os << "exit " << r.exit_code;
    r.verdict = os.str();
  } else if (r.reports.size() != 1 || r.reports[0] != golden) {
    r.verdict = "checksum mismatch vs golden model";
  } else {
    r.ok = true;
    r.verdict = "ok";
  }
  *keep = std::move(m);
  *pid_out = pid;
  return r;
}

}  // namespace

Result run_fig5(const Options& opts) {
  Result res;
  EndToEnd e;
  const std::vector<fleet::JobSpec> specs = matrix(opts);

  // Set-up: build every cell's image (workload build, shadow-stack pass,
  // link) into a fresh image cache. The first cache serves the measured
  // phase, so cells run with their images prebuilt. Set-up repeats before
  // every pass, so its fastest sample is drawn from the whole run.
  std::unique_ptr<fleet::ImageCache> cache;
  const auto setup = [&] {
    rotate_cpu();
    auto fresh = std::make_unique<fleet::ImageCache>();
    const double t0 = now_s();
    for (const fleet::JobSpec& spec : specs) fresh->get(spec);
    e.setup_s.push_back(now_s() - t0);
    if (cache == nullptr) cache = std::move(fresh);
  };
  repeat_for(0.3, 5, setup);

  std::map<u32, std::string> expected;
  std::vector<double> dispatch_s;
  const auto untraced_pass = [&] {
    // The set-ups move the thread on (see rotate_cpu), so every pass runs
    // on another CPU. Moving it per cell instead made a pass ~15% slower.
    repeat_for(0.15, 2, setup);
    const double t0 = now_s();
    const std::vector<fleet::JobResult> results =
        fleet::run_jobs(specs, *cache, fleet::FleetOptions{});
    const double wall = now_s() - t0;
    e.wall_s.push_back(wall);
    double cells_s = 0.0, instructions = 0.0, cycles = 0.0;
    for (size_t i = 0; i < results.size(); ++i) {
      const fleet::JobResult& r = results[i];
      res.check(cell_ok(specs[i], r, opts.corrupt_oracle),
                r.label + ": " + r.verdict);
      e.job(r.id, r.wall_ms);
      cells_s += r.wall_ms / 1000.0;
      instructions += static_cast<double>(r.instructions);
      cycles += static_cast<double>(r.cycles);
    }
    dispatch_s.push_back(wall - cells_s);
    e.instructions = instructions;
    e.sim_cycles = cycles;
    e.ops = static_cast<double>(results.size());
    std::map<u32, std::string> recs = records(results);
    if (expected.empty()) {
      expected = std::move(recs);
    } else if (recs != expected) {
      res.fail("job records differ between repetitions");
    }
  };

  if (!opts.trace) {
    repeat_for(opts.seconds, 1, untraced_pass);
  } else {
    Layers layers;
    std::vector<double> traced_wall;
    std::unique_ptr<sim::Machine> last;
    int last_pid = 0;
    repeat_for(opts.seconds, 1, [&] {
      untraced_pass();
      const double t0 = now_s();
      for (const fleet::JobSpec& spec : specs) {
        const fleet::JobResult r =
            traced_cell(spec, *cache->get(spec), layers, &last, &last_pid);
        if (fleet::canonical_record(r) != expected[spec.id]) {
          res.fail("traced record differs from untraced: " + r.label);
        }
      }
      traced_wall.push_back(now_s() - t0);
    });
    const double reps = static_cast<double>(traced_wall.size());

    // The build layers, split: the same images the cache holds, built once
    // more with a clock around each stage.
    for (const fleet::JobSpec& spec : specs) {
      double t0 = now_s();
      sealpk::isa::Program prog = spec.workload->build(spec.scale);
      layers.build_s += (now_s() - t0) * reps;
      if (spec.ss != passes::ShadowStackKind::kNone) {
        t0 = now_s();
        passes::apply_shadow_stack(prog, {.kind = spec.ss,
                                          .perm_seal = spec.perm_seal});
        layers.instrument_s += (now_s() - t0) * reps;
      }
      t0 = now_s();
      const sealpk::isa::Image image = prog.link();
      layers.link_s += (now_s() - t0) * reps;
    }

    std::vector<const sealpk::isa::Image*> images;
    std::vector<fleet::ImageCache::ImagePtr> keep_images;
    for (const fleet::JobSpec& spec : specs) {
      keep_images.push_back(cache->get(spec));
      images.push_back(keep_images.back().get());
    }
    const UnitCosts units = last != nullptr
                                ? measure_unit_costs(images, *last, last_pid)
                                : UnitCosts{};

    Extras x;
    x.fleet_image_builds = static_cast<double>(cache->builds());
    x.fleet_image_build_s = median(e.setup_s);
    x.fleet_dispatch_s = median(dispatch_s);
    x.build_in_rep = false;
    const double traced = mean(traced_wall);
    emit_layers(res, layers, reps, traced, median(e.wall_s), units, x);
    const double others = std::max({layers.trap.s, layers.machine_new_s,
                                    layers.load_s, layers.preempt.s});
    res.log.push_back(std::string("attribution: core.exec_s is the largest "
                                  "layer self time: ") +
                      (layers.exec_s > others ? "yes" : "NO"));
  }

  std::string canonical;
  for (const auto& [id, rec] : expected) canonical += rec + "\n";
  res.log.push_back("digest fig5 " + digest(canonical) + " (" +
                    std::to_string(expected.size()) + " job records)");
  if (!opts.trace) emit_end_to_end(res, e);
  return res;
}

}  // namespace hostbench
