// services: the drivers that expose nothing finer than a whole call, run
// round robin in one closed loop. serve is crossing-dense (WRPKR/RDPKR
// gates, PK-CAM, a kMark syscall per crossing) and the only user of verifier
// admission; vkey-churn is kernel-bound (vkey map-in, eviction, PTE
// re-keying); vault-crash builds a fresh short machine per crash point, so
// machine lifecycle, snapshot save/restore and cold replay dominate.
#include <cstdio>
#include <memory>
#include <vector>

#include "workloads.h"

namespace hostbench {

Result run_services(const Options& opts) {
  Result res;
  EndToEnd e;
  std::vector<std::unique_ptr<Service>> services;
  services.push_back(make_serve(opts, res));
  services.push_back(make_vkey_churn(opts, res));
  services.push_back(make_vault_crash(opts, res));

  // Set-up: every driver's in turn, each on the next CPU (see rotate_cpu);
  // one sample is their sum. It repeats before every round, so its fastest
  // sample is drawn from the whole run.
  const auto setup = [&] {
    double total = 0.0;
    for (const std::unique_ptr<Service>& s : services) {
      rotate_cpu();
      total += s->setup();
    }
    e.setup_s.push_back(total);
  };
  repeat_for(0.1, 5, setup);

  // One round: a repetition of every driver, each on the next CPU. A job is
  // one driver's call; wall_s sums each driver's fastest repetition.
  Layers layers;
  std::vector<std::vector<double>> walls(services.size());
  std::vector<double> traced_wall;
  // Each driver's share of the summed run-loop layers, for its attribution.
  std::vector<double> exec_s(services.size()), trap_s(services.size());
  const auto round = [&] {
    setup();
    double wall = 0.0;
    e.instructions = e.ops = e.sim_cycles = 0.0;
    for (size_t i = 0; i < services.size(); ++i) {
      rotate_cpu();
      const Rep r = services[i]->rep();
      walls[i].push_back(r.wall_s);
      e.job(static_cast<u32>(i), r.wall_s * 1000.0);
      wall += r.wall_s;
      e.instructions += r.instructions;
      e.ops += r.ops;
      e.sim_cycles += r.sim_cycles;
    }
    e.wall_s.push_back(wall);
    if (!opts.trace) return;
    double traced = 0.0;
    for (size_t i = 0; i < services.size(); ++i) {
      const double exec0 = layers.exec_s, trap0 = layers.trap.s;
      traced += services[i]->traced_rep(layers);
      exec_s[i] += layers.exec_s - exec0;
      trap_s[i] += layers.trap.s - trap0;
    }
    traced_wall.push_back(traced);
  };
  repeat_for(opts.seconds, opts.trace ? 1 : 3, round);

  if (opts.trace) {
    // Unit costs: decode over every driver's text; TLB, walker and DRAM on
    // the first driver's finished machine.
    std::vector<const sealpk::isa::Image*> images;
    sealpk::sim::Machine* finished = nullptr;
    int pid = 0;
    Extras x;
    for (size_t i = 0; i < services.size(); ++i) {
      if (const sealpk::isa::Image* image = services[i]->image()) {
        images.push_back(image);
      }
      if (finished == nullptr) finished = services[i]->machine(&pid);
      services[i]->extras(x, median(walls[i]));
    }
    const UnitCosts units = finished != nullptr
                                ? measure_unit_costs(images, *finished, pid)
                                : UnitCosts{};
    const double reps = static_cast<double>(traced_wall.size());
    emit_layers(res, layers, reps, mean(traced_wall), median(e.wall_s), units,
                x);
    for (size_t i = 0; i < services.size(); ++i) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "attribution %s: os.trap_s %.4f s, core.exec_s %.4f s "
                    "per traced repetition; os.trap_s larger: %s",
                    services[i]->name(), trap_s[i] / reps, exec_s[i] / reps,
                    trap_s[i] > exec_s[i] ? "yes" : "no");
      res.log.push_back(line);
    }
  }

  for (size_t i = 0; i < services.size(); ++i) {
    res.log.push_back(services[i]->digest_line());
    char line[120];
    std::snprintf(line, sizeof(line),
                  "service %s: fastest repetition %.4f s, median %.4f s "
                  "(%zu)",
                  services[i]->name(), e.best_ms[static_cast<u32>(i)] / 1000.0,
                  median(walls[i]), walls[i].size());
    res.log.push_back(line);
  }
  if (!opts.trace) emit_end_to_end(res, e);
  return res;
}

}  // namespace hostbench
