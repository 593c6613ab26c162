// The benchmark workloads. Each runs a closed loop of repetitions on the
// calling thread for Options::seconds, checks every repetition against the
// repository's own oracles, and fills a Result: end-to-end metrics when
// untraced, per-layer metrics (from traced repetitions that must reproduce
// the untraced records exactly) when traced.
#pragma once

#include <memory>
#include <string>

#include "common.h"
#include "drive.h"

namespace hostbench {

// The Figure-5 matrix: 17 workloads x 7 instrumentation variants through
// fleet::run_jobs, every cell checked against its golden checksum.
Result run_fig5(const Options& opts);

// What one untraced repetition of a service retired.
struct Rep {
  double wall_s = 0;        // host seconds of the driver call
  double instructions = 0;  // guest instructions retired
  double ops = 0;           // the driver's unit of work
  double sim_cycles = 0;    // modelled cycles
};

// One driver timed as a whole repetition: a repository entry point with its
// own set-up, oracle and traced replay. Oracle failures go to the Result the
// service was made with.
class Service {
 public:
  virtual ~Service() = default;
  virtual const char* name() const = 0;
  // One set-up sample: build (and admit), construct and load the guest the
  // driver call builds for itself. Returns host seconds.
  virtual double setup() = 0;
  // One untraced repetition of the driver call, its oracles checked.
  virtual Rep rep() = 0;
  // One traced repetition, after rep(), which it must reproduce exactly.
  // Returns host seconds.
  virtual double traced_rep(Layers& layers) = 0;
  // Per-layer metrics this driver owns; `wall_s` is its median repetition.
  virtual void extras(Extras& /*x*/, double /*wall_s*/) const {}
  // The guest image and a machine the traced loop finished, for the unit
  // costs; null before the first traced repetition.
  virtual const sealpk::isa::Image* image() const = 0;
  virtual sealpk::sim::Machine* machine(int* pid) = 0;
  // "digest <name> <fnv1a> (...)" over its canonical records.
  virtual std::string digest_line() const = 0;
};

// A clean plugin-server run through serve::run_server.
std::unique_ptr<Service> make_serve(const Options& opts, Result& res);
// The session server at 6x the physical keys through
// mpk::run_session_server (lazy drain).
std::unique_ptr<Service> make_vkey_churn(const Options& opts, Result& res);
// The default crash-anywhere sweep through vault::run_sweep.
std::unique_ptr<Service> make_vault_crash(const Options& opts, Result& res);

// The services workload: serve, vkey-churn and vault-crash round robin, one
// repetition each per round, so every driver's samples spread over the
// whole run.
Result run_services(const Options& opts);

}  // namespace hostbench
