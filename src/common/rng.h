// Deterministic RNG (splitmix64 seeded xorshift) so every simulation,
// workload and property test is reproducible bit-for-bit across runs.
#pragma once

#include "common/bits.h"

namespace sealpk {

// splitmix64 finalizer: the Rng seed scrambler, and the deterministic
// payload/checksum stream of the serve and vault guests (emitted in guest
// code by rt::emit_mix).
inline u64 mix64(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(u64 seed = 0x5ea1b0c5u) : state_(mix64(seed + 1)) {}

  u64 next() {
    u64 x = state_;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state_ = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

  // Uniform in [0, bound).
  u64 below(u64 bound) { return bound == 0 ? 0 : next() % bound; }

  // Uniform in [lo, hi] inclusive.
  u64 range(u64 lo, u64 hi) { return lo + below(hi - lo + 1); }

  bool chance(double p) {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0) < p;
  }

  // Snapshot support: the full generator state is the single xorshift word,
  // so every seeded stream (workloads, fuzzers, the fault injector) can be
  // checkpointed and resumed bit-identically.
  u64 state() const { return state_; }
  void set_state(u64 state) { state_ = state; }

 private:
  u64 state_;
};

}  // namespace sealpk
