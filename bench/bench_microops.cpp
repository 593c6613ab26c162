// Micro-operation latencies (paper §I / §II / §V-B narrative):
//   - WRPKR / RDPKR: unprivileged user-space instructions, a few cycles,
//     no context switch, no TLB flush (vs. Intel's WRPKRU at 11-260).
//   - pkey_set (RDPKR + modify + WRPKR round trip).
//   - mprotect(1 page): the costly kernel path (~1094 cycles on the
//     paper's reference processor).
//   - pkey_alloc / pkey_free / pkey_mprotect / pkey_seal syscalls.
//
// Wall time measures the simulator itself; the architectural result is the
// sim_cycles_per_op counter.
//
// The BM_Hart* benchmarks time the interpreter alone: host nanoseconds per
// guest instruction (host_ns_per_inst) on a straight-line ALU loop, a
// load/store loop on one data page, and a loop that hops across more code
// and data pages than the hart's page caches hold.
#include <benchmark/benchmark.h>

#include <chrono>

#include "runtime/guest.h"
#include "sim/machine.h"

using namespace sealpk;
using isa::Function;
using isa::Label;
using isa::Program;
using namespace sealpk::isa;

namespace {

constexpr i64 kIters = 512;

// Builds a program that runs `body` kIters times inside main's loop; the
// harness measures total machine cycles. `fixture` runs once before the
// loop.
template <typename FixtureFn, typename BodyFn>
Program loop_program(FixtureFn&& fixture, BodyFn&& body) {
  Program prog;
  rt::add_crt0(prog);
  rt::add_pkey_lib(prog);
  Function& f = prog.add_function("main");
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);
  fixture(prog, f);
  const Label loop = f.new_label(), done = f.new_label();
  f.li(s0, 0);
  f.bind(loop);
  f.li(t0, kIters);
  f.bgeu(s0, t0, done);
  body(prog, f);
  f.addi(s0, s0, 1);
  f.j(loop);
  f.bind(done);
  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.li(a0, 0);
  f.ret();
  return prog;
}

u64 run_cycles(const Program& prog,
               core::IsaFlavor flavor = core::IsaFlavor::kSealPk) {
  sim::MachineConfig cfg;
  cfg.hart.flavor = flavor;
  sim::Machine machine(cfg);
  const int pid = machine.load(prog.link());
  const auto outcome = machine.run();
  SEALPK_CHECK(outcome.completed && machine.exit_code(pid) == 0);
  return outcome.cycles;
}

// Cycles per op, net of the loop scaffolding (measured with an empty body).
double per_op_cycles(const Program& with_op, const Program& empty,
                     core::IsaFlavor flavor = core::IsaFlavor::kSealPk) {
  const u64 a = run_cycles(with_op, flavor);
  const u64 b = run_cycles(empty, flavor);
  return static_cast<double>(a - b) / kIters;
}

void no_fixture(Program&, Function&) {}

Program empty_loop() {
  return loop_program(no_fixture, [](Program&, Function&) {});
}

void bench_counters(benchmark::State& state, double cycles_per_op) {
  state.counters["sim_cycles_per_op"] = cycles_per_op;
}

}  // namespace

static void BM_Wrpkr(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
      f.li(t2, 0b01);
      f.wrpkr(t1, t2);
    });
    auto base = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
      f.li(t2, 0b01);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_Wrpkr);

static void BM_Rdpkr(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
      f.rdpkr(t2, t1);
    });
    auto base = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 5);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_Rdpkr);

static void BM_PkeySetRoundTrip(benchmark::State& state) {
  // The full read-modify-write permission toggle (what the SealPK-RD+WR
  // shadow stack does twice per function call).
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(a0, 5);
      f.li(a1, 0b01);
      f.call("__pkey_set");
    });
    cycles = per_op_cycles(prog, empty_loop());
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_PkeySetRoundTrip);

static void BM_Wrpkru_IntelMpkFlavour(benchmark::State& state) {
  // Intel reports 11-260 cycles for WRPKRU; our RoCC-modelled WRPKRU.
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 0b0100);
      f.wrpkru(t1);
    });
    auto base = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(t1, 0b0100);
    });
    cycles = per_op_cycles(prog, base, core::IsaFlavor::kIntelMpkCompat);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_Wrpkru_IntelMpkFlavour);

static void BM_MprotectOnePage(benchmark::State& state) {
  // The comparison point the paper quotes at ~1094 cycles on a modern
  // processor: context switch + PTE update + TLB flush (+ the RSS-
  // dependent shootdown term).
  double cycles = 0;
  for (auto _ : state) {
    auto fixture = [](Program&, Function& f) {
      f.li(a0, 0);
      f.li(a1, 4096);
      f.li(a2, 3);
      rt::syscall(f, os::sys::kMmap);
      f.mv(s1, a0);
    };
    auto prog = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.andi(a2, s0, 1);  // alternate RW / R
      f.addi(a2, a2, 1);
      rt::syscall(f, os::sys::kMprotect);
    });
    auto base = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.andi(a2, s0, 1);
      f.addi(a2, a2, 1);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_MprotectOnePage);

static void BM_PkeyAllocFree(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto prog = loop_program(no_fixture, [](Program&, Function& f) {
      f.li(a0, 0);
      f.li(a1, 0);
      rt::syscall(f, os::sys::kPkeyAlloc);
      rt::syscall(f, os::sys::kPkeyFree);  // pkey already in a0
    });
    cycles = per_op_cycles(prog, empty_loop()) / 2;  // per syscall
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_PkeyAllocFree);

static void BM_PkeyMprotectOnePage(benchmark::State& state) {
  double cycles = 0;
  for (auto _ : state) {
    auto fixture = [](Program&, Function& f) {
      f.li(a0, 0);
      f.li(a1, 4096);
      f.li(a2, 3);
      rt::syscall(f, os::sys::kMmap);
      f.mv(s1, a0);
      f.li(a0, 0);
      f.li(a1, 0);
      rt::syscall(f, os::sys::kPkeyAlloc);
      f.mv(s2, a0);
    };
    auto prog = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.li(a2, 3);
      f.mv(a3, s2);
      rt::syscall(f, os::sys::kPkeyMprotect);
    });
    auto base = loop_program(fixture, [](Program&, Function& f) {
      f.mv(a0, s1);
      f.li(a1, 4096);
      f.li(a2, 3);
      f.mv(a3, s2);
    });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_PkeyMprotectOnePage);

static void BM_WrpkrSealedInRange(benchmark::State& state) {
  // A sealed key written from inside its permissible range: the PK-CAM hit
  // path adds no measurable latency over an unsealed WRPKR (the check runs
  // in parallel with the PKR write port, Figure 4).
  double cycles = 0;
  // touch_key(): seal.start; RDPKR/WRPKR; seal.end; ret — the trusted
  // function whose body is the permissible range.
  auto add_touch_key = [](Program& p) {
    Function& t = p.add_function("touch_key");
    t.seal_start(0);
    t.rdpkr(t1, s2);
    t.wrpkr(s2, t1);
    t.seal_end(0);
    t.ret();
  };
  auto fixture = [](Program&, Function& f) {
    f.li(a0, 0);
    f.li(a1, 0);
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s2, a0);
    f.call("touch_key");  // latches the permissible range
  };
  for (auto _ : state) {
    auto prog = loop_program(
        [&](Program& p, Function& f) {
          add_touch_key(p);
          fixture(p, f);
          f.mv(a0, s2);
          rt::syscall(f, os::sys::kPkeyPermSeal);  // commit the fuse
        },
        [](Program&, Function& f) { f.call("touch_key"); });
    auto base = loop_program(
        [&](Program& p, Function& f) {
          add_touch_key(p);
          fixture(p, f);  // no seal committed
        },
        [](Program&, Function& f) { f.call("touch_key"); });
    cycles = per_op_cycles(prog, base);
    benchmark::DoNotOptimize(cycles);
  }
  bench_counters(state, cycles);
}
BENCHMARK(BM_WrpkrSealedInRange);

namespace {

constexpr u64 kHartChunk = 100'000;  // guest instructions per iteration

// main runs `fixture` once, then `body` in an endless loop.
template <typename FixtureFn, typename BodyFn>
Program forever_program(FixtureFn&& fixture, BodyFn&& body) {
  Program prog;
  rt::add_crt0(prog);
  Function& f = prog.add_function("main");
  fixture(prog, f);
  const Label loop = f.new_label();
  f.bind(loop);
  body(prog, f);
  f.j(loop);
  return prog;
}

// Loads `prog` once, runs it past its setup, then times kHartChunk more
// instructions per iteration.
void run_hart_bench(benchmark::State& state, const Program& prog) {
  sim::Machine machine;
  machine.load(prog.link());
  machine.run(kHartChunk);
  double ns = 0;
  u64 instructions = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const sim::RunOutcome out = machine.run(kHartChunk);
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
    benchmark::DoNotOptimize(out);
    SEALPK_CHECK(!out.completed && out.instructions == kHartChunk);
    instructions += out.instructions;
  }
  state.counters["host_ns_per_inst"] = ns / static_cast<double>(instructions);
}

void mmap_pages(Function& f, i64 pages, u8 rd) {
  f.li(a0, 0);
  f.li(a1, pages * 4096);
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.mv(rd, a0);
}

}  // namespace

static void BM_HartStraightLine(benchmark::State& state) {
  run_hart_bench(state, forever_program(no_fixture, [](Program&, Function& f) {
    for (int i = 0; i < 4; ++i) {
      f.addi(t0, t0, 3);
      f.xor_(t1, t1, t0);
      f.slli(t2, t1, 1);
      f.add(t3, t3, t2);
      f.srli(t4, t3, 2);
      f.or_(t5, t5, t4);
    }
  }));
}
BENCHMARK(BM_HartStraightLine);

static void BM_HartHotPageLoadStore(benchmark::State& state) {
  run_hart_bench(
      state, forever_program(
                 [](Program&, Function& f) { mmap_pages(f, 1, s1); },
                 [](Program&, Function& f) {
                   for (int i = 0; i < 4; ++i) {
                     f.ld(t0, 8 * i, s1);
                     f.addi(t0, t0, 1);
                     f.sd(t0, 8 * i, s1);
                     f.ld(t1, 8 * i + 256, s1);
                     f.add(t1, t1, t0);
                     f.sd(t1, 8 * i + 256, s1);
                   }
                 }));
}
BENCHMARK(BM_HartHotPageLoadStore);

static void BM_HartPageHopping(benchmark::State& state) {
  // Eight leaf functions, each on its own code page, each touching its own
  // data page: every call and return switches both pages.
  constexpr int kHops = 8;
  run_hart_bench(
      state,
      forever_program(
          [](Program& p, Function& f) {
            mmap_pages(f, kHops, s1);
            for (int i = 0; i < kHops; ++i) {
              Function& hop = p.add_function("hop" + std::to_string(i));
              hop.ld(t0, 0, a0);
              hop.addi(t0, t0, 1);
              hop.sd(t0, 0, a0);
              hop.ret();
              for (u64 pad = 0; pad < 4096 / 4; ++pad) hop.nop();
            }
          },
          [](Program&, Function& f) {
            f.mv(a0, s1);
            f.li(t1, 4096);
            for (int i = 0; i < kHops; ++i) {
              f.call("hop" + std::to_string(i));
              f.add(a0, a0, t1);
            }
          }));
}
BENCHMARK(BM_HartPageHopping);

BENCHMARK_MAIN();
