// Cycle-cost model for the simulated Rocket-class in-order core and the
// kernel software paths.
//
// The reproduction does not model the pipeline cycle-by-cycle; instead each
// architectural event is charged a calibrated cost. Sources for the
// calibration targets:
//   - Rocket's 5-stage in-order pipeline: ~1 IPC on L1 hits, pipelined
//     multiplier, iterative divider.
//   - paper §I: mprotect costs ~1094 cycles on average (dominated by the
//     U->S context switch, the page-table update and the TLB flush);
//     Intel's WRPKRU takes 11-260 cycles; SealPK's WRPKR is a RoCC
//     instruction executed without a context switch or TLB flush.
//   - paper §III-B.2 footnote: saving/restoring PKR across context
//     switches costs < 1 %.
// EXPERIMENTS.md documents how these constants map onto the measured
// numbers of Figure 5.
#pragma once

#include "common/bits.h"

namespace sealpk::core {

// Nominal reporting clock: rates derived from modelled cycles (serve
// crossings/sec, session churn ops/sec) are stated at this frequency. It is
// a fixed reporting convention, not the paper's measured board clock.
inline constexpr u64 kNominalHz = 50'000'000;

struct TimingModel {
  // --- hart-level costs ---------------------------------------------------
  u64 base_cycles = 1;           // issue cost of any instruction
  u64 mul_cycles = 4;            // Rocket pipelined multiplier latency
  u64 div_cycles = 33;           // Rocket iterative divider
  u64 mem_extra_cycles = 1;      // L1-hit load/store beyond base
  u64 tlb_miss_per_access = 12;  // per PTW memory access (up to 3 for Sv39)
  u64 rocc_cycles = 2;           // RoCC round-trip (RDPKR/WRPKR/seal.*)
  u64 trap_enter_cycles = 60;    // pipeline flush + CSR state save
  u64 trap_return_cycles = 40;   // sret path

  // --- kernel software-path costs (charged by the OS model) ---------------
  u64 syscall_dispatch_cycles = 220;   // U->S entry, reg save, dispatch, exit
  u64 vma_lookup_cycles = 80;         // find_vma + checks
  u64 pte_update_cycles = 55;          // per page: walk + modify + flush line
  // Resident-set-dependent component of an mprotect-style call: TLB/page-
  // walk-cache shootdown and kernel page-table cache pressure grow with the
  // process's mapped footprint (why the paper's SPEC programs — far larger
  // images than MiBench — suffer disproportionally under the mprotect
  // shadow stack).
  u64 mprotect_rss_cycles_per_page = 5;
  u64 tlb_flush_cycles = 12;           // sfence.vma issue
  u64 pkey_bookkeeping_cycles = 90;    // alloc/free map updates
  u64 fault_handler_cycles = 300;      // page-fault path up to signal post
  u64 cam_refill_handler_cycles = 180; // PK-CAM miss interrupt service
  u64 context_switch_cycles = 700;     // scheduler + non-PKR state swap
  u64 pkr_row_swap_cycles = 2;         // per PKR row saved + restored

  u64 ptw_cost(unsigned accesses) const {
    return tlb_miss_per_access * accesses;
  }
};

}  // namespace sealpk::core
