// Scenario "session_server": one protection domain per user session.
//
// The guest mmaps an arena of one page per session, then ramps every
// session up (connect = key alloc + pkey_mprotect of the session page +
// open/write/close) and churns: ~10% of operations reconnect a session
// (free + fresh key), the rest touch it (open, read+increment the session
// cell, close). Virtualized mode drives the vpkey ABI — at scales past the
// 1023 physical keys every cold touch is a map-in with an eviction behind
// it — while raw mode uses physical pkeys directly (user-mode PKR writes
// for open/close, like a hand-tuned MPK server would).
//
// The checksum is key-id independent by construction: connect contributes
// slot+1 and stores slot+1 into the session cell, touch contributes the
// cell and increments it. So raw vs virtualized, eager vs lazy, any MRU
// size — same shape, same checksum. What differs is the churn work, which
// is exactly what the key-churn benchmarks measure.
#include "common/check.h"
#include "workloads/build_util.h"
#include "workloads/workload.h"

using namespace sealpk::isa;

namespace sealpk::wl {

namespace {

constexpr u64 kPage = 4096;
// Every 10th churn op (by PRNG draw) reconnects instead of touching.
constexpr u64 kReconnectOneIn = 10;

// Emits `open/close` for the session key in a0: virtualized sessions go
// through sys_vpkey_set (the table decides between MRU hit, revival and
// map-in); raw sessions write the PKR directly from user mode.
void emit_perm(Function& f, bool raw, u64 perm) {
  f.li(a1, static_cast<i64>(perm));
  if (raw) {
    f.call("__pkey_set");
  } else {
    rt::syscall(f, os::sys::kVpkeySet);
  }
}

// The shared guest skeleton for both modes.
isa::Program build_session(const SessionShape& p) {
  SEALPK_CHECK(p.sessions >= 1);
  Program prog = make_workload_program();
  rt::add_rand_lib(prog);
  if (p.raw) rt::add_pkey_lib(prog);
  prog.add_zero("sess_base", 8);
  prog.add_zero("sess_sum", 8);
  prog.add_zero("sess_rng", 8);
  prog.add_zero("sess_keys", p.sessions * 8);

  const u64 nr_alloc = p.raw ? os::sys::kPkeyAlloc : os::sys::kVpkeyAlloc;
  const u64 nr_free = p.raw ? os::sys::kPkeyFree : os::sys::kVpkeyFree;
  const u64 nr_mprotect =
      p.raw ? os::sys::kPkeyMprotect : os::sys::kVpkeyMprotect;

  // fail(a0 = errno-ish value): report the failure marker and exit 1 so a
  // broken run can never alias a good checksum.
  {
    Function& f = prog.add_function("sess_fail");
    f.li(a0, 0x5E55DEAD);
    rt::syscall(f, os::sys::kReport);
    rt::emit_exit(f, 1);
    f.ret();  // unreachable
  }

  // connect(a0 = slot): alloc key, protect the slot page, open, write the
  // initial cell (slot+1), account it, close.
  {
    Function& f = prog.add_function("sess_connect");
    Frame frame(f, {s0, s1, s2});
    const Label fail = f.new_label();
    f.mv(s0, a0);
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kNone));
    rt::syscall(f, nr_alloc);
    f.blez(a0, fail);
    f.mv(s1, a0);  // key
    f.la(t0, "sess_keys");
    f.slli(t1, s0, 3);
    f.add(t0, t0, t1);
    f.sd(s1, 0, t0);
    f.la(t0, "sess_base");
    f.ld(s2, 0, t0);
    f.slli(t1, s0, 12);
    f.add(s2, s2, t1);  // session page
    f.mv(a0, s2);
    f.li(a1, static_cast<i64>(kPage));
    f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
    f.mv(a3, s1);
    rt::syscall(f, nr_mprotect);
    f.blt(a0, 0, fail);
    f.mv(a0, s1);
    emit_perm(f, p.raw, os::pkeyperm::kRw);
    f.addi(t0, s0, 1);  // cell value = slot + 1
    f.sd(t0, 0, s2);
    f.la(t1, "sess_sum");
    f.ld(t2, 0, t1);
    f.add(t2, t2, t0);
    f.sd(t2, 0, t1);
    f.mv(a0, s1);
    emit_perm(f, p.raw, os::pkeyperm::kNone);
    frame.leave();
    f.ret();
    f.bind(fail);
    f.call("sess_fail");
    f.ret();  // unreachable
  }

  // touch(a0 = slot): open, sum += cell, cell += 1, close.
  {
    Function& f = prog.add_function("sess_touch");
    Frame frame(f, {s0, s1, s2});
    f.mv(s0, a0);
    f.la(t0, "sess_keys");
    f.slli(t1, s0, 3);
    f.add(t0, t0, t1);
    f.ld(s1, 0, t0);  // key
    f.la(t0, "sess_base");
    f.ld(s2, 0, t0);
    f.slli(t1, s0, 12);
    f.add(s2, s2, t1);  // session page
    f.mv(a0, s1);
    emit_perm(f, p.raw, os::pkeyperm::kRw);
    f.ld(t0, 0, s2);
    f.la(t1, "sess_sum");
    f.ld(t2, 0, t1);
    f.add(t2, t2, t0);
    f.sd(t2, 0, t1);
    f.addi(t0, t0, 1);
    f.sd(t0, 0, s2);
    f.mv(a0, s1);
    emit_perm(f, p.raw, os::pkeyperm::kNone);
    frame.leave();
    f.ret();
  }

  // disconnect(a0 = slot): free the key. The pages re-key to the default
  // domain (virtualized) or stay on the freed key until SealPK's lazy
  // de-allocation drains it (raw) — either way the reconnect re-keys them.
  {
    Function& f = prog.add_function("sess_disconnect");
    Frame frame(f, {});
    const Label fail = f.new_label();
    f.la(t0, "sess_keys");
    f.slli(t1, a0, 3);
    f.add(t0, t0, t1);
    f.ld(a0, 0, t0);
    rt::syscall(f, nr_free);
    f.blt(a0, 0, fail);
    frame.leave();
    f.ret();
    f.bind(fail);
    f.call("sess_fail");
    f.ret();  // unreachable
  }

  // run(): mmap the arena, seed the PRNG, ramp, churn, return the checksum.
  {
    Function& f = prog.add_function("run");
    Frame frame(f, {s0, s1, s2, s3});
    const Label fail = f.new_label();
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(p.sessions * kPage));
    f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
    rt::syscall(f, os::sys::kMmap);
    f.blez(a0, fail);
    f.la(t0, "sess_base");
    f.sd(a0, 0, t0);
    f.la(t0, "sess_rng");
    f.li(t1, static_cast<i64>(p.seed));
    f.sd(t1, 0, t0);
    // Ramp: connect every slot.
    const Label ramp = f.new_label(), ramp_done = f.new_label();
    f.li(s0, 0);
    f.bind(ramp);
    f.li(t0, static_cast<i64>(p.sessions));
    f.bgeu(s0, t0, ramp_done);
    f.mv(a0, s0);
    f.call("sess_connect");
    f.addi(s0, s0, 1);
    f.j(ramp);
    f.bind(ramp_done);
    // Churn.
    const Label churn = f.new_label(), churn_done = f.new_label();
    const Label do_touch = f.new_label(), next = f.new_label();
    f.li(s1, 0);
    f.bind(churn);
    f.li(t0, static_cast<i64>(p.ops));
    f.bgeu(s1, t0, churn_done);
    f.la(a0, "sess_rng");
    f.call("__rand");
    f.mv(s2, a0);
    f.li(t0, static_cast<i64>(p.sessions));
    f.remu(s3, s2, t0);  // slot
    f.srli(t0, s2, 33);
    f.li(t1, static_cast<i64>(kReconnectOneIn));
    f.remu(t0, t0, t1);
    f.bnez(t0, do_touch);
    f.mv(a0, s3);
    f.call("sess_disconnect");
    f.mv(a0, s3);
    f.call("sess_connect");
    f.j(next);
    f.bind(do_touch);
    f.mv(a0, s3);
    f.call("sess_touch");
    f.bind(next);
    f.addi(s1, s1, 1);
    f.j(churn);
    f.bind(churn_done);
    f.la(t0, "sess_sum");
    f.ld(a0, 0, t0);
    frame.leave();
    f.ret();
    f.bind(fail);
    f.call("sess_fail");
    f.ret();  // unreachable
  }
  return prog;
}

}  // namespace

isa::Program build_session_prog(const SessionShape& shape) {
  return build_session(shape);
}

u64 golden_session_sum(const SessionShape& shape) {
  std::vector<u64> cell(shape.sessions);
  u64 sum = 0;
  const auto connect = [&](u64 slot) {
    cell[slot] = slot + 1;
    sum += slot + 1;
  };
  for (u64 slot = 0; slot < shape.sessions; ++slot) connect(slot);
  GuestRand rng(shape.seed);
  for (u64 i = 0; i < shape.ops; ++i) {
    const u64 r = rng.next();
    const u64 slot = r % shape.sessions;
    if ((r >> 33) % kReconnectOneIn == 0) {
      connect(slot);
    } else {
      sum += cell[slot];
      cell[slot] += 1;
    }
  }
  return sum;
}

SessionSchedule session_schedule(const SessionShape& shape) {
  SessionSchedule sched;
  sched.connects = shape.sessions;
  GuestRand rng(shape.seed);
  for (u64 i = 0; i < shape.ops; ++i) {
    const u64 r = rng.next();
    if ((r >> 33) % kReconnectOneIn == 0) {
      ++sched.reconnects;
      ++sched.connects;
    } else {
      ++sched.touches;
    }
  }
  return sched;
}

isa::Program build_session_server(u64 scale) {
  return build_session(SessionShape{.sessions = 192 * scale,
                                    .ops = 384 * scale});
}

u64 golden_session_server(u64 scale) {
  return golden_session_sum(SessionShape{.sessions = 192 * scale,
                                         .ops = 384 * scale});
}

}  // namespace sealpk::wl
