#include "passes/shadow_stack.h"

#include "common/check.h"
#include "os/syscall_abi.h"
#include "runtime/guest.h"

using namespace sealpk::isa;

namespace sealpk::passes {

namespace {

constexpr u64 kPageSize = 4096;

bool uses_pkeys(ShadowStackKind kind) {
  return kind == ShadowStackKind::kSealPkWr ||
         kind == ShadowStackKind::kSealPkRdWr;
}

// Builds the shared pop/verify helper: expects the function's return
// address in t5; aborts on mismatch with the shadow copy.
void add_pop_helper(Program& prog, const ShadowStackOptions& opts) {
  Function& f = prog.add_function("__ss_pop");
  f.instrumentable = false;
  const Label ok = f.new_label();
  f.addi(s10, s10, -8);
  f.ld(t6, 0, s10);
  f.beq(t6, t5, ok);
  rt::emit_exit(f, opts.abort_code);
  f.bind(ok);
  f.ret();
}

// Builds the push helper for each variant: expects the return address to
// push in t5.
void add_push_helper(Program& prog, const ShadowStackOptions& opts) {
  Function& f = prog.add_function("__ss_push");
  f.instrumentable = false;
  switch (opts.kind) {
    case ShadowStackKind::kFunc:
      f.sd(t5, 0, s10);
      f.addi(s10, s10, 8);
      break;

    case ShadowStackKind::kSealPkWr:
      // Blind row writes: the new 64-bit row value is loaded from data
      // (computed once at init); other keys in the row are not preserved.
      if (opts.perm_seal) f.seal_start(0);
      f.la(t6, "__ss_row_rw");
      f.ld(t6, 0, t6);
      f.wrpkr(s11, t6);  // write-enable the shadow-stack domain
      f.sd(t5, 0, s10);
      f.addi(s10, s10, 8);
      f.la(t6, "__ss_row_ro");
      f.ld(t6, 0, t6);
      f.wrpkr(s11, t6);  // back to read-only
      break;

    case ShadowStackKind::kSealPkRdWr:
      // Read-modify-write toggles preserving the rest of the row.
      if (opts.perm_seal) f.seal_start(0);
      f.la(t4, "__ss_mask");
      f.ld(t4, 0, t4);
      f.rdpkr(t6, s11);
      f.and_(t6, t6, t4);  // field := 00 (read+write enabled)
      f.wrpkr(s11, t6);
      f.sd(t5, 0, s10);
      f.addi(s10, s10, 8);
      f.rdpkr(t6, s11);
      f.and_(t6, t6, t4);
      f.la(t3, "__ss_ro_bits");
      f.ld(t3, 0, t3);
      f.or_(t6, t6, t3);  // field := 01 (read-only)
      f.wrpkr(s11, t6);
      break;

    case ShadowStackKind::kMprotect: {
      // The comparison point: two mprotect syscalls around the push. The
      // helper must preserve the argument registers it clobbers — they are
      // live at function entry.
      const i64 ss_bytes = static_cast<i64>(opts.ss_pages * kPageSize);
      f.addi(sp, sp, -32);
      f.sd(a0, 0, sp);
      f.sd(a1, 8, sp);
      f.sd(a2, 16, sp);
      f.sd(a7, 24, sp);
      f.mv(a0, s11);  // shadow-stack base
      f.li(a1, ss_bytes);
      f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
      rt::syscall(f, os::sys::kMprotect);
      f.sd(t5, 0, s10);
      f.addi(s10, s10, 8);
      f.mv(a0, s11);
      f.li(a1, ss_bytes);
      f.li(a2, static_cast<i64>(os::prot::kRead));
      rt::syscall(f, os::sys::kMprotect);
      f.ld(a0, 0, sp);
      f.ld(a1, 8, sp);
      f.ld(a2, 16, sp);
      f.ld(a7, 24, sp);
      f.addi(sp, sp, 32);
      break;
    }

    case ShadowStackKind::kInline:
    case ShadowStackKind::kNone:
      SEALPK_CHECK_MSG(false, "no push helper for this variant");
  }
  f.ret();
}

// Sentinel marking the end of the WRPKR-permissible range; placed directly
// after __ss_push in the layout so [first insn of __ss_push, first insn of
// __ss_range_end] covers every WRPKR.
void add_range_end(Program& prog) {
  Function& f = prog.add_function("__ss_range_end");
  f.instrumentable = false;
  f.seal_end(0);
  f.ret();
}

// __ss_init: mmap the shadow stack, set up s10/s11, and (SealPK variants)
// allocate + assign + seal the protection domain.
void add_init(Program& prog, const ShadowStackOptions& opts) {
  const i64 ss_bytes = static_cast<i64>(opts.ss_pages * kPageSize);
  Function& f = prog.add_function("__ss_init");
  f.instrumentable = false;
  f.addi(sp, sp, -16);
  f.sd(ra, 0, sp);

  // shadow stack = mmap(0, ss_bytes, RW)
  f.li(a0, 0);
  f.li(a1, ss_bytes);
  f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
  rt::syscall(f, os::sys::kMmap);
  f.mv(s10, a0);
  f.mv(s11, a0);
  f.la(t0, "__ss_base");
  f.sd(a0, 0, t0);

  if (uses_pkeys(opts.kind)) {
    // pkey = pkey_alloc(0, read-only)
    f.li(a0, 0);
    f.li(a1, static_cast<i64>(os::pkeyperm::kReadOnly));
    rt::syscall(f, os::sys::kPkeyAlloc);
    f.mv(s11, a0);
    // pkey_mprotect(base, ss_bytes, R|W, pkey)
    f.la(t0, "__ss_base");
    f.ld(a0, 0, t0);
    f.li(a1, ss_bytes);
    f.li(a2, static_cast<i64>(os::prot::kRead | os::prot::kWrite));
    f.mv(a3, s11);
    rt::syscall(f, os::sys::kPkeyMprotect);
    // Precompute the row constants the push helper loads:
    //   __ss_mask    = ~(0b11 << (2*slot))
    //   __ss_ro_bits =   0b01 << (2*slot)   (write-disable)
    //   __ss_row_ro  = same as __ss_ro_bits (row built from scratch)
    //   __ss_row_rw  = 0 (blind write: everything permissive)
    f.andi(t1, s11, 31);
    f.slli(t1, t1, 1);
    f.li(t2, 3);
    f.sll(t2, t2, t1);
    f.not_(t2, t2);
    f.la(t0, "__ss_mask");
    f.sd(t2, 0, t0);
    f.li(t3, 1);
    f.sll(t3, t3, t1);
    f.la(t0, "__ss_ro_bits");
    f.sd(t3, 0, t0);
    f.la(t0, "__ss_row_ro");
    f.sd(t3, 0, t0);
    f.la(t0, "__ss_row_rw");
    f.sd(zero, 0, t0);
    if (opts.seal_domain_and_pages) {
      // pkey_seal(pkey, seal_domain=1, seal_page=1): after this neither the
      // domain's pages nor its membership can change (§V-B).
      f.mv(a0, s11);
      f.li(a1, 1);
      f.li(a2, 1);
      rt::syscall(f, os::sys::kPkeySeal);
    }
    if (opts.perm_seal) {
      // Latch the permissible range by executing one dummy push (its first
      // instruction is seal.start) and the range-end sentinel, then commit
      // the one-time fuse with pkey_perm_seal.
      f.mv(t5, zero);
      f.call("__ss_push");
      f.call("__ss_range_end");
      f.addi(s10, s10, -8);  // discard the dummy entry
      f.mv(a0, s11);
      rt::syscall(f, os::sys::kPkeyPermSeal);
    }
  } else if (opts.kind == ShadowStackKind::kMprotect) {
    // Start read-only; pushes toggle with mprotect.
    f.mv(a0, s11);
    f.li(a1, ss_bytes);
    f.li(a2, static_cast<i64>(os::prot::kRead));
    rt::syscall(f, os::sys::kMprotect);
  }

  f.ld(ra, 0, sp);
  f.addi(sp, sp, 16);
  f.ret();
}

std::vector<Item> make_prologue(Function& f, const ShadowStackOptions& opts) {
  Function scratch(f.name() + "$prologue");
  if (opts.kind == ShadowStackKind::kInline) {
    scratch.sd(ra, 0, s10);
    scratch.addi(s10, s10, 8);
  } else {
    scratch.mv(t5, ra);
    scratch.call("__ss_push");
    scratch.mv(ra, t5);
  }
  return scratch.items();
}

// The epilogue needs fresh labels from the *target* function for the inline
// variant, so it is built per call site.
void append_epilogue(Function& target, std::vector<Item>& out,
                     const ShadowStackOptions& opts) {
  Function scratch(target.name() + "$epilogue");
  if (opts.kind == ShadowStackKind::kInline) {
    // The label must come from the *target* function's label space, so the
    // branch and bind items are appended as raw items rather than through
    // the scratch builder.
    const Label ok = target.new_label();
    scratch.addi(s10, s10, -8);
    scratch.ld(t5, 0, s10);
    out.insert(out.end(), scratch.items().begin(), scratch.items().end());
    Item branch;
    branch.kind = Item::Kind::kBranch;
    branch.inst = Inst{.op = Op::kBeq, .rs1 = t5, .rs2 = ra};
    branch.label = ok;
    out.push_back(branch);
    Function abort_scratch(target.name() + "$abort");
    rt::emit_exit(abort_scratch, opts.abort_code);
    out.insert(out.end(), abort_scratch.items().begin(),
               abort_scratch.items().end());
    Item bind;
    bind.kind = Item::Kind::kBind;
    bind.label = ok;
    out.push_back(bind);
    return;
  }
  scratch.mv(t5, ra);
  scratch.call("__ss_pop");
  scratch.mv(ra, t5);
  out.insert(out.end(), scratch.items().begin(), scratch.items().end());
}

}  // namespace

const char* shadow_stack_kind_name(ShadowStackKind kind) {
  switch (kind) {
    case ShadowStackKind::kNone: return "baseline";
    case ShadowStackKind::kInline: return "Inline";
    case ShadowStackKind::kFunc: return "Func";
    case ShadowStackKind::kSealPkWr: return "SealPK-WR";
    case ShadowStackKind::kSealPkRdWr: return "SealPK-RD+WR";
    case ShadowStackKind::kMprotect: return "mprotect";
  }
  return "?";
}

void apply_shadow_stack(Program& prog, const ShadowStackOptions& opts) {
  if (opts.kind == ShadowStackKind::kNone) return;
  SEALPK_CHECK_MSG(prog.find_function("_start") != nullptr,
                   "shadow-stack pass needs a crt0 (_start)");
  SEALPK_CHECK_MSG(prog.find_function("__ss_init") == nullptr,
                   "shadow-stack pass applied twice");

  // Rewrite prologues/epilogues of the pre-existing functions.
  for (auto& f : prog.functions()) {
    if (!f.instrumentable) continue;
    if (opts.skip_leaf_functions) {
      bool makes_calls = false;
      for (const Item& item : f.items()) {
        if (item.kind == Item::Kind::kCall) {
          makes_calls = true;
          break;
        }
      }
      if (!makes_calls) continue;  // leaf: ra never touches memory
    }
    std::vector<Item> rewritten = make_prologue(f, opts);
    for (const Item& item : f.items()) {
      if (item.kind == Item::Kind::kRet) {
        append_epilogue(f, rewritten, opts);
      }
      rewritten.push_back(item);
    }
    f.items() = std::move(rewritten);
  }

  // Runtime pieces. Order matters for the permissible range: __ss_push
  // first, the range-end sentinel directly after it.
  prog.add_zero("__ss_base", 8);
  if (uses_pkeys(opts.kind)) {
    prog.add_zero("__ss_mask", 8);
    prog.add_zero("__ss_ro_bits", 8);
    prog.add_zero("__ss_row_rw", 8);
    prog.add_zero("__ss_row_ro", 8);
  }
  if (opts.kind != ShadowStackKind::kInline) {
    add_push_helper(prog, opts);
    if (uses_pkeys(opts.kind) && opts.perm_seal) add_range_end(prog);
    add_pop_helper(prog, opts);
  }
  add_init(prog, opts);

  // Prepend `call __ss_init` to _start.
  Function& start = *prog.find_function("_start");
  Function scratch("$start_prefix");
  scratch.call("__ss_init");
  auto& items = start.items();
  items.insert(items.begin(), scratch.items().begin(),
               scratch.items().end());
}

}  // namespace sealpk::passes
