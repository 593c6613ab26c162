#include "vault/program.h"

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "os/syscall_abi.h"
#include "runtime/guest.h"

using namespace sealpk::isa;

namespace sealpk::vault {

namespace {

constexpr u64 kPageSize = 4096;

std::string intent_name(u64 r) {
  return "__vault_intent_" + std::to_string(r);
}

// Seal / reseal operation: intent mark, word-by-word intent record (the
// tearable part the crash sweep hammers), in-register payload generation
// straight into the write-only slot, then the commit ecall.
void emit_seal_op(Function& f, const Geometry& geo, const VaultOp& op,
                  u64 seed) {
  f.li(a0, static_cast<i64>(os::mark::kVaultIntent));
  f.li(a1, static_cast<i64>(op.id));
  f.li(a2, static_cast<i64>(op.seq));
  f.li(a3, kVaultPkey);
  rt::syscall(f, os::sys::kMark);

  // Intent record: 8 x (ld, sd) from the precomputed rodata blob into
  // journal slot 2r. Each sd is an independent crash boundary.
  f.la(t0, intent_name(op.journal_index / 2));
  f.la(t1, "__vault_base");
  f.ld(t1, 0, t1);
  f.li(t2, static_cast<i64>(geo.record_off(op.journal_index)));
  f.add(t1, t1, t2);
  for (i64 i = 0; i < 8; ++i) {
    f.ld(t3, 8 * i, t0);
    f.sd(t3, 8 * i, t1);
  }

  // Payload: word j = mix64(op_key + j), generated in registers and stored
  // directly into the slot — no plaintext staging buffer anywhere.
  f.la(t1, "__vault_base");
  f.ld(t1, 0, t1);
  f.li(t2, static_cast<i64>(geo.slot_off(op.slot)));
  f.add(t1, t1, t2);
  f.li(t0, static_cast<i64>(op_key(seed, op.id, op.seq)));
  f.li(t2, 0);
  f.li(t3, static_cast<i64>(op.len / 8));
  const Label loop = f.new_label();
  f.bind(loop);
  f.add(t4, t0, t2);
  rt::emit_mix(f, t4, t5, t6);
  f.slli(t5, t2, 3);
  f.add(t5, t1, t5);
  f.sd(t4, 0, t5);
  f.addi(t2, t2, 1);
  f.blt(t2, t3, loop);

  f.la(a0, "__vault_base");
  f.ld(a0, 0, a0);
  f.li(a1, static_cast<i64>(geo.record_off(op.journal_index)));
  rt::syscall(f, op.type == OpType::kSeal ? os::sys::kVaultSeal
                                          : os::sys::kVaultReseal);
  const Label ok = f.new_label();
  f.beqz(a0, ok);
  rt::emit_exit(f, kExitSealFailed);
  f.bind(ok);
}

// Unseal operation: kernel copies the newest committed version into the
// owner-tagged reveal page; the guest re-derives the stream and compares
// word by word, then zeroises the reveal page before moving on.
void emit_unseal_op(Function& f, const VaultOp& op, u64 seed) {
  f.la(a0, "__vault_base");
  f.ld(a0, 0, a0);
  f.li(a1, static_cast<i64>(op.id));
  f.la(a2, "__reveal_base");
  f.ld(a2, 0, a2);
  rt::syscall(f, os::sys::kVaultUnseal);
  const Label len_ok = f.new_label();
  f.li(t0, static_cast<i64>(op.len));
  f.beq(a0, t0, len_ok);
  rt::emit_exit(f, kExitUnsealFailed);
  f.bind(len_ok);

  f.la(t1, "__reveal_base");
  f.ld(t1, 0, t1);
  f.li(t0, static_cast<i64>(op_key(seed, op.id, op.seq)));
  f.li(t2, 0);
  f.li(t3, static_cast<i64>(op.len / 8));
  const Label vloop = f.new_label(), fail = f.new_label(),
              after = f.new_label();
  f.bind(vloop);
  f.add(t4, t0, t2);
  rt::emit_mix(f, t4, t5, t6);
  f.slli(t5, t2, 3);
  f.add(t5, t1, t5);
  f.ld(t6, 0, t5);
  f.bne(t4, t6, fail);
  f.addi(t2, t2, 1);
  f.blt(t2, t3, vloop);
  // Zeroise: the reveal page must never keep a secret beyond the check.
  f.li(t2, 0);
  const Label zloop = f.new_label();
  f.bind(zloop);
  f.slli(t5, t2, 3);
  f.add(t5, t1, t5);
  f.sd(zero, 0, t5);
  f.addi(t2, t2, 1);
  f.blt(t2, t3, zloop);
  f.j(after);
  f.bind(fail);
  rt::emit_exit(f, kExitRevealMismatch);
  f.bind(after);
}

void add_init(Program& p, u64 region_len) {
  Function& f = p.add_function("__vault_init");
  f.instrumentable = false;
  f.mv(s0, ra);  // the latch call below clobbers ra

  // Vault region, then the owner's reveal page.
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(region_len));
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.la(t0, "__vault_base");
  f.sd(a0, 0, t0);
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(kPageSize));
  f.li(a2, 3);
  rt::syscall(f, os::sys::kMmap);
  f.la(t0, "__reveal_base");
  f.sd(a0, 0, t0);

  // Superblock: 10 words copied from rodata before the region is tagged.
  f.la(t0, "__vault_super");
  f.la(t1, "__vault_base");
  f.ld(t1, 0, t1);
  for (i64 i = 0; i < 10; ++i) {
    f.ld(t2, 8 * i, t0);
    f.sd(t2, 8 * i, t1);
  }

  // Key numbering is part of the protocol: owner = 1, vault = 2.
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(os::pkeyperm::kRw));
  rt::syscall(f, os::sys::kPkeyAlloc);
  {
    const Label ok = f.new_label();
    f.li(t1, kOwnerPkey);
    f.beq(a0, t1, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }
  f.li(a0, 0);
  f.li(a1, static_cast<i64>(os::pkeyperm::kWriteOnly));
  rt::syscall(f, os::sys::kPkeyAlloc);
  {
    const Label ok = f.new_label();
    f.li(t1, kVaultPkey);
    f.beq(a0, t1, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }

  // Tag the reveal page with the owner key, the vault with the vault key.
  f.la(a0, "__reveal_base");
  f.ld(a0, 0, a0);
  f.li(a1, static_cast<i64>(kPageSize));
  f.li(a2, 3);
  f.li(a3, kOwnerPkey);
  rt::syscall(f, os::sys::kPkeyMprotect);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }
  f.la(a0, "__vault_base");
  f.ld(a0, 0, a0);
  f.li(a1, static_cast<i64>(region_len));
  f.li(a2, 3);
  f.li(a3, kVaultPkey);
  rt::syscall(f, os::sys::kPkeyMprotect);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitBadPkey);
    f.bind(ok);
  }

  // Seal the vault domain and its pages, then perm-seal the key so the
  // write-only view is irrevocable (the latch stages the empty gate range).
  f.li(a0, kVaultPkey);
  f.li(a1, 1);
  f.li(a2, 1);
  rt::syscall(f, os::sys::kPkeySeal);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitSealFailed);
    f.bind(ok);
  }
  f.call("__vault_latch");
  f.li(a0, kVaultPkey);
  rt::syscall(f, os::sys::kPkeyPermSeal);
  {
    const Label ok = f.new_label();
    f.beqz(a0, ok);
    rt::emit_exit(f, kExitSealFailed);
    f.bind(ok);
  }
  f.mv(ra, s0);
  f.ret();

  // The vault key's permissible WRPKR range: the empty span between the
  // two markers — nothing may ever rewrite the vault key's PKR field.
  Function& latch = p.add_function("__vault_latch");
  latch.instrumentable = false;
  latch.seal_start(0);
  latch.seal_end(0);
  latch.ret();
}

}  // namespace

u64 op_key(u64 seed, u64 id, u64 seq) {
  return mix64(mix64(seed ^ (id * 0x9E37u)) ^ seq);
}

std::vector<u8> payload_bytes(u64 seed, u64 id, u64 seq, u64 len) {
  std::vector<u8> out(len, 0);
  const u64 key = op_key(seed, id, seq);
  for (u64 j = 0; j < len / 8; ++j) {
    store_u64(&out[j * 8], mix64(key + j));
  }
  return out;
}

std::vector<VaultOp> plan_ops(const VaultSpec& spec) {
  std::vector<VaultOp> ops;
  if (spec.seals == 0) return ops;
  u64 r = 0;
  for (u32 k = 0; k < spec.seals; ++k) {
    ops.push_back({OpType::kSeal, k + u64{1}, k, spec.slot_size, 1, 2 * r});
    ++r;
  }
  for (u32 j = 0; j < spec.reseals; ++j) {
    const u64 id = (j % spec.seals) + 1;
    ops.push_back({OpType::kReseal, id, spec.seals + j, spec.slot_size,
                   2 + j / spec.seals, 2 * r});
    ++r;
  }
  // Newest committed version per id after the seal/reseal prefix — what
  // each unseal must observe.
  std::map<u64, VaultOp> newest;
  for (const VaultOp& op : ops) {
    if (op.type == OpType::kUnseal) continue;
    auto it = newest.find(op.id);
    if (it == newest.end() || op.seq > it->second.seq) newest[op.id] = op;
  }
  for (u32 u = 0; u < spec.unseals; ++u) {
    const VaultOp& v = newest.at((u % spec.seals) + 1);
    ops.push_back({OpType::kUnseal, v.id, v.slot, v.len, v.seq, 0});
  }
  return ops;
}

Geometry geometry_for(const VaultSpec& spec) {
  Geometry g;
  g.vault_pkey = kVaultPkey;
  g.owner_pkey = kOwnerPkey;
  g.journal_off = kSuperblockSize;
  g.journal_cap =
      std::max<u64>(2, 2 * (u64{spec.seals} + u64{spec.reseals}));
  g.data_off = g.journal_off + g.journal_cap * kRecordSize;
  g.n_slots = std::max<u64>(
      {spec.n_slots, u64{spec.seals} + u64{spec.reseals}, u64{1}});
  g.slot_size = std::max<u64>(8, spec.slot_size - spec.slot_size % 8);
  return g;
}

BuiltVault build_vault(const VaultSpec& spec) {
  BuiltVault built;
  built.geo = geometry_for(spec);
  built.ops = plan_ops(spec);
  const Geometry& geo = built.geo;
  const u64 region_len =
      (geo.total_len() + kPageSize - 1) / kPageSize * kPageSize;

  Program p;
  rt::add_crt0(p, "main");
  Function& f = p.add_function("main");
  f.instrumentable = false;
  f.call("__vault_init");
  for (const VaultOp& op : built.ops) {
    if (op.type == OpType::kUnseal) {
      emit_unseal_op(f, op, spec.seed);
    } else {
      emit_seal_op(f, geo, op, spec.seed);
    }
  }
  f.li(a0, static_cast<i64>(built.ops.size()));
  rt::syscall(f, os::sys::kReport);
  rt::emit_exit(f, 0);
  add_init(p, region_len);

  p.add_zero("__vault_base", 8);
  p.add_zero("__reveal_base", 8);
  p.add_rodata("__vault_super", superblock_bytes(geo));
  u64 r = 0;
  for (const VaultOp& op : built.ops) {
    if (op.type == OpType::kUnseal) continue;
    const std::vector<u8> payload =
        payload_bytes(spec.seed, op.id, op.seq, op.len);
    built.payloads.push_back(payload);
    p.add_rodata(
        intent_name(r),
        record_bytes(op.type == OpType::kSeal ? kRecordIntentSeal
                                              : kRecordIntentReseal,
                     op.id, op.slot, op.len, op.seq,
                     checksum64(payload.data(), payload.size())));
    ++r;
  }

  // Final-state oracle.
  built.expected.superblock_ok = true;
  for (const VaultOp& op : built.ops) {
    if (op.type == OpType::kUnseal) continue;
    ++built.expected.commits_seen;
    built.expected.records_seen += 2;
    auto it = built.expected.live.find(op.id);
    if (it == built.expected.live.end() || op.seq >= it->second.seq) {
      const std::vector<u8> payload =
          payload_bytes(spec.seed, op.id, op.seq, op.len);
      built.expected.live[op.id] =
          Bundle{op.slot, op.len, op.seq,
                 checksum64(payload.data(), payload.size())};
    }
  }
  built.expected_ledger = ledger_string(built.expected);

  built.image = p.link();
  return built;
}

}  // namespace sealpk::vault
