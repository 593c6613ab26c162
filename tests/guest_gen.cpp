#include "guest_gen.h"

#include <bit>
#include <cstring>
#include <initializer_list>

#include "common/rng.h"
#include "core/csr.h"
#include "os/syscall_abi.h"

namespace sealpk::testutil {

namespace {

using namespace isa;

constexpr u64 kTextPage = 0x10000;
// Two data pages: page 0 keeps pkey 0 and is flipped read-only and back by
// mprotect; page 1 carries the key the program allocates.
constexpr u64 kDataBase = 0x80000;
constexpr u64 kDataPages = 2;

// Registers random code may write. The rest are fixed: s0 and s11 point
// 2 KiB into data pages 0 and 1, s10 holds the allocated pkey, gp counts
// loop iterations, s1 holds computed addresses, and a0-a3 and a7 carry
// syscalls.
constexpr u8 kPool[] = {t0, t1, t2, t3, t4, t5, t6, s2, s3,
                        s4, s5, s6, s7, s8, s9, a4, a5, a6};

constexpr Op kRegOps[] = {
    Op::kAdd,  Op::kSub,   Op::kSll,    Op::kSlt,   Op::kSltu,  Op::kXor,
    Op::kSrl,  Op::kSra,   Op::kOr,     Op::kAnd,   Op::kAddw,  Op::kSubw,
    Op::kSllw, Op::kSrlw,  Op::kSraw,   Op::kMul,   Op::kMulh,  Op::kMulhsu,
    Op::kMulhu, Op::kDiv,  Op::kDivu,   Op::kRem,   Op::kRemu,  Op::kMulw,
    Op::kDivw, Op::kDivuw, Op::kRemw,   Op::kRemuw};
constexpr Op kImmOps[] = {Op::kAddi, Op::kSlti, Op::kSltiu, Op::kXori,
                          Op::kOri,  Op::kAndi, Op::kAddiw};
constexpr Op kShift64Ops[] = {Op::kSlli, Op::kSrli, Op::kSrai};
constexpr Op kShift32Ops[] = {Op::kSlliw, Op::kSrliw, Op::kSraiw};
constexpr Op kBranchOps[] = {Op::kBeq,  Op::kBne,  Op::kBlt,
                             Op::kBge,  Op::kBltu, Op::kBgeu};
constexpr Op kLoadOps[] = {Op::kLb,  Op::kLh,  Op::kLw, Op::kLd,
                           Op::kLbu, Op::kLhu, Op::kLwu};
constexpr Op kStoreOps[] = {Op::kSb, Op::kSh, Op::kSw, Op::kSd};
constexpr u16 kUserCsrs[] = {core::csr::kCycle, core::csr::kTime,
                             core::csr::kInstret};

unsigned access_size(Op op) {
  switch (op) {
    case Op::kLb: case Op::kLbu: case Op::kSb: return 1;
    case Op::kLh: case Op::kLhu: case Op::kSh: return 2;
    case Op::kLw: case Op::kLwu: case Op::kSw: return 4;
    default: return 8;
  }
}

class Generator {
 public:
  Generator(u64 seed, const GenOptions& options)
      : rng_(seed),
        options_(options),
        sealpk_(options.flavor == core::IsaFlavor::kSealPk),
        // Start 1-3 KiB into the first page, word-aligned.
        base_(kTextPage + 4 * rng_.range(256, 768)) {}

  GenProgram build() {
    // The signal handler comes first: it resumes after the faulting
    // instruction.
    const u64 handler = pc();
    li(a0, 1);
    syscall(os::sys::kSigreturn);
    const u64 entry = pc();
    prologue(handler);
    const u64 end = base_ + 4 * u64{options_.words};
    while (pc() < end) block();
    epilogue();

    GenProgram out;
    isa::Segment text;
    text.addr = base_;
    text.bytes.resize(4 * words_.size());
    std::memcpy(text.bytes.data(), words_.data(), text.bytes.size());
    text.write = true;  // stores into code are part of the mix
    text.exec = true;
    isa::Segment data;
    data.addr = kDataBase;
    data.bytes.resize(kDataPages * mem::kPageSize);
    for (u8& b : data.bytes) b = static_cast<u8>(rng_.next());
    data.write = true;
    out.image.entry = entry;
    out.image.segments = {std::move(text), std::move(data)};
    out.image.text_base = base_;
    out.image.text_end = pc();
    out.image.data_base = kDataBase;
    out.image.data_end = kDataBase + kDataPages * mem::kPageSize;
    out.ops = std::move(ops_);
    return out;
  }

 private:
  // --- emission --------------------------------------------------------------
  u64 pc() const { return base_ + 4 * words_.size(); }
  u64 words_to_page_end() const {
    return (mem::kPageSize - pc() % mem::kPageSize) / 4;
  }

  size_t emit(const Inst& inst) {
    words_.push_back(encode(inst));
    ops_.push_back(inst.op);
    return words_.size() - 1;
  }

  // Points the branch or jal at word `at` to the current pc.
  void land(size_t at) {
    Inst inst = decode(words_[at]);
    inst.imm = static_cast<i64>(pc() - (base_ + 4 * at));
    words_[at] = encode(inst);
  }

  // Function::li's expansion.
  void li(u8 rd, i64 imm) {
    if (fits_signed(imm, 12)) {
      emit({.op = Op::kAddi, .rd = rd, .imm = imm});
      return;
    }
    if (fits_signed(imm, 32)) {
      const i64 hi = sext((static_cast<u64>(imm) + 0x800) & 0xFFFFF000u, 32);
      const i64 lo = sext(static_cast<u64>(imm), 12);
      emit({.op = Op::kLui, .rd = rd, .imm = hi});
      if (lo != 0) emit({.op = Op::kAddiw, .rd = rd, .rs1 = rd, .imm = lo});
      return;
    }
    const i64 lo12 = sext(static_cast<u64>(imm), 12);
    i64 hi52 =
        static_cast<i64>(static_cast<u64>(imm) - static_cast<u64>(lo12)) >> 12;
    const unsigned tz = std::countr_zero(static_cast<u64>(hi52));
    hi52 >>= tz;
    li(rd, hi52);
    emit({.op = Op::kSlli, .rd = rd, .rs1 = rd, .imm = 12 + tz});
    if (lo12 != 0) emit({.op = Op::kAddi, .rd = rd, .rs1 = rd, .imm = lo12});
  }

  // A text address in exactly two words, so the caller knows where the
  // code after it lands before emitting it.
  void la(u8 rd, u64 addr) {
    const i64 hi = sext((addr + 0x800) & 0xFFFFF000u, 32);
    emit({.op = Op::kLui, .rd = rd, .imm = hi});
    emit({.op = Op::kAddiw, .rd = rd, .rs1 = rd,
          .imm = sext(addr, 12)});
  }

  void syscall(u64 nr) {
    li(a7, static_cast<i64>(nr));
    emit({.op = Op::kEcall});
  }

  // --- random operands -------------------------------------------------------
  template <typename T, size_t N>
  T pick(const T (&items)[N]) {
    return items[rng_.below(N)];
  }
  u8 pool_reg(std::initializer_list<u8> avoid = {}) {
    for (;;) {
      const u8 r = pick(kPool);
      bool ok = true;
      for (u8 a : avoid) ok = ok && a != r;
      if (ok) return r;
    }
  }
  u8 source_reg() { return rng_.chance(0.1) ? u8{zero} : pool_reg(); }

  // One random ALU, M-extension or upper-immediate instruction writing a
  // pool register outside `avoid`.
  Inst alu_inst(std::initializer_list<u8> avoid = {}) {
    const u8 rd = pool_reg(avoid);
    switch (rng_.below(8)) {
      case 0: case 1: case 2:
        return {.op = pick(kRegOps), .rd = rd, .rs1 = source_reg(),
                .rs2 = source_reg()};
      case 3: case 4:
        return {.op = pick(kImmOps), .rd = rd, .rs1 = source_reg(),
                .imm = static_cast<i64>(rng_.range(0, 4095)) - 2048};
      case 5:
        return {.op = pick(kShift64Ops), .rd = rd, .rs1 = source_reg(),
                .imm = static_cast<i64>(rng_.below(64))};
      case 6:
        return {.op = pick(kShift32Ops), .rd = rd, .rs1 = source_reg(),
                .imm = static_cast<i64>(rng_.below(32))};
      default:
        return {.op = rng_.chance(0.5) ? Op::kLui : Op::kAuipc, .rd = rd,
                .imm = sext(rng_.next() & 0xFFFFF000u, 32)};
    }
  }
  void alu(std::initializer_list<u8> avoid = {}) { emit(alu_inst(avoid)); }
  void alu_run(u64 n, std::initializer_list<u8> avoid = {}) {
    for (u64 i = 0; i < n; ++i) alu(avoid);
  }

  // --- blocks ----------------------------------------------------------------
  void prologue(u64 handler) {
    li(s0, static_cast<i64>(kDataBase + 2048));
    li(s11, static_cast<i64>(kDataBase + mem::kPageSize + 2048));
    li(a0, static_cast<i64>(handler));
    syscall(os::sys::kSigaction);
    li(a0, 0);
    li(a1, 0);
    syscall(os::sys::kPkeyAlloc);
    emit({.op = Op::kAddi, .rd = s10, .rs1 = a0});
    li(a0, static_cast<i64>(kDataBase + mem::kPageSize));
    li(a1, mem::kPageSize);
    li(a2, 3);  // read + write
    emit({.op = Op::kAddi, .rd = a3, .rs1 = s10});
    syscall(os::sys::kPkeyMprotect);
    // Random register contents, with the divide corner cases mixed in.
    constexpr i64 kCorners[] = {0, -1, INT64_MIN, 1, INT32_MIN};
    for (u8 r : kPool) {
      li(r, rng_.chance(0.2) ? pick(kCorners) : static_cast<i64>(rng_.next()));
    }
  }

  void block() {
    const u64 left = words_to_page_end();
    if (left <= 12 && rng_.chance(0.5)) {
      cross_page_jump(left);
      return;
    }
    switch (rng_.below(20)) {
      case 0: case 1: case 2: case 3:
        alu_run(rng_.range(1, 12));
        break;
      case 4: case 5: case 6: case 7:
        memory_access();
        break;
      case 8: forward_branch(); break;
      case 9: counted_loop(); break;
      case 10: jump(); break;
      case 11: self_modifying_store(); break;
      case 12: self_modifying_loop(); break;
      case 13: syscall_block(); break;
      case 14: case 15: rights_flip(); break;
      case 16: csr_read(); break;
      case 17:
        emit({.op = pick({Op::kFence, Op::kFenceI, Op::kWfi})});
        break;
      case 18:
        if (sealpk_) {
          emit({.op = rng_.chance(0.5) ? Op::kSealStart : Op::kSealEnd,
                .rs1 = pool_reg()});
        } else {
          emit({.op = Op::kRdpkru, .rd = pool_reg()});
        }
        break;
      default:
        if (sealpk_ && !perm_sealed_ && rng_.chance(0.3)) {
          perm_seal();
        } else {
          alu_run(rng_.range(1, 4));
        }
        break;
    }
  }

  // An aligned load or store to either data page. Page 1's key and page
  // 0's mprotect state may deny it; the handler then skips it.
  void memory_access() {
    const bool store = rng_.chance(0.4);
    const Op op = store ? pick(kStoreOps) : pick(kLoadOps);
    const unsigned size = access_size(op);
    const i64 off =
        static_cast<i64>(rng_.below(4096 / size) * size) - 2048;
    const u8 base = rng_.chance(0.5) ? u8{s0} : u8{s11};
    if (store) {
      emit({.op = op, .rs1 = base, .rs2 = source_reg(), .imm = off});
    } else {
      emit({.op = op, .rd = pool_reg(), .rs1 = base, .imm = off});
    }
  }

  void forward_branch() {
    const size_t at = emit({.op = pick(kBranchOps), .rs1 = source_reg(),
                            .rs2 = source_reg()});
    alu_run(rng_.range(1, 6));
    land(at);
  }

  // A branch or jump over the page boundary: the words it skips run
  // straight across the boundary when a branch falls through.
  void cross_page_jump(u64 left) {
    const size_t at =
        rng_.chance(0.3)
            ? emit({.op = Op::kJal, .rd = rng_.chance(0.5) ? u8{zero} : u8{ra}})
            : emit({.op = pick(kBranchOps), .rs1 = source_reg(),
                    .rs2 = source_reg()});
    alu_run(left + rng_.range(0, 3));
    land(at);
  }

  void counted_loop() {
    li(gp, static_cast<i64>(rng_.range(1, 5)));
    const u64 top = pc();
    for (u64 n = rng_.range(1, 6); n != 0; --n) {
      switch (rng_.below(5)) {
        case 0: case 1: alu(); break;
        case 2: case 3: memory_access(); break;
        default: csr_read(); break;
      }
    }
    emit({.op = Op::kAddi, .rd = gp, .rs1 = gp, .imm = -1});
    emit({.op = rng_.chance(0.5) ? Op::kBne : Op::kBlt,
          .rs1 = zero, .rs2 = gp,
          .imm = static_cast<i64>(top) - static_cast<i64>(pc())});
  }

  // jal, or auipc + jalr, over a few words; the link register is random.
  void jump() {
    const u8 link = rng_.chance(0.3) ? u8{zero}
                                     : (rng_.chance(0.5) ? u8{ra} : pool_reg());
    const u64 skip = rng_.range(0, 4);
    if (rng_.chance(0.5)) {
      const size_t at = emit({.op = Op::kJal, .rd = link});
      alu_run(skip);
      land(at);
    } else {
      emit({.op = Op::kAuipc, .rd = s1});
      emit({.op = Op::kJalr, .rd = link, .rs1 = s1,
            .imm = static_cast<i64>(4 * (2 + skip))});
      alu_run(skip);
    }
  }

  // Stores a fresh ALU word over one of the words just ahead, in this page
  // or (near its end) in the next one; the stored word then runs.
  void self_modifying_store() {
    const u8 value = pool_reg();
    li(value, sext(encode(alu_inst({value})), 32));
    const u64 left = words_to_page_end();
    const u64 filler = left <= 24 ? left + rng_.range(0, 8)
                                  : rng_.range(1, 8);
    // la (2 words) and sw (1 word) come before the filler.
    const u64 first = pc() + 4 * 3;
    const u64 target = first + 4 * rng_.below(filler);
    la(s1, target);
    emit({.op = Op::kSw, .rs1 = s1, .rs2 = value});
    alu_run(filler, {value});
  }

  // A counted loop that flips one of its own words between two encodings
  // every iteration, before or after the store, so the same address runs
  // a changed word on the next pass.
  void self_modifying_loop() {
    const u32 first_word = encode(alu_inst({a5, a6}));
    const u32 second_word = encode(alu_inst({a5, a6}));
    li(a6, sext(first_word, 32));
    li(a5, sext(first_word ^ second_word, 32));
    li(gp, static_cast<i64>(rng_.range(2, 4)));
    const u64 top = pc();
    const u64 before = rng_.range(0, 3);
    const u64 after = rng_.range(1, 3);
    alu_run(before, {a5, a6});
    const u64 target =
        rng_.below(before + after) < before
            ? top + 4 * rng_.below(before)
            : pc() + 4 * (3 + rng_.below(after));
    la(s1, target);
    emit({.op = Op::kSw, .rs1 = s1, .rs2 = a6});
    alu_run(after, {a5, a6});
    emit({.op = Op::kXor, .rd = a6, .rs1 = a6, .rs2 = a5});
    emit({.op = Op::kAddi, .rd = gp, .rs1 = gp, .imm = -1});
    emit({.op = Op::kBne, .rs1 = gp, .rs2 = zero,
          .imm = static_cast<i64>(top) - static_cast<i64>(pc())});
  }

  void syscall_block() {
    switch (rng_.below(6)) {
      case 0:  // page 0 read-only or back to read-write
        li(a0, static_cast<i64>(kDataBase));
        li(a1, mem::kPageSize);
        li(a2, rng_.chance(0.5) ? 1 : 3);
        syscall(os::sys::kMprotect);
        break;
      case 1:  // re-key page 1 (to pkey 0 or back to the program's key)
        li(a0, static_cast<i64>(kDataBase + mem::kPageSize));
        li(a1, mem::kPageSize);
        li(a2, 3);
        if (rng_.chance(0.3)) {
          li(a3, 0);
        } else {
          emit({.op = Op::kAddi, .rd = a3, .rs1 = s10});
        }
        syscall(os::sys::kPkeyMprotect);
        break;
      case 2:  // the running code page keeps read + write + execute
        li(a0, static_cast<i64>(pc() & ~(mem::kPageSize - 1)));
        li(a1, mem::kPageSize);
        li(a2, 7);
        syscall(os::sys::kMprotect);
        break;
      case 3: syscall(os::sys::kSchedYield); break;
      case 4: syscall(os::sys::kGetTid); break;
      default:
        emit({.op = Op::kAddi, .rd = a0, .rs1 = pool_reg()});
        syscall(os::sys::kReport);
        break;
    }
  }

  // Rewrites the program key's 2-bit field (the rest of the row stays
  // zero, so pkey 0 keeps read + write), or reads the rights back.
  void rights_flip() {
    const u8 value = pool_reg();
    if (rng_.chance(0.25)) {
      if (sealpk_) {
        emit({.op = Op::kRdpkr, .rd = value, .rs1 = s10});
      } else {
        emit({.op = Op::kRdpkru, .rd = value});
      }
      return;
    }
    emit({.op = Op::kAndi, .rd = s1, .rs1 = s10, .imm = sealpk_ ? 31 : 15});
    emit({.op = Op::kSlli, .rd = s1, .rs1 = s1, .imm = 1});
    li(value, static_cast<i64>(rng_.below(4)));
    emit({.op = Op::kSll, .rd = value, .rs1 = value, .rs2 = s1});
    if (sealpk_) {
      emit({.op = Op::kWrpkr, .rs1 = s10, .rs2 = value});
    } else {
      emit({.op = Op::kWrpkru, .rs1 = value});
    }
  }

  // Perm-seals the program key to a range holding one WRPKR, in a loop of
  // two: the second pass's WRPKR runs sealed and inside its range, and
  // every WRPKR after the loop is a seal violation the handler skips.
  void perm_seal() {
    perm_sealed_ = true;
    li(gp, 2);
    const u64 top = pc();
    emit({.op = Op::kSealStart, .rs1 = pool_reg()});
    rights_flip();
    emit({.op = Op::kSealEnd, .rs1 = pool_reg()});
    emit({.op = Op::kAddi, .rd = a0, .rs1 = s10});
    syscall(os::sys::kPkeyPermSeal);
    emit({.op = Op::kAddi, .rd = gp, .rs1 = gp, .imm = -1});
    emit({.op = Op::kBne, .rs1 = gp, .rs2 = zero,
          .imm = static_cast<i64>(top) - static_cast<i64>(pc())});
  }

  void csr_read() {
    const u16 csr_addr = pick(kUserCsrs);
    const u8 rd = pool_reg();
    switch (rng_.below(4)) {
      case 0: emit({.op = Op::kCsrrs, .rd = rd, .csr = csr_addr}); break;
      case 1: emit({.op = Op::kCsrrc, .rd = rd, .csr = csr_addr}); break;
      case 2: emit({.op = Op::kCsrrsi, .rd = rd, .csr = csr_addr}); break;
      default: emit({.op = Op::kCsrrci, .rd = rd, .csr = csr_addr}); break;
    }
  }

  void epilogue() {
    switch (options_.end) {
      case GenEnd::kExit:
        li(a0, 0);
        syscall(os::sys::kExit);
        break;
      case GenEnd::kIllegalWord: {
        u32 word = 0;
        while (decode(word).op != Op::kIllegal) {
          word = static_cast<u32>(rng_.next());
        }
        words_.push_back(word);
        ops_.push_back(Op::kIllegal);
        break;
      }
      case GenEnd::kMisalignedLoad: {
        const Op op = pick({Op::kLh, Op::kLw, Op::kLd, Op::kLhu, Op::kLwu});
        emit({.op = op, .rd = pool_reg(), .rs1 = s0, .imm = 1});
        break;
      }
      case GenEnd::kMisalignedStore: {
        const Op op = pick({Op::kSh, Op::kSw, Op::kSd});
        emit({.op = op, .rs1 = s0, .rs2 = pool_reg(), .imm = 1});
        break;
      }
      case GenEnd::kMisalignedJump:
        emit({.op = Op::kAuipc, .rd = s1});
        emit({.op = Op::kJalr, .rs1 = s1, .imm = 10});
        break;
      case GenEnd::kEbreak: emit({.op = Op::kEbreak}); break;
      case GenEnd::kSret: emit({.op = Op::kSret}); break;
      case GenEnd::kSfenceVma:
        emit({.op = Op::kSfenceVma, .rs1 = source_reg(),
              .rs2 = source_reg()});
        break;
      case GenEnd::kSpkRange:
        emit({.op = Op::kSpkRange, .rs1 = pool_reg(), .rs2 = pool_reg()});
        break;
      case GenEnd::kSpkSeal:
        emit({.op = Op::kSpkSeal, .rs1 = s10});
        break;
      case GenEnd::kCsrWrite:
        emit({.op = Op::kCsrrw, .rd = pool_reg(), .rs1 = pool_reg(),
              .csr = pick(kUserCsrs)});
        break;
      case GenEnd::kCsrWriteImm:
        emit({.op = Op::kCsrrwi, .rd = pool_reg(),
              .imm = static_cast<i64>(rng_.below(32)), .csr = pick(kUserCsrs)});
        break;
      case GenEnd::kForeignCustom:
        if (sealpk_) {
          emit(rng_.chance(0.5) ? Inst{.op = Op::kWrpkru, .rs1 = pool_reg()}
                                : Inst{.op = Op::kRdpkru, .rd = pool_reg()});
        } else {
          const Op op = pick({Op::kRdpkr, Op::kWrpkr, Op::kSealStart,
                              Op::kSealEnd, Op::kSpkRange, Op::kSpkSeal});
          emit({.op = op, .rd = op == Op::kRdpkr ? pool_reg() : u8{zero},
                .rs1 = pool_reg(), .rs2 = pool_reg()});
        }
        break;
    }
  }

  Rng rng_;
  GenOptions options_;
  bool sealpk_;
  u64 base_;
  bool perm_sealed_ = false;
  std::vector<u32> words_;
  std::vector<Op> ops_;
};

}  // namespace

GenProgram generate_program(u64 seed, const GenOptions& options) {
  return Generator(seed, options).build();
}

}  // namespace sealpk::testutil
