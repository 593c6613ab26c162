// Seeded generator of raw guest programs over the whole ISA.
//
// A program is laid out word by word, so the generator knows the address
// of every instruction: it can branch within and across pages, run
// straight-line code over a page boundary, and store new instruction
// words into the page it is running and into the next one. It mixes in
// pkey rights flips (WRPKR, or WRPKRU in the MPK flavour), a perm-seal,
// mprotect/pkey_mprotect calls (each a TLB flush), CSR reads, fences and
// faulting accesses that a registered signal handler skips. Each program
// ends in one chosen way (GenEnd); every end but kExit is a fatal trap, so
// a corpus that cycles through the ends reaches every isa::Op.
//
// Every program terminates: loops are counted, and a word past the end of
// the text is zero, which is an illegal instruction.
#pragma once

#include <vector>

#include "core/hart.h"
#include "isa/program.h"

namespace sealpk::testutil {

enum class GenEnd : u8 {
  kExit,
  kIllegalWord,
  kMisalignedLoad,
  kMisalignedStore,
  kMisalignedJump,
  kEbreak,
  kSret,
  kSfenceVma,
  kSpkRange,
  kSpkSeal,
  kCsrWrite,
  kCsrWriteImm,
  kForeignCustom,  // a custom-0 op the other ISA flavour owns
};
inline constexpr unsigned kNumGenEnds = 13;

struct GenOptions {
  core::IsaFlavor flavor = core::IsaFlavor::kSealPk;
  GenEnd end = GenEnd::kExit;
  // Approximate text size in words. The text starts part-way into its
  // first page, so a few hundred words already cross a page boundary.
  unsigned words = 600;
};

struct GenProgram {
  isa::Image image;
  std::vector<isa::Op> ops;  // the op of every emitted word, in order
};

GenProgram generate_program(u64 seed, const GenOptions& options);

}  // namespace sealpk::testutil
