// Crash-consistent machine snapshots (versioned, checksummed, canonical).
//
// A snapshot is the complete state of a sim::Machine — hart registers and
// CSRs, PKR SRAM with parity, SealReg + PK-CAM, PKRU, both TLBs, sparse
// physical memory (page tables and PTE pkey bits included, since they live
// in DRAM), the full kernel truth (process table, VMAs, key managers,
// scheduler), the fault injector's RNG stream and event log, and the run
// loop's watchdog/audit/checkpoint schedules. Restoring a snapshot into a
// machine built from config_from() and resuming produces execution that is
// bit-identical to the uninterrupted run: same guest output, same retired
// instruction count, same statistics.
//
// The encoding is canonical (sorted pages, sorted maps, no uninitialised
// padding), so two machines with equal state serialize to byte-identical
// blobs — which is what lets tests and the rollback oracle compare whole
// snapshots instead of cherry-picked fields.
//
// On-disk layout:
//   8-byte magic "SPKSNAP1" | u32 version | u64 payload_len |
//   u64 fnv1a64(payload) | payload
// The payload is a sequence of sections, each `fourcc u32 | u64 len | body`,
// in fixed order: CFG, HART, PKR, SEAL, PKRU, DTLB, ITLB, MEM, KERN, RUNS,
// VKEY (format v2+), and FINJ last iff the machine carries a fault injector.
//
// Version history:
//   1  initial format (the committed golden blob pins this layout)
//   2  adds the VKEY section (per-process vkey tables, src/mpk) and two
//      vkey policy knobs at the tail of CFG. Writers emit v2; readers
//      accept v1 (no vkey state: tables restore to null, and the restoring
//      machine must carry default vkey knobs since the save predates them).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.h"
#include "sim/machine.h"

namespace sealpk::snapshot {

constexpr u32 kFormatVersion = 2;
constexpr u32 kMinFormatVersion = 1;  // oldest version readers still accept

// Typed failure for malformed, truncated, corrupted or incompatible
// snapshots — distinct from CheckError so callers can tell "bad snapshot"
// from "broken machine invariant".
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

// Serializes the machine's complete state. Non-const because component
// accessors are non-const; the machine is not modified.
// save(m) is exactly seal(save_unsealed(m)).
std::vector<u8> save(sim::Machine& machine);

// save() without the checksum: the header's checksum field is left 0, so
// restore/info/diff reject the blob until seal() writes it. This lets a
// caller that keeps most of its blobs unread (the machine's periodic
// checkpoints) skip hashing them.
std::vector<u8> save_unsealed(sim::Machine& machine);

// Writes the FNV-1a checksum of the payload into the header. The result is
// byte-identical to what save() returns. Throws SnapshotError if the blob is
// shorter than a header.
void seal(std::vector<u8>& blob);

// Restores `blob` into `machine`, which must have been constructed with a
// config byte-identical to the snapshot's (use config_from). Throws
// SnapshotError on any validation failure. NOT transactional: a throw can
// leave the machine partially restored.
void restore(sim::Machine& machine, const std::vector<u8>& blob);

// The machine configuration a snapshot was taken under, so a restoring
// process can construct a compatible machine. Hooks (admission gates,
// fault callbacks) do not serialize and come back empty; the machine
// re-wires its own.
sim::MachineConfig config_from(const std::vector<u8>& blob);

struct SectionInfo {
  std::string name;
  u64 size = 0;
};

struct Info {
  u32 version = 0;
  u64 payload_len = 0;
  u64 checksum = 0;
  bool checksum_ok = false;
  u64 instret = 0;  // retired instructions at save time
  u64 cycles = 0;
  u64 pc = 0;
  std::vector<SectionInfo> sections;
};

// Parses the header and section table (validating magic, version, length
// and checksum — throws SnapshotError if any fail).
Info info(const std::vector<u8>& blob);

// Section-level comparison of two snapshots: one human-readable line per
// difference, empty when the blobs are equivalent. Both blobs must be
// valid snapshots (throws SnapshotError otherwise).
std::vector<std::string> diff(const std::vector<u8>& a,
                              const std::vector<u8>& b);

// File helpers (binary, whole-file). Throw SnapshotError on I/O failure.
std::vector<u8> read_file(const std::string& path);
void write_file(const std::string& path, const std::vector<u8>& blob);

}  // namespace sealpk::snapshot
