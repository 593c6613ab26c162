// Shared fixtures for snapshot tests: mid-run machines whose snapshots carry
// the state the services workloads produce (a vault with checkpoints, a
// vkey-churn session server), and a walker over a blob's section table.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bits.h"
#include "sim/machine.h"
#include "vault/program.h"
#include "workloads/workload.h"

namespace sealpk::testutil {

// The vault workload with periodic checkpoints, stopped mid-run.
inline constexpr u64 kVaultCheckpointInterval = 2'000;
inline constexpr u64 kVaultMidRun = 7'500;

inline sim::MachineConfig vault_config() {
  sim::MachineConfig config;
  config.checkpoint_interval = kVaultCheckpointInterval;
  return config;
}

inline const isa::Image& vault_image() {
  static const vault::BuiltVault built =
      vault::build_vault(vault::VaultSpec{});
  return built.image;
}

inline std::unique_ptr<sim::Machine> mid_run_vault_machine(
    const sim::MachineConfig& config = vault_config()) {
  auto m = std::make_unique<sim::Machine>(config);
  if (m->load(vault_image()) < 0) return nullptr;
  m->run(kVaultMidRun);
  return m;
}

// A vkey-churn session server, stopped mid-run with a live vkey table.
inline std::unique_ptr<sim::Machine> mid_run_vkey_machine() {
  const wl::SessionShape shape{.sessions = 64, .ops = 128};
  sim::MachineConfig config;
  config.hart.flavor = core::IsaFlavor::kSealPk;
  auto m = std::make_unique<sim::Machine>(config);
  if (m->load(wl::build_session_prog(shape).link()) < 0) return nullptr;
  m->run(20'000);
  return m;
}

// Snapshot layout: 28-byte header, then `fourcc u32 | u64 len | body`.
inline constexpr size_t kSnapshotHeader = 28;

struct SectionSpan {
  std::string name;
  size_t body = 0;  // offset of the body within the blob
  size_t len = 0;
};

inline u64 load_le64(const std::vector<u8>& blob, size_t at) {
  u64 v = 0;
  for (unsigned i = 0; i < 8; ++i) v |= u64{blob.at(at + i)} << (8 * i);
  return v;
}

inline void store_le64(std::vector<u8>& blob, size_t at, u64 v) {
  for (unsigned i = 0; i < 8; ++i) {
    blob.at(at + i) = static_cast<u8>(v >> (8 * i));
  }
}

inline std::vector<SectionSpan> sections_of(const std::vector<u8>& blob) {
  std::vector<SectionSpan> out;
  size_t at = kSnapshotHeader;
  while (at + 12 <= blob.size()) {
    SectionSpan s;
    s.name.assign(reinterpret_cast<const char*>(blob.data() + at), 4);
    while (!s.name.empty() && s.name.back() == ' ') s.name.pop_back();
    s.len = static_cast<size_t>(load_le64(blob, at + 4));
    s.body = at + 12;
    out.push_back(s);
    at = s.body + s.len;
  }
  return out;
}

inline std::optional<SectionSpan> section_named(const std::vector<u8>& blob,
                                                const std::string& name) {
  for (const SectionSpan& s : sections_of(blob)) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

}  // namespace sealpk::testutil
