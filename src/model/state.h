// The model checker's canonical state.
//
// ModelState is both the abstract state the reference spec transforms and
// the extraction target for the concrete machine (real Pkr + SealUnit +
// SealPkKeyManager). Comparing the two after every transition is the
// correctness oracle; the byte encoding doubles as the visited-set hash
// key, so two states are identical iff their encodings are.
#pragma once

#include <string>
#include <vector>

#include "model/config.h"

namespace sealpk::model {

constexpr u8 kNoRange = 0xFF;

struct KeyState {
  bool allocated = false;
  bool dirty = false;          // lazy-free quarantine
  bool sealed_domain = false;  // §IV seal maps (KeyManager side)
  bool sealed_page = false;
  bool hw_sealed = false;  // SealReg fuse bit (hardware side)
  u8 perm = 0;             // 2-bit PKR field
  u8 range = kNoRange;     // perm-seal range index on file, or kNoRange
  u8 pages = 0;            // pages carrying this key (KeyManager counter)

  bool operator==(const KeyState&) const = default;
};

struct PageState {
  u8 pkey = 0;
  u8 prot = 0b11;  // PTE R|W bits

  bool operator==(const PageState&) const = default;
};

// PK-CAM entries carry raw addresses (not range indices) so a mutated
// refill that installs an off-table range is representable and shows up as
// a CAM-coherence violation instead of an extraction failure.
struct CamState {
  bool valid = false;
  u8 pkey = 0;
  u64 start = 0;
  u64 end = 0;

  bool operator==(const CamState&) const = default;
};

struct ModelState {
  std::vector<KeyState> keys;   // size num_pkeys
  std::vector<PageState> pages;  // size num_pages
  std::vector<CamState> cam;     // size cam_entries
  u8 fifo_next = 0;

  bool operator==(const ModelState&) const = default;
};

// The boot state: key 0 allocated carrying every page, everything else
// clear.
ModelState initial_state(const ModelConfig& cfg);

// Canonical byte encoding (the visited-set key). decode() asserts the
// encoding matches cfg's dimensions.
std::string encode_state(const ModelState& s);
ModelState decode_state(const ModelConfig& cfg, const std::string& enc);

// One-line description of the first field where the two states differ
// ("spec"/"machine" labelling); empty when equal.
std::string describe_divergence(const ModelState& spec,
                                const ModelState& machine);

}  // namespace sealpk::model
