// The concrete machine under test.
//
// A Harness owns the *real* implementation units — hw::Pkr, hw::SealUnit
// (built with the reduced CAM size) and os::SealPkKeyManager — plus a tiny
// page table, and drives them through the kernel's own pkey glue
// (os/pkey_ops.h, with the mutation's fault policy) and the hart's WRPKR
// commit path. install() and extract() convert to/from the abstract
// ModelState through the units' official ports (canonical_state, restore,
// the key manager's state record), so the checker observes exactly what
// context switches and snapshots observe.
#pragma once

#include <vector>

#include "hw/pkr.h"
#include "hw/seal_unit.h"
#include "model/op.h"
#include "model/state.h"
#include "os/key_manager.h"

namespace sealpk::model {

class Harness {
 public:
  explicit Harness(const ModelConfig& cfg);

  void install(const ModelState& s);
  ModelState extract() const;

  // Makes this harness equal to `base` in everything an op can read or
  // write: the PKR, the seal unit, the pages and the key manager's
  // records of the model's keys and the two keys above them (alloc may
  // return the first; extract() checks both stay clean). Cheaper than a
  // copy, which also copies the records of the 1,000-odd keys the model
  // never names.
  void reset_to(const Harness& base);

  // Applies one op through the kernel/hart logic. May throw CheckError if
  // a unit's own internal checks fire (reported as a counterexample).
  Outcome apply(const Op& op);

  // Effective data-access permission for `page`, consulting the real Pkr
  // exactly as Hart::data_access_allowed does.
  bool access_allowed(unsigned page, bool is_store) const;
  // Fetches never consult the Pkr (mirrors the hart's fetch path).
  bool fetch_allowed(unsigned page) const;

 private:
  // apply() with the kernel glue instantiated under fault policy `Fault`.
  template <class Fault>
  Outcome apply_as(const Op& op);

  ModelConfig cfg_;
  hw::Pkr pkr_;
  hw::SealUnit seal_;
  os::SealPkKeyManager keys_;
  std::vector<PageState> pages_;
};

}  // namespace sealpk::model
