#include "model/state.h"

#include <sstream>

#include "common/check.h"
#include "common/serial.h"

namespace sealpk::model {

ModelState initial_state(const ModelConfig& cfg) {
  ModelState s;
  s.keys.resize(cfg.num_pkeys);
  s.pages.resize(cfg.num_pages);
  s.cam.resize(cfg.cam_entries);
  s.keys[0].allocated = true;  // the default domain
  s.keys[0].pages = static_cast<u8>(cfg.num_pages);
  return s;
}

std::string encode_state(const ModelState& s) {
  ByteWriter w;
  for (const auto& k : s.keys) {
    const u8 flags = static_cast<u8>(
        (k.allocated ? 1 : 0) | (k.dirty ? 2 : 0) | (k.sealed_domain ? 4 : 0) |
        (k.sealed_page ? 8 : 0) | (k.hw_sealed ? 16 : 0));
    w.put_u8(flags);
    w.put_u8(k.perm);
    w.put_u8(k.range);
    w.put_u8(k.pages);
  }
  for (const auto& p : s.pages) {
    w.put_u8(p.pkey);
    w.put_u8(p.prot);
  }
  for (const auto& e : s.cam) {
    w.put_u8(e.valid ? 1 : 0);
    w.put_u8(e.pkey);
    w.put_u64(e.start);
    w.put_u64(e.end);
  }
  w.put_u8(s.fifo_next);
  const auto buf = w.buffer();
  return std::string(reinterpret_cast<const char*>(buf.data()), buf.size());
}

ModelState decode_state(const ModelConfig& cfg, const std::string& enc) {
  ModelState s;
  s.keys.resize(cfg.num_pkeys);
  s.pages.resize(cfg.num_pages);
  s.cam.resize(cfg.cam_entries);
  ByteReader r(reinterpret_cast<const u8*>(enc.data()), enc.size());
  for (auto& k : s.keys) {
    const u8 flags = r.get_u8();
    k.allocated = (flags & 1) != 0;
    k.dirty = (flags & 2) != 0;
    k.sealed_domain = (flags & 4) != 0;
    k.sealed_page = (flags & 8) != 0;
    k.hw_sealed = (flags & 16) != 0;
    k.perm = r.get_u8();
    k.range = r.get_u8();
    k.pages = r.get_u8();
  }
  for (auto& p : s.pages) {
    p.pkey = r.get_u8();
    p.prot = r.get_u8();
  }
  for (auto& e : s.cam) {
    e.valid = r.get_u8() != 0;
    e.pkey = r.get_u8();
    e.start = r.get_u64();
    e.end = r.get_u64();
  }
  s.fifo_next = r.get_u8();
  SEALPK_CHECK_MSG(r.done(), "state encoding does not match configuration");
  return s;
}

std::string describe_divergence(const ModelState& spec,
                                const ModelState& machine) {
  std::ostringstream os;
  for (size_t k = 0; k < spec.keys.size(); ++k) {
    const auto& a = spec.keys[k];
    const auto& b = machine.keys[k];
    if (a == b) continue;
    os << "key" << k << " differs:";
    if (a.allocated != b.allocated)
      os << " allocated spec=" << a.allocated << " machine=" << b.allocated;
    if (a.dirty != b.dirty)
      os << " dirty spec=" << a.dirty << " machine=" << b.dirty;
    if (a.sealed_domain != b.sealed_domain)
      os << " sealed_domain spec=" << a.sealed_domain
         << " machine=" << b.sealed_domain;
    if (a.sealed_page != b.sealed_page)
      os << " sealed_page spec=" << a.sealed_page
         << " machine=" << b.sealed_page;
    if (a.hw_sealed != b.hw_sealed)
      os << " hw_sealed spec=" << a.hw_sealed << " machine=" << b.hw_sealed;
    if (a.perm != b.perm)
      os << " perm spec=" << unsigned{a.perm}
         << " machine=" << unsigned{b.perm};
    if (a.range != b.range)
      os << " range spec=" << unsigned{a.range}
         << " machine=" << unsigned{b.range};
    if (a.pages != b.pages)
      os << " pages spec=" << unsigned{a.pages}
         << " machine=" << unsigned{b.pages};
    return os.str();
  }
  for (size_t p = 0; p < spec.pages.size(); ++p) {
    if (spec.pages[p] == machine.pages[p]) continue;
    os << "page" << p << " differs: spec pkey=" << unsigned{spec.pages[p].pkey}
       << " prot=" << unsigned{spec.pages[p].prot}
       << ", machine pkey=" << unsigned{machine.pages[p].pkey}
       << " prot=" << unsigned{machine.pages[p].prot};
    return os.str();
  }
  for (size_t i = 0; i < spec.cam.size(); ++i) {
    if (spec.cam[i] == machine.cam[i]) continue;
    os << "cam slot " << i << " differs";
    return os.str();
  }
  if (spec.fifo_next != machine.fifo_next) {
    os << "fifo_next spec=" << unsigned{spec.fifo_next}
       << " machine=" << unsigned{machine.fifo_next};
    return os.str();
  }
  return "";
}

}  // namespace sealpk::model
