#include "obs/recorder.h"

#include <cstring>

#include "common/check.h"
#include "common/checksum.h"

namespace sealpk::obs {

namespace {

// The SPKTRACE payload. A symbol takes at least its pid, name length and
// range.
template <typename Io, typename T>
void trace_fields(Io& io, T& t) {
  io.fields(t.ring_capacity, t.sample_interval, t.dropped);
  io.seq(t.symbols, 4 + 8 + 8 + 8,
         [&](auto& s) { io.fields(s.pid, s.name, s.start, s.end); });
  io.seq(t.events, Event::kWireBytes, [&](auto& e) { Event::fields(io, e); });
}

}  // namespace

std::vector<u8> serialize(const Trace& trace) {
  ByteWriter payload;
  trace_fields(payload, trace);

  const std::vector<u8> body = payload.take();
  ByteWriter out;
  out.put_bytes(reinterpret_cast<const u8*>(kTraceMagic),
                sizeof(kTraceMagic));
  out.put_u32(kTraceVersion);
  out.put_u64(body.size());
  out.put_u64(checksum64(body));
  out.put_bytes(body.data(), body.size());
  return out.take();
}

Trace parse(const std::vector<u8>& blob) {
  ByteReader r(blob);
  char magic[8];
  r.get_bytes(reinterpret_cast<u8*>(magic), sizeof(magic));
  SEALPK_CHECK_MSG(std::memcmp(magic, kTraceMagic, sizeof(magic)) == 0,
                   "not a SealPK trace blob (bad magic)");
  const u32 version = r.get_u32();
  SEALPK_CHECK_MSG(version == kTraceVersion,
                   "unsupported trace version " << version);
  const u64 payload_len = r.get_u64();
  const u64 want_sum = r.get_u64();
  SEALPK_CHECK_MSG(r.remaining() == payload_len,
                   "trace payload truncated: header says "
                       << payload_len << " bytes, " << r.remaining()
                       << " present");
  SEALPK_CHECK_MSG(
      checksum64(blob.data() + r.position(), payload_len) == want_sum,
      "trace payload checksum mismatch (damaged file)");

  Trace t;
  trace_fields(r, t);
  for (size_t i = 0; i < t.events.size(); ++i) {
    const u32 kind = static_cast<u32>(t.events[i].kind);
    SEALPK_CHECK_MSG(kind < kEventKindCount,
                     "trace event " << i << " has unknown kind " << kind);
  }
  SEALPK_CHECK_MSG(r.done(), "trailing bytes after trace payload");
  return t;
}

}  // namespace sealpk::obs
