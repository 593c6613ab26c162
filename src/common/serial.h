// Little-endian byte-stream serialization used by the snapshot layer.
//
// ByteWriter appends into a growable buffer; ByteReader consumes a borrowed
// span with bounds checks (a truncated or over-read stream throws
// CheckError, which snapshot restore converts into a typed SnapshotError).
// The encoding is fixed little-endian regardless of host order so snapshot
// files are portable, and every multi-byte value goes through one pair of
// primitives so the format has no padding or alignment holes. Those
// primitives copy whole host words, which is the wire order on the
// little-endian hosts the simulator supports (static_assert below).
//
// Both classes also speak the same two-way verbs, so a record's wire layout
// is written once, as a template over the stream and the record:
//
//   template <typename Io, typename Self>
//   static void fields(Io& io, Self& self) {
//     io.fields(self.a, self.b, as<u32>(self.pid));
//     io.seq(self.items, kItemBytes, [&](auto& item) { io.fields(item.x); });
//   }
//
// Instantiated with a ByteWriter (and a const Self) it encodes; with a
// ByteReader it decodes into the same members. Code that only a load needs
// (validation, construction, cache invalidation) sits under
// `if constexpr (Io::kLoading)` or in the load function around the call.
#pragma once

#include <array>
#include <bit>
#include <bitset>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/check.h"

namespace sealpk {

static_assert(std::endian::native == std::endian::little,
              "ByteWriter/ByteReader copy host words as the little-endian "
              "wire format");

// std::bitset<N> as N/64 little-endian u64 words, bit i of word k being bit
// 64k+i. Both mainstream standard libraries store exactly those words, word
// 0 first, so a bitset is copied word-wise instead of bit by bit.
template <size_t N>
constexpr bool kBitsetIsWords = N % 64 == 0 &&
                                sizeof(std::bitset<N>) == N / 8 &&
                                std::is_trivially_copyable_v<std::bitset<N>>;

// The integer types a field may travel as, each at its own width.
template <typename T>
constexpr bool kIsWireInt =
    std::is_same_v<T, u8> || std::is_same_v<T, u16> ||
    std::is_same_v<T, u32> || std::is_same_v<T, u64> || std::is_same_v<T, i64>;

// A field held as T but sent as the wire integer `Wire`: an int pid as u32,
// an enum as u8, a bitset of at most 64 bits as u64. Made by as<Wire>(x).
template <typename Wire, typename T>
struct WireAs {
  static_assert(kIsWireInt<Wire>);
  T& value;
};
template <typename Wire, typename T>
WireAs<Wire, T> as(T& value) {
  return {value};
}

class ByteWriter {
 public:
  static constexpr bool kLoading = false;

  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  // Doubles travel as their IEEE-754 bit pattern (bit-exact round trip).
  void put_f64(double v) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_bytes(const u8* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  // Length-prefixed string.
  void put_str(const std::string& s) {
    put_u64(s.size());
    put_bytes(reinterpret_cast<const u8*>(s.data()), s.size());
  }

  template <size_t N>
  void put_bitset(const std::bitset<N>& bits) {
    static_assert(kBitsetIsWords<N>, "bitset must be whole u64 words");
    put_bytes(reinterpret_cast<const u8*>(&bits), sizeof(bits));
  }

  // --- two-way verbs (see the top of this file) ---------------------------
  // One field: a wire integer, bool, double, string, whole-word bitset, or
  // a std::array of those, element by element.
  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      put_bool(v);
    } else if constexpr (std::is_same_v<T, double>) {
      put_f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      put_str(v);
    } else {
      static_assert(kIsWireInt<T>, "no wire encoding; use as<Wire>(field)");
      put_le(v);
    }
  }
  template <size_t N>
  void field(const std::bitset<N>& v) {
    put_bitset(v);
  }
  template <typename T, size_t N>
  void field(const std::array<T, N>& v) {
    for (const T& e : v) field(e);
  }
  template <typename Wire, typename T>
  void field(WireAs<Wire, T> f) {
    if constexpr (requires { f.value.to_ullong(); }) {
      put_le(static_cast<Wire>(f.value.to_ullong()));
    } else {
      put_le(static_cast<Wire>(f.value));
    }
  }
  template <typename... Ts>
  void fields(const Ts&... vs) {
    (field(vs), ...);
  }

  // A counted sequence: u64 count, then each element through `each`
  // (default: the element as one field). `min_bytes` is the reader's
  // bound on one element.
  template <typename C, typename Each>
  void seq(const C& c, u64 /*min_bytes*/, Each each) {
    put_u64(c.size());
    for (const auto& e : c) each(e);
  }
  template <typename C>
  void seq(const C& c, u64 min_bytes) {
    seq(c, min_bytes, [this](const auto& e) { field(e); });
  }

  // A counted map: u64 count, then `each(key, value)` per entry in key
  // order, which keeps the encoding canonical.
  template <typename M, typename Each>
  void keyed(const M& m, u64 /*min_bytes*/, Each each) {
    put_u64(m.size());
    for (const auto& [k, v] : m) each(k, v);
  }

  // Overwrites a u64 written earlier, for a length known only afterwards.
  void patch_u64(size_t at, u64 v) {
    SEALPK_CHECK(at <= buf_.size() && sizeof(v) <= buf_.size() - at);
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }

  size_t size() const { return buf_.size(); }
  const std::vector<u8>& buffer() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    put_bytes(reinterpret_cast<const u8*>(&v), sizeof(T));
  }

  std::vector<u8> buf_;
};

class ByteReader {
 public:
  static constexpr bool kLoading = true;

  ByteReader(const u8* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<u8>& buf)
      : data_(buf.data()), len_(buf.size()) {}

  u8 get_u8() { return need(1), data_[pos_++]; }
  u16 get_u16() { return get_le<u16>(); }
  u32 get_u32() { return get_le<u32>(); }
  u64 get_u64() { return get_le<u64>(); }
  i64 get_i64() { return static_cast<i64>(get_le<u64>()); }
  bool get_bool() { return get_u8() != 0; }

  double get_f64() {
    const u64 bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  void get_bytes(u8* out, size_t len) {
    need(len);
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
  }

  void skip(u64 len) {
    need(len);
    pos_ += static_cast<size_t>(len);
  }

  std::string get_str() {
    const u64 len = get_u64();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return s;
  }

  template <size_t N>
  std::bitset<N> get_bitset() {
    static_assert(kBitsetIsWords<N>, "bitset must be whole u64 words");
    std::bitset<N> bits;
    get_bytes(reinterpret_cast<u8*>(&bits), sizeof(bits));
    return bits;
  }

  // An element count for a decoder that is about to allocate that many
  // elements. Each element takes at least `min_bytes` of the stream, so a
  // count the rest of the stream cannot hold is rejected here, before a
  // corrupt count can allocate anything.
  u64 get_count(u64 min_bytes) {
    const u64 at = pos_;
    const u64 n = get_u64();
    SEALPK_CHECK_MSG(min_bytes == 0 || n <= remaining() / min_bytes,
                     "serialized count " << n << " at " << at << " needs "
                                         << min_bytes
                                         << " bytes per element, only "
                                         << remaining() << " remain");
    return n;
  }

  // --- two-way verbs: the decoding halves of ByteWriter's ----------------
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = get_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      v = get_f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = get_str();
    } else {
      static_assert(kIsWireInt<T>, "no wire encoding; use as<Wire>(field)");
      v = get_le<T>();
    }
  }
  template <size_t N>
  void field(std::bitset<N>& v) {
    v = get_bitset<N>();
  }
  template <typename T, size_t N>
  void field(std::array<T, N>& v) {
    for (T& e : v) field(e);
  }
  template <typename Wire, typename T>
  void field(WireAs<Wire, T> f) {
    f.value = static_cast<T>(get_le<Wire>());
  }
  template <typename... Ts>
  void fields(Ts&&... vs) {
    (field(std::forward<Ts>(vs)), ...);
  }

  // Replaces `c` with a counted sequence. The count is read through
  // get_count(min_bytes), so a corrupt one cannot size the container.
  template <typename C, typename Each>
  void seq(C& c, u64 min_bytes, Each each) {
    const u64 n = get_count(min_bytes);
    c.clear();
    if constexpr (requires { c.resize(n); }) {
      c.resize(static_cast<size_t>(n));
      for (auto& e : c) each(e);
    } else {
      for (u64 i = 0; i < n; ++i) {
        std::iter_value_t<decltype(c.begin())> e{};
        each(e);
        c.push_back(std::move(e));
      }
    }
  }
  template <typename C>
  void seq(C& c, u64 min_bytes) {
    seq(c, min_bytes, [this](auto& e) { field(e); });
  }

  // Replaces `m` with a counted map. A key the stream repeats keeps its
  // first value.
  template <typename M, typename Each>
  void keyed(M& m, u64 min_bytes, Each each) {
    const u64 n = get_count(min_bytes);
    m.clear();
    for (u64 i = 0; i < n; ++i) {
      typename M::key_type k{};
      typename M::mapped_type v{};
      each(k, v);
      m.emplace(k, std::move(v));
    }
  }

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }
  bool done() const { return pos_ == len_; }

 private:
  void need(u64 len) {
    SEALPK_CHECK_MSG(len <= len_ - pos_,
                     "serialized stream truncated: need " << len << " at "
                                                          << pos_);
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const u8* data_;
  size_t len_;
  size_t pos_ = 0;
};

// Runs a component's own save_state/load_state in the stream's direction,
// for a field list that nests a component with its own port.
template <typename T>
void state_io(ByteWriter& w, const T& component) {
  component.save_state(w);
}
template <typename T>
void state_io(ByteReader& r, T& component) {
  component.load_state(r);
}

}  // namespace sealpk
