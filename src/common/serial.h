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
#pragma once

#include <bit>
#include <bitset>
#include <cstring>
#include <string>
#include <type_traits>
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

class ByteWriter {
 public:
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

  // Length-prefixed string / byte vector.
  void put_str(const std::string& s) {
    put_u64(s.size());
    put_bytes(reinterpret_cast<const u8*>(s.data()), s.size());
  }
  void put_blob(const std::vector<u8>& v) {
    put_u64(v.size());
    put_bytes(v.data(), v.size());
  }

  template <size_t N>
  void put_bitset(const std::bitset<N>& bits) {
    static_assert(kBitsetIsWords<N>, "bitset must be whole u64 words");
    put_bytes(reinterpret_cast<const u8*>(&bits), sizeof(bits));
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
  std::vector<u8> get_blob() {
    const u64 len = get_u64();
    need(len);
    std::vector<u8> v(data_ + pos_, data_ + pos_ + len);
    pos_ += static_cast<size_t>(len);
    return v;
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

}  // namespace sealpk
