// FNV-1a 64-bit checksum — the snapshot format's integrity check.
//
// Not cryptographic: the threat model is a torn write or bit rot in a
// checkpoint file, not an adversary. FNV-1a is a single multiply-xor per
// byte, has no tables, and is trivially portable, which keeps the snapshot
// layer dependency-free.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "common/bits.h"

namespace sealpk {

class Checksum64 {
 public:
  static constexpr u64 kOffsetBasis = 0xCBF29CE484222325ULL;
  static constexpr u64 kPrime = 0x00000100000001B3ULL;

  void update(const u8* data, size_t len) {
    size_t i = 0;
    // A zero byte only multiplies by kPrime, so eight of them are one
    // multiply by kPrime^8 (exact, mod 2^64). Snapshots are mostly zeros.
    for (; i + 8 <= len; i += 8) {
      u64 word;
      std::memcpy(&word, data + i, sizeof(word));
      if (word == 0) {
        state_ *= kPrime8;
        continue;
      }
      for (size_t j = i; j < i + 8; ++j) step(data[j]);
    }
    for (; i < len; ++i) step(data[i]);
  }
  void update(const std::vector<u8>& data) { update(data.data(), data.size()); }

  u64 value() const { return state_; }

 private:
  static constexpr u64 kPrime8 = kPrime * kPrime * kPrime * kPrime * kPrime *
                                 kPrime * kPrime * kPrime;

  void step(u8 byte) {
    state_ ^= byte;
    state_ *= kPrime;
  }

  u64 state_ = kOffsetBasis;
};

inline u64 checksum64(const u8* data, size_t len) {
  Checksum64 sum;
  sum.update(data, len);
  return sum.value();
}

inline u64 checksum64(const std::vector<u8>& data) {
  return checksum64(data.data(), data.size());
}

}  // namespace sealpk
