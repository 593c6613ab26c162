// Physical frame allocator (buddy-free simple bump + free-list).
#pragma once

#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/serial.h"
#include "mem/phys_mem.h"

namespace sealpk::os {

class FrameAllocator {
 public:
  // Manages frames in [base, base + size); `base` leaves room for the
  // kernel's own footprint at the bottom of DRAM.
  FrameAllocator(u64 base, u64 size)
      : next_(align_up(base, mem::kPageSize)),
        end_(base + size) {
    SEALPK_CHECK(base < base + size);
  }

  // Returns the PPN of a frame, or nullopt when DRAM is exhausted (the
  // kernel turns that into ENOMEM). Fresh pages read as zero in the
  // PhysMem model; recycled frames are scrubbed by the mapper.
  std::optional<u64> try_alloc_ppn() {
    if (!free_.empty()) {
      const u64 ppn = free_.back();
      free_.pop_back();
      ++allocated_;
      return ppn;
    }
    if (next_ + mem::kPageSize > end_) return std::nullopt;
    const u64 ppn = next_ >> mem::kPageShift;
    next_ += mem::kPageSize;
    ++allocated_;
    return ppn;
  }

  // Infallible variant for boot-time structures (root tables, the image):
  // exhaustion there is a configuration error, not a guest-visible one.
  u64 alloc_ppn() {
    const auto ppn = try_alloc_ppn();
    SEALPK_CHECK_MSG(ppn.has_value(), "out of phys frames");
    return *ppn;
  }

  u64 frames_left() const {
    return free_.size() + (end_ - next_) / mem::kPageSize;
  }

  void free_ppn(u64 ppn) {
    free_.push_back(ppn);
    SEALPK_CHECK(allocated_ > 0);
    --allocated_;
  }

  u64 allocated_frames() const { return allocated_; }

  // Snapshot port: the free list is a LIFO, so its order is part of the
  // deterministic allocation stream and travels verbatim.
  void save_state(ByteWriter& w) const { fields(w, *this); }
  void load_state(ByteReader& r) { fields(r, *this); }

 private:
  template <typename Io, typename Self>
  static void fields(Io& io, Self& self) {
    u64 end = self.end_;
    io.fields(self.next_, end, self.allocated_);
    SEALPK_CHECK_MSG(end == self.end_, "frame allocator range mismatch");
    io.seq(self.free_, sizeof(u64));
  }

  u64 next_;
  u64 end_;
  u64 allocated_ = 0;
  std::vector<u64> free_;
};

}  // namespace sealpk::os
