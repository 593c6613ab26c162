#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/json_parse.h"
#include "common/pool.h"
#include "common/rng.h"

namespace sealpk {
namespace {

TEST(Bits, ExtractBasic) {
  EXPECT_EQ(bits(0xDEADBEEF, 31, 16), 0xDEADu);
  EXPECT_EQ(bits(0xDEADBEEF, 15, 0), 0xBEEFu);
  EXPECT_EQ(bits(0xFF, 3, 0), 0xFu);
  EXPECT_EQ(bits(~u64{0}, 63, 0), ~u64{0});
}

TEST(Bits, SingleBit) {
  EXPECT_EQ(bit(0b1010, 1), 1u);
  EXPECT_EQ(bit(0b1010, 0), 0u);
  EXPECT_EQ(bit(u64{1} << 63, 63), 1u);
}

TEST(Bits, Deposit) {
  EXPECT_EQ(deposit(0, 7, 4, 0xA), 0xA0u);
  EXPECT_EQ(deposit(0xFF, 7, 4, 0x0), 0x0Fu);
  EXPECT_EQ(deposit(0, 63, 54, 0x3FF), u64{0x3FF} << 54);
  // Field wider than value: masked.
  EXPECT_EQ(deposit(0, 3, 0, 0x1FF), 0xFu);
}

TEST(Bits, DepositRoundTripsWithExtract) {
  for (unsigned lo = 0; lo < 60; lo += 7) {
    const u64 v = deposit(0x1234'5678'9ABC'DEF0, lo + 3, lo, 0b1010);
    EXPECT_EQ(bits(v, lo + 3, lo), 0b1010u) << "lo=" << lo;
  }
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sext(0xFFF, 12), -1);
  EXPECT_EQ(sext(0x7FF, 12), 0x7FF);
  EXPECT_EQ(sext(0x800, 12), -2048);
  EXPECT_EQ(sext(0xFFFFFFFF, 32), -1);
  EXPECT_EQ(sext(0x80000000, 32), INT64_C(-2147483648));
}

TEST(Bits, ZeroExtend) {
  EXPECT_EQ(zext(~u64{0}, 12), 0xFFFu);
  EXPECT_EQ(zext(~u64{0}, 64), ~u64{0});
}

TEST(Bits, FitsSigned) {
  EXPECT_TRUE(fits_signed(2047, 12));
  EXPECT_FALSE(fits_signed(2048, 12));
  EXPECT_TRUE(fits_signed(-2048, 12));
  EXPECT_FALSE(fits_signed(-2049, 12));
  EXPECT_TRUE(fits_signed(0, 1));
  EXPECT_TRUE(fits_signed(-1, 1));
  EXPECT_FALSE(fits_signed(1, 1));
}

TEST(Bits, Alignment) {
  EXPECT_EQ(align_down(0x1FFF, 0x1000), 0x1000u);
  EXPECT_EQ(align_up(0x1001, 0x1000), 0x2000u);
  EXPECT_EQ(align_up(0x1000, 0x1000), 0x1000u);
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

TEST(Check, ThrowsOnFailure) {
  EXPECT_THROW(SEALPK_CHECK(1 == 2), CheckError);
  EXPECT_NO_THROW(SEALPK_CHECK(1 == 1));
  try {
    SEALPK_CHECK_MSG(false, "context " << 42);
    FAIL();
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const u64 v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// --- json_parse.h -----------------------------------------------------------

TEST(JsonParse, ParsesTheReportShapesTheSloGateReads) {
  const JsonValue doc = json_parse(
      "{\"schema\": \"sealpk-serve-v1\", \"ok\": true, \"n\": -3.5,\n"
      " \"dispositions\": {\"served\": 24},\n"
      " \"cells\": [{\"mode\": \"virt-eager\", \"churn_per_sec\": 98546},\n"
      "            {\"mode\": \"raw\"}]}");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->str, "sealpk-serve-v1");
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_EQ(doc.find("n")->number, -3.5);
  EXPECT_EQ(doc.find("dispositions")->find("served")->number, 24.0);
  const JsonValue& cells = *doc.find("cells");
  ASSERT_TRUE(cells.is_array());
  ASSERT_EQ(cells.items.size(), 2u);
  EXPECT_EQ(cells.items[0].find("mode")->str, "virt-eager");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, HandlesEscapesAndRejectsMalformedInput) {
  const JsonValue s = json_parse("\"a\\\"b\\\\c\\n\\u0041\"");
  EXPECT_EQ(s.str, "a\"b\\c\nA");
  EXPECT_THROW(json_parse("{\"unterminated\": "), std::runtime_error);
  EXPECT_THROW(json_parse("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(json_parse("{\"a\": 1} trailing"), std::runtime_error);
  EXPECT_THROW(json_parse(""), std::runtime_error);
  // Nesting is bounded at 64 levels: hostile depth is a parse error, not a
  // host stack overflow.
  EXPECT_TRUE(json_parse(std::string(64, '[') + std::string(64, ']'))
                  .is_array());
  try {
    json_parse(std::string(65, '[') + std::string(65, ']'));
    ADD_FAILURE() << "65 levels parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("json parse error at byte 64"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(json_parse(std::string(200'000, '[')), std::runtime_error);
  std::string deep_object;
  for (int i = 0; i < 200'000; ++i) deep_object += "{\"a\": ";
  EXPECT_THROW(json_parse(deep_object), std::runtime_error);
}

// --- the shared pool (common/pool.h) ---------------------------------------

size_t live_threads() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(Pool, WorkersResolveOnceFromThreadsAndCells) {
  EXPECT_EQ(pool::workers(1, 100), 1u);
  EXPECT_EQ(pool::workers(4, 100), 4u);
  EXPECT_EQ(pool::workers(4, 2), 2u);
  EXPECT_EQ(pool::workers(4, 0), 1u);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(pool::workers(0, 1000), std::min(hw, 1000u));
  EXPECT_EQ(pool::workers(0, 1), 1u);
}

TEST(Pool, OneWorkerRunsInlineInIndexOrder) {
  std::vector<size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool::run(5, 1, [&](size_t i, unsigned worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(Pool, EveryCellRunsOnceIntoItsOwnSlot) {
  std::vector<std::atomic<int>> runs(257);
  std::vector<size_t> slots(257, 0);
  pool::run(slots.size(), 4, [&](size_t i, unsigned worker) {
    EXPECT_LT(worker, 4u);
    runs[i].fetch_add(1);
    slots[i] = i * i;
  });
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "cell " << i;
    EXPECT_EQ(slots[i], i * i);
  }
}

// A host exception in a threaded batch reaches the caller the way it does
// in a serial one: the lowest failing cell's, with every cell below it run
// and every worker joined.
TEST(Pool, RethrowsTheLowestFailingCellAfterJoiningEveryWorker) {
  for (const unsigned threads : {1u, 4u}) {
    const size_t before = live_threads();
    std::vector<int> slots(8, -1);
    std::string caught;
    try {
      pool::run(slots.size(), threads, [&](size_t i, unsigned) {
        if (i == 3) {
          // Cell 5 fails first when the cells run concurrently.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("cell 3");
        }
        if (i == 5) throw std::logic_error("cell 5");
        slots[i] = static_cast<int>(i);
      });
    } catch (const std::exception& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "cell 3") << threads << " thread(s)";
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(slots[i], static_cast<int>(i)) << threads << " thread(s)";
    }
    // A joined thread can stay listed for a moment after it exits.
    for (int wait = 0; live_threads() != before && wait < 100; ++wait) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(live_threads(), before) << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace sealpk
