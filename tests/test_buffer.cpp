// Tests for the SRAM FIFO buffer: ordering, capacity, threshold signalling,
// overflow accounting, runtime reconfiguration.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "buffer/fifo.hpp"

namespace aetr::buffer {
namespace {

using namespace time_literals;
using aer::AetrWord;

TEST(Fifo, FifoOrderPreserved) {
  AetrFifo fifo{{.capacity_words = 16, .batch_threshold = 16}};
  for (std::uint16_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(fifo.push(AetrWord::make(i, i), Time::zero()));
  }
  for (std::uint16_t i = 0; i < 10; ++i) {
    EXPECT_EQ(fifo.pop(Time::zero()).address(), i);
  }
  EXPECT_TRUE(fifo.empty());
}

// The SRAM is a ring: order and overflow handling must hold while it
// wraps, fills and drains, under both overflow policies (checked against
// a std::deque model).
TEST(Fifo, RingMatchesDequeModelAcrossWrap) {
  for (const OverflowPolicy policy :
       {OverflowPolicy::kDropNewest, OverflowPolicy::kDropOldest}) {
    AetrFifo fifo{{.capacity_words = 300,
                   .batch_threshold = 300,
                   .overflow_policy = policy}};
    std::deque<std::uint32_t> model;
    std::uint32_t next = 0;
    std::uint64_t state = 0x9E3779B97F4A7C15u;
    for (int step = 0; step < 20000; ++step) {
      state = state * 6364136223846793005u + 1442695040888963407u;
      // Phases of push-heavy and pop-heavy traffic fill, wrap and drain.
      const bool push_heavy = (step / 700) % 2 == 0;
      if (((state >> 33) % 4 != 0) == push_heavy) {
        const AetrWord w = AetrWord::make(next % 1024, next);
        ++next;
        fifo.push(w, Time::zero());
        if (model.size() < 300) {
          model.push_back(w.raw());
        } else if (policy == OverflowPolicy::kDropOldest) {
          model.pop_front();
          model.push_back(w.raw());
        }
      } else if (!model.empty()) {
        ASSERT_EQ(fifo.pop(Time::zero()).raw(), model.front()) << step;
        model.pop_front();
      }
      ASSERT_EQ(fifo.size(), model.size()) << step;
    }
    EXPECT_GT(fifo.overflows(), 0u);
  }
}

TEST(Fifo, DefaultGeometryMatchesPaper) {
  AetrFifo fifo;
  // 9.2 kB of 32-bit words.
  EXPECT_EQ(fifo.capacity(), 2300u);
}

TEST(Fifo, OverflowDropsAndCounts) {
  AetrFifo fifo{{.capacity_words = 4, .batch_threshold = 4}};
  for (std::uint16_t i = 0; i < 6; ++i) {
    fifo.push(AetrWord::make(i, 0), Time::zero());
  }
  EXPECT_EQ(fifo.size(), 4u);
  EXPECT_EQ(fifo.overflows(), 2u);
  EXPECT_EQ(fifo.pushes(), 4u);  // only accepted words count as pushes
  // The oldest words survive (the drop is at the tail).
  EXPECT_EQ(fifo.pop(Time::zero()).address(), 0);
}

TEST(Fifo, ThresholdFiresOnCrossing) {
  AetrFifo fifo{{.capacity_words = 16, .batch_threshold = 3}};
  std::vector<Time> fires;
  fifo.on_threshold([&](Time t) { fires.push_back(t); });
  fifo.push(AetrWord::make(1, 0), 1_ns);
  fifo.push(AetrWord::make(2, 0), 2_ns);
  EXPECT_TRUE(fires.empty());
  fifo.push(AetrWord::make(3, 0), 3_ns);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0], 3_ns);
  // Above threshold: no retrigger until it drops below again.
  fifo.push(AetrWord::make(4, 0), 4_ns);
  EXPECT_EQ(fires.size(), 1u);
  fifo.pop(5_ns);
  fifo.pop(5_ns);  // size 2 < 3: re-armed
  fifo.push(AetrWord::make(5, 0), 6_ns);
  ASSERT_EQ(fires.size(), 2u);
}

TEST(Fifo, MaxOccupancyTracked) {
  AetrFifo fifo{{.capacity_words = 8, .batch_threshold = 8}};
  for (std::uint16_t i = 0; i < 5; ++i) {
    fifo.push(AetrWord::make(i, 0), Time::zero());
  }
  fifo.pop(Time::zero());
  fifo.pop(Time::zero());
  EXPECT_EQ(fifo.max_occupancy(), 5u);
  EXPECT_EQ(fifo.pops(), 2u);
}

TEST(Fifo, RuntimeThresholdChange) {
  AetrFifo fifo{{.capacity_words = 16, .batch_threshold = 10}};
  int fires = 0;
  fifo.on_threshold([&](Time) { ++fires; });
  for (std::uint16_t i = 0; i < 4; ++i) {
    fifo.push(AetrWord::make(i, 0), Time::zero());
  }
  EXPECT_EQ(fires, 0);
  fifo.set_batch_threshold(4);  // already at 4: armed state recomputed
  fifo.push(AetrWord::make(9, 0), Time::zero());
  EXPECT_EQ(fires, 1);
}

TEST(Fifo, InvalidConfigThrows) {
  EXPECT_THROW((AetrFifo{{.capacity_words = 0, .batch_threshold = 1}}),
               std::invalid_argument);
  EXPECT_THROW((AetrFifo{{.capacity_words = 4, .batch_threshold = 5}}),
               std::invalid_argument);
  AetrFifo fifo{{.capacity_words = 4, .batch_threshold = 2}};
  EXPECT_THROW(fifo.set_batch_threshold(0), std::invalid_argument);
  EXPECT_THROW(fifo.set_batch_threshold(5), std::invalid_argument);
}

TEST(Fifo, WordPayloadSurvivesRoundTrip) {
  AetrFifo fifo{{.capacity_words = 4, .batch_threshold = 4}};
  const auto w = AetrWord::make(0x3FF, 0x3FFFFE);
  fifo.push(w, Time::zero());
  EXPECT_EQ(fifo.pop(Time::zero()), w);
}

}  // namespace
}  // namespace aetr::buffer
