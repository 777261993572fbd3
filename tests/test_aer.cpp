// Unit tests for the AER substrate: event/word encoding, 4-phase channel
// protocol checking, sender/receiver agents, CAVIAR compliance, trace I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "aer/agents.hpp"
#include "aer/caviar.hpp"
#include "aer/channel.hpp"
#include "aer/event.hpp"
#include "aer/trace.hpp"
#include "sim/scheduler.hpp"

namespace aetr::aer {
namespace {

using namespace time_literals;

TEST(AetrWord, FieldPackingRoundTrip) {
  const auto w = AetrWord::make(0x2AB, 123456);
  EXPECT_EQ(w.address(), 0x2AB);
  EXPECT_EQ(w.timestamp_ticks(), 123456u);
  EXPECT_FALSE(w.is_saturated());
}

TEST(AetrWord, AddressMasksToTenBits) {
  const auto w = AetrWord::make(0xFFFF, 1);
  EXPECT_EQ(w.address(), 0x3FF);
}

TEST(AetrWord, TimestampSaturatesAtFieldWidth) {
  const auto w = AetrWord::make(5, std::uint64_t{1} << 30);
  EXPECT_TRUE(w.is_saturated());
  EXPECT_EQ(w.timestamp_ticks(), AetrWord::kSaturated);
}

TEST(AetrWord, SaturatedMarker) {
  const auto w = AetrWord::saturated(17);
  EXPECT_TRUE(w.is_saturated());
  EXPECT_EQ(w.address(), 17);
}

TEST(AetrWord, TimestampScaling) {
  const auto w = AetrWord::make(1, 100);
  EXPECT_EQ(w.timestamp(Time::ns(66.667)), Time::ns(6666.7));
}

TEST(AetrWord, RawRoundTrip) {
  const auto w = AetrWord::make(0x155, 0x1234);
  const AetrWord back{w.raw()};
  EXPECT_EQ(back, w);
}

TEST(Channel, FourPhaseHandshakeCompletes) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.set_strict(true);
  ch.drive_addr(42);
  ch.assert_req();
  EXPECT_TRUE(ch.req());
  EXPECT_EQ(ch.addr(), 42);
  ch.assert_ack();
  ch.deassert_req();
  ch.deassert_ack();
  EXPECT_EQ(ch.handshakes(), 1u);
  EXPECT_TRUE(ch.violations().empty());
}

TEST(Channel, ObserversSeeEdges) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  int req_edges = 0, ack_edges = 0;
  ch.on_req_change([&](bool, Time) { ++req_edges; });
  ch.on_ack_change([&](bool, Time) { ++ack_edges; });
  ch.drive_addr(1);
  ch.assert_req();
  ch.assert_ack();
  ch.deassert_req();
  ch.deassert_ack();
  EXPECT_EQ(req_edges, 2);
  EXPECT_EQ(ack_edges, 2);
}

TEST(Channel, AddrChangeDuringReqIsViolation) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.drive_addr(1);
  ch.assert_req();
  ch.drive_addr(2);
  ASSERT_EQ(ch.violations().size(), 1u);
  EXPECT_NE(ch.violations()[0].description.find("ADDR"), std::string::npos);
}

TEST(Channel, AckWithoutReqIsViolation) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.assert_ack();
  EXPECT_EQ(ch.violations().size(), 1u);
}

TEST(Channel, ReqDeassertBeforeAckIsViolation) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.drive_addr(1);
  ch.assert_req();
  ch.deassert_req();
  EXPECT_FALSE(ch.violations().empty());
}

TEST(Channel, StrictModeThrows) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.set_strict(true);
  EXPECT_THROW(ch.assert_ack(), std::logic_error);
}

TEST(Channel, DoubleReqIsViolation) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.drive_addr(1);
  ch.assert_req();
  ch.assert_req();
  EXPECT_FALSE(ch.violations().empty());
}

TEST(Agents, SenderReceiverRoundTrip) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.set_strict(true);
  AerSender sender{sched, ch};
  ImmediateAckReceiver receiver{sched, ch};
  EventStream stream;
  for (int i = 0; i < 10; ++i) {
    stream.push_back(Event{static_cast<std::uint16_t>(i), Time::us(i * 10)});
  }
  sender.submit_stream(stream);
  sched.run();
  ASSERT_EQ(receiver.received().size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(receiver.received()[i].address, i);
    // Received at the REQ edge: nominal time + addr setup.
    EXPECT_GE(receiver.received()[i].time,
              Time::us(static_cast<double>(i) * 10));
  }
  EXPECT_EQ(ch.handshakes(), 10u);
  EXPECT_EQ(sender.backlog(), 0u);
}

TEST(Agents, SenderAppliesBackpressure) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  ch.set_strict(true);
  AerSender sender{sched, ch};
  // Slow receiver: 1 us to ACK, so closely spaced events must queue.
  ImmediateAckReceiver receiver{sched, ch, 1_us, 1_us};
  EventStream stream;
  for (int i = 0; i < 5; ++i) {
    stream.push_back(Event{static_cast<std::uint16_t>(i), Time::ns(i * 10)});
  }
  sender.submit_stream(stream);
  sched.run();
  ASSERT_EQ(receiver.received().size(), 5u);
  // Actual REQ times must be serialised at >= the handshake duration apart.
  for (std::size_t i = 1; i < sender.sent().size(); ++i) {
    EXPECT_GE(sender.sent()[i].time - sender.sent()[i - 1].time, 2_us);
  }
}

TEST(Agents, SentLogRecordsActualReqTimes) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  AerSender sender{sched, ch, SenderTiming{.addr_setup = 7_ns}};
  ImmediateAckReceiver receiver{sched, ch};
  sender.submit(Event{3, 100_ns});
  sched.run();
  ASSERT_EQ(sender.sent().size(), 1u);
  EXPECT_EQ(sender.sent()[0].time, 107_ns);
  EXPECT_GT(sender.handshake_latency().mean(), 0.0);
}

TEST(Caviar, CompliantHandshakesPass) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  AerSender sender{sched, ch};
  ImmediateAckReceiver receiver{sched, ch, 10_ns, 5_ns};
  CaviarChecker checker{ch};
  EventStream stream;
  for (int i = 0; i < 20; ++i) {
    stream.push_back(Event{1, Time::us(i)});
  }
  sender.submit_stream(stream);
  sched.run();
  EXPECT_EQ(checker.checked(), 20u);
  EXPECT_TRUE(checker.compliant());
  EXPECT_LT(checker.durations().max(), 700e-9);
}

TEST(Caviar, SlowHandshakeFlagged) {
  sim::Scheduler sched;
  AerChannel ch{sched};
  AerSender sender{sched, ch};
  ImmediateAckReceiver receiver{sched, ch, 1_us, 5_ns};  // ACK after 1 us
  CaviarChecker checker{ch};
  sender.submit(Event{1, Time::zero()});
  sched.run();
  EXPECT_EQ(checker.checked(), 1u);
  ASSERT_EQ(checker.violation_count(), 1u);
  EXPECT_GT(checker.durations().max(), 700e-9);
}

TEST(Trace, WriteReadRoundTrip) {
  EventStream events{{5, 100_ns}, {6, 250_ns}, {1023, 1_ms}};
  std::stringstream ss;
  write_trace(ss, events);
  const auto back = read_trace(ss);
  EXPECT_EQ(back, events);
}

TEST(Trace, CommentsAndBlanksIgnored) {
  std::stringstream ss{"# header\n\n100 5\n  # mid comment\n200 6\n"};
  const auto events = read_trace(ss);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].address, 5);
  EXPECT_EQ(events[1].time, 200_ps);
}

TEST(Trace, MalformedLineThrows) {
  std::stringstream ss{"100 notanumber\n"};
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(Trace, AddressOutOfRangeThrows) {
  std::stringstream ss{"100 5000\n"};
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(Trace, OutOfOrderThrows) {
  std::stringstream ss{"200 1\n100 2\n"};
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(Trace, FileRoundTrip) {
  const std::string path = testing::TempDir() + "aetr_trace_test.txt";
  EventStream events{{1, 10_ns}, {2, 20_ns}};
  save_trace(path, events);
  EXPECT_EQ(load_trace(path), events);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aetr::aer
