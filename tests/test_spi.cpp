// Tests for the SPI configuration interface: bus mapping, bit-level slave
// decode, and master-driven transactions.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/scheduler.hpp"
#include "spi/spi.hpp"

namespace aetr::spi {
namespace {

TEST(ConfigBus, ReadWriteMappedRegister) {
  ConfigBus bus;
  std::uint8_t reg = 0;
  bus.map(
      Reg::kThetaDiv, [&] { return reg; },
      [&](std::uint8_t v) { reg = v; });
  bus.write(0x00, 64);
  EXPECT_EQ(reg, 64);
  EXPECT_EQ(bus.read(0x00), 64);
}

TEST(ConfigBus, UnmappedReadReturnsZero) {
  ConfigBus bus;
  EXPECT_EQ(bus.read(0x55), 0);
}

TEST(ConfigBus, ReadOnlyWriteIgnoredAndCounted) {
  ConfigBus bus;
  bus.map(Reg::kStatus, [] { return std::uint8_t{3}; });
  bus.write(static_cast<std::uint8_t>(Reg::kStatus), 0xFF);
  EXPECT_EQ(bus.read(static_cast<std::uint8_t>(Reg::kStatus)), 3);
  EXPECT_EQ(bus.ignored_writes(), 1u);
}

/// Clock a 16-bit frame into the slave directly (mode 0), sampling MISO
/// before each rising edge; returns the low byte read back.
std::uint8_t shift_frame(SpiSlave& slave, std::uint16_t frame) {
  std::uint16_t miso = 0;
  slave.set_csn(false);
  for (int bit = 15; bit >= 0; --bit) {
    miso = static_cast<std::uint16_t>((static_cast<unsigned>(miso) << 1) |
                                      (slave.miso() ? 1u : 0u));
    slave.sck_rise((static_cast<unsigned>(frame) >> bit) & 1u);
    slave.sck_fall();
  }
  slave.set_csn(true);
  return static_cast<std::uint8_t>(miso & 0xFF);
}

TEST(SpiSlave, DecodesWriteTransaction) {
  ConfigBus bus;
  std::uint8_t reg = 0;
  bus.map(
      Reg::kNDiv, [&] { return reg; },
      [&](std::uint8_t v) { reg = v; });
  SpiSlave slave{bus};
  shift_frame(slave, 0x8000 | (0x01 << 8) | 0x0A);  // write reg 1 = 10
  EXPECT_EQ(reg, 10);
  EXPECT_EQ(slave.transactions(), 1u);
  EXPECT_EQ(slave.bits_clocked(), 16u);
}

TEST(SpiSlave, DecodesReadTransaction) {
  ConfigBus bus;
  bus.map(Reg::kThetaDiv, [] { return std::uint8_t{0xA5}; });
  SpiSlave slave{bus};
  const auto data = shift_frame(slave, 0x0000);  // read reg 0
  EXPECT_EQ(data, 0xA5);
}

TEST(SpiSlave, IgnoredWhenDeselected) {
  ConfigBus bus;
  std::uint8_t reg = 0;
  bus.map(
      Reg::kThetaDiv, [&] { return reg; },
      [&](std::uint8_t v) { reg = v; });
  SpiSlave slave{bus};
  // CSN stays high: nothing happens.
  for (int i = 0; i < 16; ++i) {
    slave.sck_rise(true);
    slave.sck_fall();
  }
  EXPECT_EQ(slave.transactions(), 0u);
  EXPECT_EQ(reg, 0);
}

TEST(SpiSlave, CsnResetRealignsFrame) {
  ConfigBus bus;
  std::uint8_t reg = 0;
  bus.map(
      Reg::kThetaDiv, [&] { return reg; },
      [&](std::uint8_t v) { reg = v; });
  SpiSlave slave{bus};
  // Clock a partial garbage frame, deselect, then a clean write.
  slave.set_csn(false);
  for (int i = 0; i < 5; ++i) {
    slave.sck_rise(true);
    slave.sck_fall();
  }
  slave.set_csn(true);
  shift_frame(slave, 0x8000 | 0x37);
  EXPECT_EQ(reg, 0x37);
}

TEST(SpiSlave, BackToBackTransactionsInOneSelect) {
  ConfigBus bus;
  std::uint8_t a = 0, b = 0;
  bus.map(
      Reg::kThetaDiv, [&] { return a; }, [&](std::uint8_t v) { a = v; });
  bus.map(
      Reg::kNDiv, [&] { return b; }, [&](std::uint8_t v) { b = v; });
  SpiSlave slave{bus};
  slave.set_csn(false);
  auto clock16 = [&](std::uint16_t frame) {
    for (int bit = 15; bit >= 0; --bit) {
      slave.sck_rise((static_cast<unsigned>(frame) >> bit) & 1u);
      slave.sck_fall();
    }
  };
  clock16(0x8000 | 0x11);
  clock16(0x8100 | 0x22);
  slave.set_csn(true);
  EXPECT_EQ(a, 0x11);
  EXPECT_EQ(b, 0x22);
  EXPECT_EQ(slave.transactions(), 2u);
}

TEST(SpiMaster, WriteThenReadThroughWire) {
  sim::Scheduler sched;
  ConfigBus bus;
  std::uint8_t reg = 0;
  bus.map(
      Reg::kThetaDiv, [&] { return reg; },
      [&](std::uint8_t v) { reg = v; });
  SpiSlave slave{bus};
  SpiMaster master{sched, slave};
  master.write(Reg::kThetaDiv, 64);
  std::uint8_t read_back = 0;
  master.read(Reg::kThetaDiv, [&](std::uint8_t v) { read_back = v; });
  sched.run();
  EXPECT_EQ(reg, 64);
  EXPECT_EQ(read_back, 64);
  EXPECT_FALSE(master.busy());
  EXPECT_EQ(slave.transactions(), 2u);
}

TEST(SpiMaster, QueuedTransactionsSerialise) {
  sim::Scheduler sched;
  ConfigBus bus;
  std::uint8_t reg = 0;
  bus.map(
      Reg::kNDiv, [&] { return reg; },
      [&](std::uint8_t v) { reg = v; });
  SpiSlave slave{bus};
  SpiMaster master{sched, slave};
  for (std::uint8_t v = 1; v <= 5; ++v) master.write(Reg::kNDiv, v);
  sched.run();
  EXPECT_EQ(reg, 5);
  EXPECT_EQ(slave.transactions(), 5u);
  EXPECT_EQ(slave.bits_clocked(), 80u);
}

}  // namespace
}  // namespace aetr::spi
