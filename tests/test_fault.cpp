// Fault-injection & recovery: the determinism contract and the per-block
// injection/recovery mechanics of src/fault + core::run_scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/scenario.hpp"
#include "fault/injector.hpp"
#include "gen/sources.hpp"
#include "spi/spi.hpp"

namespace aetr {
namespace {

using namespace time_literals;

aer::EventStream test_stream(std::size_t n = 400, std::uint64_t seed = 5) {
  gen::PoissonSource src{40e3, 128, seed, Time::ns(130.0)};
  return gen::take(src, n);
}

// Everything a RunResult measures that must be deterministic, flattened so
// two results can be compared field-for-field.
void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.events_in, b.events_in);
  EXPECT_EQ(a.words_out, b.words_out);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.fifo_overflows, b.fifo_overflows);
  EXPECT_EQ(a.handshakes, b.handshakes);
  EXPECT_EQ(a.sim_end, b.sim_end);
  EXPECT_EQ(a.average_power_w, b.average_power_w);  // bit-exact, no tolerance
  EXPECT_EQ(a.error.weighted_rel_error(), b.error.weighted_rel_error());
  ASSERT_EQ(a.decoded.size(), b.decoded.size());
  for (std::size_t i = 0; i < a.decoded.size(); ++i) {
    EXPECT_EQ(a.decoded[i].address, b.decoded[i].address) << "event " << i;
    EXPECT_EQ(a.decoded[i].reconstructed_time, b.decoded[i].reconstructed_time)
        << "event " << i;
  }
  EXPECT_EQ(a.faults.injected_total(), b.faults.injected_total());
  EXPECT_EQ(a.faults.recovered_total(), b.faults.recovered_total());
  EXPECT_EQ(a.faults.watchdog_resyncs, b.faults.watchdog_resyncs);
  EXPECT_EQ(a.faults.crc_rejected_words, b.faults.crc_rejected_words);
}

// A plan exercising every lottery at once, for the determinism tests.
fault::FaultPlan rich_plan(std::uint64_t seed = 99) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.aer.drop_req_prob = 0.05;
  plan.aer.stuck_ack_prob = 0.05;
  plan.aer.addr_bit_flip_prob = 0.05;
  plan.aer.runt_req_prob = 0.05;
  plan.aer.runt_width = Time::ns(150.0);
  plan.clock.period_jitter_rel = 0.05;
  plan.clock.wake_jitter_rel = 0.05;
  plan.fifo.cell_bit_flip_prob = 0.02;
  plan.i2s.bit_error_rate = 1e-4;
  return plan;
}

// --- determinism contract ----------------------------------------------------

TEST(FaultDeterminism, ZeroRatePlanIdenticalToEmptyPlan) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  ASSERT_FALSE(scenario.faults.any());

  // Same scenario, but with every recovery knob toggled and a different
  // seed: with all rates at zero, none of it may perturb the pipeline.
  core::ScenarioConfig zero_rate = scenario;
  zero_rate.faults.seed = 0xDEADBEEF;
  zero_rate.faults.recovery.watchdog = false;
  zero_rate.faults.recovery.fifo_parity = false;
  zero_rate.faults.recovery.crc_frames = false;
  ASSERT_FALSE(zero_rate.faults.any());

  const auto with_plan = core::run_scenario(scenario, events);
  const auto baseline = core::run_scenario(zero_rate, events);
  expect_identical(with_plan, baseline);
  EXPECT_EQ(with_plan.faults.injected_total(), 0u);
  EXPECT_EQ(with_plan.faults.recovered_total(), 0u);
}

TEST(FaultDeterminism, SameSeedSamePlanSameResult) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults = rich_plan();

  const auto a = core::run_scenario(scenario, events);
  const auto b = core::run_scenario(scenario, events);
  EXPECT_GT(a.faults.injected_total(), 0u);
  expect_identical(a, b);
}

TEST(FaultDeterminism, RecoveryOffStillDeterministic) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults = rich_plan();
  scenario.faults.aer.drop_req_prob = 0.0;   // needs the watchdog to finish
  scenario.faults.aer.stuck_ack_prob = 0.0;
  scenario.faults.aer.runt_req_prob = 0.0;
  scenario.faults.recovery.fifo_parity = false;
  scenario.faults.recovery.crc_frames = false;

  const auto a = core::run_scenario(scenario, events);
  const auto b = core::run_scenario(scenario, events);
  expect_identical(a, b);
  EXPECT_EQ(a.faults.fifo_parity_drops, 0u);
  EXPECT_EQ(a.faults.crc_rejected_batches, 0u);
}

// --- per-block injection + recovery mechanics --------------------------------

TEST(FaultRecovery, WatchdogRedeliversDroppedReq) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.aer.drop_req_prob = 0.2;

  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.req_dropped, 0u);
  EXPECT_GT(r.faults.watchdog_resyncs, 0u);
  // Every dropped REQ is eventually re-delivered: no events are lost.
  EXPECT_EQ(r.decoded.size(), events.size());
}

TEST(FaultRecovery, WatchdogRedrivesStuckAck) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.aer.stuck_ack_prob = 0.2;

  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.ack_stuck, 0u);
  EXPECT_GT(r.faults.ack_recoveries, 0u);
  EXPECT_EQ(r.decoded.size(), events.size());
}

TEST(FaultRecovery, RuntPulsesAreInjectedAndSurvivable) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.aer.runt_req_prob = 0.3;
  scenario.faults.aer.runt_width = Time::ns(150.0);

  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.runt_pulses, 0u);
  EXPECT_EQ(r.decoded.size(), events.size());
}

TEST(FaultInjection, AddrFlipsKeepTimingButChangeAddresses) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.aer.addr_bit_flip_prob = 0.5;

  core::ScenarioConfig clean_scenario;
  clean_scenario.interface = scenario.interface;
  const auto clean = core::run_scenario(clean_scenario, events);
  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.addr_flips, 0u);
  // Address corruption is undetectable: same word count, same timestamps,
  // different addresses.
  ASSERT_EQ(r.decoded.size(), clean.decoded.size());
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < r.decoded.size(); ++i) {
    EXPECT_EQ(r.decoded[i].reconstructed_time,
              clean.decoded[i].reconstructed_time);
    if (r.decoded[i].address != clean.decoded[i].address) ++mismatched;
  }
  EXPECT_EQ(mismatched, r.faults.addr_flips);
}

TEST(FaultInjection, ClockJitterDegradesAccuracyOnly) {
  const auto events = test_stream(800);
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.clock.period_jitter_rel = 0.3;

  core::ScenarioConfig clean_scenario;
  clean_scenario.interface = scenario.interface;
  const auto clean = core::run_scenario(clean_scenario, events);
  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.tick_jitter_events, 0u);
  EXPECT_EQ(r.decoded.size(), clean.decoded.size());  // nothing lost
  EXPECT_GT(r.error.weighted_rel_error(), clean.error.weighted_rel_error());
}

TEST(FaultRecovery, FifoParityDropsUpsetWords) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.fifo.cell_bit_flip_prob = 0.1;

  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.fifo_bit_flips, 0u);
  // Parity catches every single-bit upset; each detected word is dropped.
  EXPECT_EQ(r.faults.fifo_parity_drops, r.faults.fifo_bit_flips);
  EXPECT_EQ(r.decoded.size() + r.faults.fifo_parity_drops, events.size());
}

TEST(FaultRecovery, FifoUpsetsFlowDownstreamWithoutParity) {
  const auto events = test_stream();
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.fifo.cell_bit_flip_prob = 0.1;
  scenario.faults.recovery.fifo_parity = false;
  scenario.faults.recovery.crc_frames = false;

  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.fifo_bit_flips, 0u);
  EXPECT_EQ(r.faults.fifo_parity_drops, 0u);
  // Corrupt words are delivered as if healthy.
  EXPECT_EQ(r.decoded.size(), events.size());
}

TEST(FaultRecovery, CrcGateRejectsCorruptBatches) {
  const auto events = test_stream(800);
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.i2s.bit_error_rate = 2e-3;

  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.i2s_bit_errors, 0u);
  EXPECT_GT(r.faults.crc_rejected_batches, 0u);
  EXPECT_GT(r.faults.crc_rejected_words, 0u);
  // Rejection is whole-batch: nothing corrupt reaches the reconstruction.
  // Each rejected batch's word count includes its unmatched CRC trailer,
  // so the event accounting subtracts one trailer per rejected batch.
  EXPECT_EQ(r.decoded.size() + r.faults.crc_rejected_words -
                r.faults.crc_rejected_batches,
            events.size());
}

TEST(FaultRecovery, LineNoisePassesWithoutCrc) {
  const auto events = test_stream(800);
  core::ScenarioConfig scenario;
  scenario.interface.fifo.batch_threshold = 64;
  scenario.faults.i2s.bit_error_rate = 2e-3;
  scenario.faults.recovery.crc_frames = false;

  const auto r = core::run_scenario(scenario, events);
  EXPECT_GT(r.faults.i2s_bit_errors, 0u);
  EXPECT_EQ(r.faults.crc_rejected_batches, 0u);
  EXPECT_EQ(r.decoded.size(), events.size());  // corrupt words decoded anyway
}

TEST(FaultInjection, SpiWordCorruptionIsCountedAtTheSlave) {
  spi::ConfigBus bus;
  std::uint8_t reg0 = 0;
  bus.map(spi::Reg::kThetaDiv, [&] { return reg0; },
          [&](std::uint8_t v) { reg0 = v; });

  fault::FaultPlan plan;
  plan.seed = 7;
  plan.spi.word_bit_flip_prob = 1.0;  // every frame corrupts
  fault::FaultInjector injector{plan};

  spi::SpiSlave slave{bus};
  slave.attach_faults(&injector);
  const std::uint16_t frame = 0x8000u | 0x40u;  // write reg0 = 0x40
  slave.set_csn(false);
  for (int bit = 15; bit >= 0; --bit) {
    slave.sck_rise(((frame >> bit) & 1u) != 0);
    slave.sck_fall();
  }
  slave.set_csn(true);
  EXPECT_EQ(injector.counters().spi_corrupted, 1u);
  EXPECT_EQ(slave.transactions(), 1u);
}

// --- injector primitives -----------------------------------------------------

TEST(FaultInjector, ZeroProbabilityConsumesNoRandomness) {
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultInjector a{plan};
  fault::FaultInjector b{plan};
  // Interleave zero-probability rolls on `a` only; the streams must stay
  // aligned because a zero roll never draws.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(a.roll(fault::Site::kAerWire, 0.0));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.roll(fault::Site::kAerWire, 0.5),
              b.roll(fault::Site::kAerWire, 0.5))
        << "draw " << i;
  }
}

TEST(FaultInjector, SitesDrawFromIndependentStreams) {
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::FaultInjector a{plan};
  fault::FaultInjector b{plan};
  // Burn draws on one site of `a`; another site's stream must not move.
  for (int i = 0; i < 100; ++i) {
    (void)a.roll(fault::Site::kFifoCell, 0.5);
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.pick_bit(fault::Site::kI2sLink, 32),
              b.pick_bit(fault::Site::kI2sLink, 32))
        << "draw " << i;
  }
}

// --- validation --------------------------------------------------------------

TEST(ScenarioValidate, RejectsOutOfRangeProbability) {
  core::ScenarioConfig scenario;
  scenario.faults.aer.drop_req_prob = 1.5;
  EXPECT_THROW(scenario.validate(), std::invalid_argument);
  scenario.faults.aer.drop_req_prob = -0.1;
  EXPECT_THROW(scenario.validate(), std::invalid_argument);
}

TEST(ScenarioValidate, RejectsDegenerateRuntWidth) {
  core::ScenarioConfig scenario;
  scenario.faults.aer.runt_req_prob = 0.1;
  scenario.faults.aer.runt_width = Time::zero();
  EXPECT_THROW(scenario.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace aetr
