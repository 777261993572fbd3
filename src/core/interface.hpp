// The AER-to-I2S interface (paper Fig. 3): the complete system deployed on
// the IGLOO nano, assembled from the substrate blocks.
//
//   AER in -> [front-end + clock generator] -> AETR words -> [FIFO buffer]
//          -> threshold -> [I2S master] -> I2S out -> (MCU consumer)
//   SPI slave -> configuration bus -> runtime registers of every block
//
// All blocks share the variable-frequency clock; everything except the
// request monitor is clock-gated when unused, which the power accounting
// reflects by charging only counted activity.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "aer/channel.hpp"
#include "buffer/fifo.hpp"
#include "clockgen/clock_generator.hpp"
#include "core/interrupt.hpp"
#include "fault/injector.hpp"
#include "frontend/aer_frontend.hpp"
#include "i2s/i2s.hpp"
#include "power/model.hpp"
#include "sim/scheduler.hpp"
#include "spi/spi.hpp"

namespace aetr::core {

/// Aggregate configuration of the whole interface.
struct InterfaceConfig {
  clockgen::ClockGeneratorConfig clock;
  frontend::FrontEndConfig front_end;
  buffer::FifoConfig fifo;
  i2s::I2sConfig i2s;
  power::PowerCalibration calibration = power::PowerCalibration::paper();
  /// Latency bound on buffered words: a drain starts at most this long
  /// after a word enters an idle FIFO, even below the batch threshold
  /// (zero disables — pure threshold batching). Keeps sparse streams from
  /// sitting in the buffer for seconds, which matters for anything doing
  /// closed-loop control off the decoded stream.
  Time drain_timeout = Time::zero();
};

/// The assembled interface. Owns every block; exposes the AER input
/// channel, the I2S output hook, the SPI configuration port, and settled
/// power/activity accounting.
class AerToI2sInterface {
 public:
  /// `faults` (optional) is the run's fault injector: the constructor
  /// attaches it to every instrumented block. Null builds the ordinary
  /// fault-free interface with zero added cost on the hot paths.
  AerToI2sInterface(sim::Scheduler& sched, InterfaceConfig config = {},
                    fault::FaultInjector* faults = nullptr);

  /// The asynchronous sensor-facing port.
  [[nodiscard]] aer::AerChannel& aer_in() { return channel_; }

  /// Downstream (MCU-facing) word delivery.
  void on_i2s_word(i2s::I2sMaster::WordFn fn) { i2s_.on_word(std::move(fn)); }

  /// SPI configuration port (bit-level).
  [[nodiscard]] spi::SpiSlave& spi() { return spi_slave_; }

  /// The INT pin to the MCU (Fig. 3): batch-ready / overflow / protocol /
  /// wakeup / drain-done sources, SPI-maskable and write-1-to-clear.
  [[nodiscard]] InterruptController& irq() { return irq_; }

  /// Words dropped at the FIFO so far. Reads the FIFO's own overflow
  /// counter — the single source the telemetry fifo.overflows probe and
  /// RunResult::fifo_overflows also report, so they can never disagree.
  [[nodiscard]] std::uint64_t dropped_words() const {
    return fifo_.overflows();
  }

  // --- component access for tests / analysis -------------------------------
  [[nodiscard]] clockgen::ClockGenerator& clock_generator() { return clkgen_; }
  [[nodiscard]] frontend::AerFrontEnd& front_end() { return front_end_; }
  [[nodiscard]] buffer::AetrFifo& fifo() { return fifo_; }
  [[nodiscard]] i2s::I2sMaster& i2s_master() { return i2s_; }

  /// Base timestamp tick (Tmin).
  [[nodiscard]] Time tick_unit() const { return clkgen_.tmin(); }

  /// Maximum measurable interval (the decoder's saturation span).
  [[nodiscard]] Time saturation_span() const {
    return clkgen_.schedule().awake_span();
  }

  /// Activity totals settled up to the current simulation time, or up to
  /// `now` (a metrics grid point, which the analytic engine may sample
  /// ahead of the scheduler's clock).
  [[nodiscard]] power::ActivityTotals activity() const {
    return activity_at(sched_.now());
  }
  [[nodiscard]] power::ActivityTotals activity_at(Time now) const;

  /// Average power over the whole run so far, per the calibrated model.
  [[nodiscard]] double average_power_w() const;
  [[nodiscard]] power::PowerBreakdown power_breakdown() const;
  [[nodiscard]] const power::PowerModel& power_model() const { return power_; }

  // --- snapshot/restore -----------------------------------------------------
  /// Outstanding drain-timeout deadlines (one standing DES timer each).
  /// The session counts these when testing scheduler quiescence.
  [[nodiscard]] std::size_t drain_deadline_count() const {
    return drain_deadlines_.size();
  }

  /// Serialize every block's state plus the interface's own registers and
  /// drain-timeout deadlines. Requires a quiescent point: no capture in
  /// flight, no I2S drain running, no runt overlay pending.
  void save_state(BlobWriter& w) const;

  /// Restore into a freshly constructed interface with an identical config.
  /// Re-arms one DES timer per saved drain deadline (the scheduler clock
  /// must already be restored so absolute re-arm times are in the future
  /// or at now()).
  void restore_state(BlobReader& r);

 private:
  void map_registers();
  void arm_drain_deadline(Time deadline);

  sim::Scheduler& sched_;
  InterfaceConfig cfg_;
  aer::AerChannel channel_;
  clockgen::ClockGenerator clkgen_;
  frontend::AerFrontEnd front_end_;
  buffer::AetrFifo fifo_;
  i2s::I2sMaster i2s_;
  spi::ConfigBus bus_;
  spi::SpiSlave spi_slave_;
  InterruptController irq_;
  power::PowerModel power_;
  bool spi_readout_{false};        ///< CTRL bit2: MCU polls the FIFO over SPI
  std::uint32_t readout_latch_{0};  ///< word latched by a kFifoData0 read
  /// Absolute deadlines of outstanding drain-timeout timers, oldest first
  /// (timers fire with a constant delta, so arming order is deadline order).
  std::deque<Time> drain_deadlines_;
};

}  // namespace aetr::core
