// Spike stimulus generators.
//
// Every evaluation in the paper is driven by one of these:
//  * PoissonSource      — Fig. 6 error sweeps ("Poisson distributed spike
//                         stream" fed to the Matlab model);
//  * LfsrRateSource     — Fig. 8 power sweeps (the paper adds "a variable
//                         rate pseudo-random spike generator based on a
//                         linear-feedback shift register" to the FPGA);
//  * BurstSource        — speech-like activity for ablations;
//  * RegularSource      — deterministic streams for protocol tests;
//  * TraceSource        — replay of recorded streams (incl. cochlea output);
//  * MergeSource        — combine sources (multi-sensor scenarios).
//
// Sources are pull-based iterators over an unbounded event sequence: next()
// yields one event, fill() a chunk of the same sequence. Use
// take()/take_until() to materialise finite streams.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "aer/event.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace aetr::gen {

/// Abstract pull-based spike source. Implementations must return events in
/// non-decreasing time order.
class SpikeSource {
 public:
  virtual ~SpikeSource() = default;

  /// The next spike, or nullopt when the source is exhausted.
  virtual std::optional<aer::Event> next() = 0;

  /// Write the next events of the same sequence into `out`, front to back,
  /// and return the count written: short of out.size() only when the
  /// source runs dry. next() and fill() may be interleaved freely. The
  /// default loops over next(); a source with a cheap draw overrides it
  /// with one non-virtual loop.
  virtual std::size_t fill(std::span<aer::Event> out);
};

/// Poisson process with a fixed mean rate; addresses drawn uniformly from
/// [0, address_range).
class PoissonSource final : public SpikeSource {
 public:
  PoissonSource(double rate_hz, std::uint16_t address_range,
                std::uint64_t seed, Time min_gap = Time::zero());

  std::optional<aer::Event> next() override;

 private:
  double mean_interval_sec_;
  std::uint16_t address_range_;
  Time min_gap_;
  Time t_{Time::zero()};
  Xoshiro256StarStar rng_;
};

/// Perfectly periodic source with a fixed address stride.
class RegularSource final : public SpikeSource {
 public:
  RegularSource(Time period, std::uint16_t address_range,
                Time first = Time::zero());

  std::optional<aer::Event> next() override;

 private:
  Time period_;
  std::uint16_t address_range_;
  Time t_;
  std::uint16_t addr_{0};
};

/// Model of the paper's on-FPGA pseudo-random generator: a generator clock
/// at `gen_clock` Hz fires a spike on each cycle where the LFSR word falls
/// below a programmable threshold, producing geometrically distributed
/// inter-spike intervals with mean rate `gen_clock * threshold / 2^width`.
/// Addresses come from a second LFSR. The per-cycle Bernoulli trial is
/// realised by exact geometric sampling (one LFSR word per event) so that
/// low-rate streams do not cost one iteration per generator cycle; event
/// times stay aligned to the generator clock grid.
///
/// The draw is one kernel: fill() runs it in a non-virtual loop and next()
/// once. Its floor(ln u / ln(1-p)) comes from a table log with a proven
/// error bound (cycles()); when the bound cannot rule out a different
/// floor it falls back to the std::log expression (cycles_std_log()), so
/// the stream is the std::log one bit for bit.
class LfsrRateSource final : public SpikeSource {
 public:
  /// Configure for a target mean rate. The generator clock must be well
  /// above the target rate; the paper runs it from the 30 MHz reference.
  LfsrRateSource(double target_rate_hz, Frequency gen_clock,
                 std::uint16_t address_range, std::uint32_t interval_seed,
                 std::uint32_t address_seed);

  std::optional<aer::Event> next() override;
  std::size_t fill(std::span<aer::Event> out) override;

  /// Effective mean rate given threshold quantisation.
  [[nodiscard]] double effective_rate_hz() const;

  /// Generator cycles from one spike to the next when the interval
  /// register yields `word`: floor(ln u / ln(1-p)) + 1 with
  /// u = (word + 1) / 2^24. The table log, std::log where it cannot decide.
  [[nodiscard]] Time::Rep cycles(std::uint32_t word) const;
  /// The same through std::log alone: the fallback and the test oracle.
  [[nodiscard]] Time::Rep cycles_std_log(std::uint32_t word) const;

 private:
  struct LogCell;
  static const LogCell* log_table();
  /// The body of cycles(), defined inline where draw() can use it.
  Time::Rep table_cycles(std::uint32_t word) const;
  /// One event: advance `t` by the drawn interval, draw the address.
  aer::Event draw(Time& t);

  Time gen_period_;
  std::uint32_t threshold_;
  double log1m_p_;  ///< ln(1 - p) of the per-cycle firing probability p
  double inv_neg_log1m_p_;  ///< 1 / -ln(1 - p)
  double abs_slack_;  ///< the quotient error bound a ln error bound makes
  std::uint16_t address_range_;
  Lfsr interval_lfsr_;
  Lfsr address_lfsr_;
  Time t_{Time::zero()};
  double gen_hz_;
  const LogCell* log_table_;
};

/// Duty-cycled bursts: `active_rate` Poisson spikes for `active_len`, then
/// silence for `idle_len`, repeating. Models word-like activity.
class BurstSource final : public SpikeSource {
 public:
  BurstSource(double active_rate_hz, Time active_len, Time idle_len,
              std::uint16_t address_range, std::uint64_t seed);

  std::optional<aer::Event> next() override;

 private:
  double mean_interval_sec_;
  Time active_len_;
  Time idle_len_;
  std::uint16_t address_range_;
  Xoshiro256StarStar rng_;
  Time t_{Time::zero()};
  Time burst_start_{Time::zero()};
};

/// Replays a pre-recorded stream.
class TraceSource final : public SpikeSource {
 public:
  explicit TraceSource(aer::EventStream events);

  std::optional<aer::Event> next() override;

 private:
  aer::EventStream events_;
  std::size_t pos_{0};
};

/// Time-ordered merge of several sources (e.g. two cochlea ears).
class MergeSource final : public SpikeSource {
 public:
  explicit MergeSource(std::vector<std::unique_ptr<SpikeSource>> sources);

  std::optional<aer::Event> next() override;

 private:
  std::vector<std::unique_ptr<SpikeSource>> sources_;
  std::vector<std::optional<aer::Event>> heads_;
};

/// Materialise the first `n` events of a source.
aer::EventStream take(SpikeSource& source, std::size_t n);

/// Materialise all events strictly before `end`.
aer::EventStream take_until(SpikeSource& source, Time end);

}  // namespace aetr::gen
