#include "core/scenario.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "core/session.hpp"

namespace aetr::core {

namespace {

void check_prob(double p, const char* what) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string{"ScenarioConfig: "} + what +
                                " must be a probability in [0, 1]");
  }
}

/// A time key: it gets added to an event time, so it stays in
/// [0, ScenarioConfig::kMaxTime].
void check_time(Time t, const char* key) {
  if (t < Time::zero() || t > ScenarioConfig::kMaxTime) {
    throw std::invalid_argument(std::string{"ScenarioConfig: "} + key +
                                " must be in [0, Time::max() / 4]");
  }
}

/// The schedule's last level start, tmin * theta_div * (2^(top + 1) - 1)
/// (its awake span when it sleeps), where tmin is the ring period times
/// 2^(divider stages), is at most ScenarioConfig::kMaxTime. theta_div > 0.
bool awake_span_fits(const clockgen::ClockGeneratorConfig& c) {
  const unsigned stages = c.ref_divider_stages + c.sampling_divider_stages;
  const std::uint32_t top = c.divide_enabled ? c.n_div : 0;
  if (stages > 62 || top > 30) return false;
  const std::uint64_t factor =
      std::uint64_t{c.theta_div} * ((std::uint64_t{1} << (top + 1)) - 1);
  const auto limit =
      static_cast<std::uint64_t>(ScenarioConfig::kMaxTime.count_ps());
  return c.ring_frequency.period().count_ps() <=
         static_cast<Time::Rep>((limit / factor) >> stages);
}

/// Events per feed_all() + advance_to() step of a batch run.
constexpr std::size_t kChunk = 4096;

/// The one chunk loop behind every batch entry point. `next_chunk()`
/// returns the next span of at most kChunk events, empty at the end of
/// the stimulus. Each chunk is fed and the timeline run to its last event,
/// so the session buffers about one chunk instead of the whole stream;
/// advance_to() is transparent, so the result is the one-shot run's. A
/// telemetry run feeds everything before the first advance instead: the
/// runner span records the events fed when the timeline starts.
template <typename NextChunk>
RunResult run_chunked(const ScenarioConfig& scenario, bool keep_history,
                      NextChunk next_chunk) {
  Session session{scenario};
  session.set_keep_history(keep_history);
  const bool advance = session.telemetry_session() == nullptr;
  for (std::span<const aer::Event> chunk = next_chunk(); !chunk.empty();
       chunk = next_chunk()) {
    session.feed_all(chunk);
    if (advance) session.advance_to(chunk.back().time);
  }
  return session.finish();
}

/// Both source entry points: pull the stimulus through one reused chunk
/// buffer, one SpikeSource::fill per chunk, exactly as gen::take would
/// draw it (n_events events, fewer when the source runs dry).
RunResult run_from_source(const ScenarioConfig& scenario,
                          gen::SpikeSource& source, std::size_t n_events,
                          bool keep_history) {
  aer::EventStream chunk;
  std::size_t left = n_events;
  return run_chunked(scenario, keep_history, [&] {
    const std::size_t want = std::min(left, kChunk);
    chunk.resize(want);
    chunk.resize(source.fill(chunk));
    left = chunk.size() < want ? 0 : left - want;
    return std::span<const aer::Event>{chunk};
  });
}

}  // namespace

void ScenarioConfig::validate() const {
  // Interface geometry (mirrors the block constructors so a bad scenario
  // fails before anything is built).
  if (interface.fifo.capacity_words == 0) {
    throw std::invalid_argument("ScenarioConfig: fifo capacity must be > 0");
  }
  if (interface.fifo.batch_threshold == 0 ||
      interface.fifo.batch_threshold > interface.fifo.capacity_words) {
    throw std::invalid_argument(
        "ScenarioConfig: fifo batch threshold must be in [1, capacity]");
  }
  if (interface.front_end.sync_stages == 0) {
    throw std::invalid_argument(
        "ScenarioConfig: front-end needs at least one synchroniser stage");
  }
  if (interface.i2s.word_bits == 0 || interface.i2s.word_bits > 32) {
    throw std::invalid_argument(
        "ScenarioConfig: i2s word width must be in [1, 32] bits");
  }
  if (interface.clock.theta_div == 0) {
    throw std::invalid_argument("ScenarioConfig: theta_div must be > 0");
  }
  check_prob(interface.front_end.metastability_prob, "metastability_prob");
  // Every time key, and the awake span, gets added to an event time.
  check_time(interface.clock.wake_latency, "clock.wake_latency_ns");
  check_time(interface.drain_timeout, "drain_timeout_us");
  check_time(sender.addr_setup, "sender.addr_setup_ns");
  check_time(sender.req_release, "sender.req_release_ns");
  check_time(sender.min_gap, "sender.min_gap_ns");
  check_time(cooldown, "session.cooldown_us");
  check_time(faults.aer.runt_width, "fault.aer.runt_width_ns");
  check_time(faults.recovery.watchdog_timeout,
             "fault.recovery.watchdog_timeout_us");
  check_time(telemetry.metrics_window, "telemetry.metrics_window_ms");
  if (!awake_span_fits(interface.clock)) {
    throw std::invalid_argument(
        "ScenarioConfig: the clock's awake span (clock.ring_mhz, "
        "clock.ref_divider_stages, clock.sampling_divider_stages, "
        "clock.theta_div, clock.n_div) must be at most Time::max() / 4");
  }
  // Fault plan.
  check_prob(faults.aer.drop_req_prob, "fault.aer.drop_req_prob");
  check_prob(faults.aer.stuck_ack_prob, "fault.aer.stuck_ack_prob");
  check_prob(faults.aer.addr_bit_flip_prob, "fault.aer.addr_bit_flip_prob");
  check_prob(faults.aer.runt_req_prob, "fault.aer.runt_req_prob");
  check_prob(faults.fifo.cell_bit_flip_prob, "fault.fifo.cell_bit_flip_prob");
  check_prob(faults.spi.word_bit_flip_prob, "fault.spi.word_bit_flip_prob");
  check_prob(faults.i2s.bit_error_rate, "fault.i2s.bit_error_rate");
  if (faults.clock.period_jitter_rel < 0.0 ||
      faults.clock.wake_jitter_rel < 0.0) {
    throw std::invalid_argument(
        "ScenarioConfig: clock jitter sigmas must be >= 0");
  }
  if (faults.aer.runt_req_prob > 0.0 && faults.aer.runt_width <= Time::zero()) {
    throw std::invalid_argument(
        "ScenarioConfig: runt_width must be > 0 when runts are injected");
  }
  if (faults.recovery.watchdog &&
      faults.recovery.watchdog_timeout <= Time::zero()) {
    throw std::invalid_argument(
        "ScenarioConfig: watchdog_timeout must be > 0");
  }
}

RunResult run_scenario(const ScenarioConfig& scenario,
                       const aer::EventStream& events) {
  const std::span<const aer::Event> all{events};
  std::size_t at = 0;
  return run_chunked(scenario, /*keep_history=*/true, [&] {
    const std::span<const aer::Event> chunk =
        all.subspan(at, std::min(all.size() - at, kChunk));
    at += chunk.size();
    return chunk;
  });
}

RunResult run_scenario(const ScenarioConfig& scenario, gen::SpikeSource& source,
                       std::size_t n_events) {
  return run_from_source(scenario, source, n_events, /*keep_history=*/true);
}

RunResult run_scenario_totals(const ScenarioConfig& scenario,
                              gen::SpikeSource& source, std::size_t n_events) {
  return run_from_source(scenario, source, n_events, /*keep_history=*/false);
}

}  // namespace aetr::core
