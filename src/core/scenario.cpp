#include "core/scenario.hpp"

#include <algorithm>
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

/// Events pulled from a source per feed_all() call.
constexpr std::size_t kPullChunk = 4096;

/// Both source entry points: pull the stimulus through one reused chunk
/// buffer, exactly as gen::take would draw it (n_events calls to next(),
/// stopping at the first exhausted one), then run it to completion.
RunResult run_from_source(const ScenarioConfig& scenario,
                          gen::SpikeSource& source, std::size_t n_events,
                          bool keep_history) {
  Session session{scenario};
  session.set_keep_history(keep_history);
  aer::EventStream chunk;
  chunk.reserve(std::min(n_events, kPullChunk));
  for (std::size_t left = n_events; left > 0;) {
    const std::size_t want = std::min(left, kPullChunk);
    chunk.clear();
    while (chunk.size() < want) {
      const auto ev = source.next();
      if (!ev) break;
      chunk.push_back(*ev);
    }
    session.feed_all(chunk);
    if (chunk.size() < want) break;
    left -= want;
  }
  return session.finish();
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
  if (cooldown < Time::zero()) {
    throw std::invalid_argument("ScenarioConfig: cooldown must be >= 0");
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
  // Thin wrapper over the incremental API (core/session.hpp): buffer the
  // whole stream, then run it to completion.
  Session session{scenario};
  session.feed_all(events);
  return session.finish();
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
