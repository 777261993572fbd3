#include "core/config_io.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/key_schema.hpp"

namespace aetr::core {
namespace {

using keyio::kPsPerMs;
using keyio::kPsPerNs;
using keyio::kPsPerUs;

KeySchema<InterfaceConfig> make_interface_schema() {
  KeySchema<InterfaceConfig> s{"config"};
  s.comment("aetr interface configuration");
  s.frequency_mhz("clock.ring_mhz",
                  [](auto& c) -> auto& { return c.clock.ring_frequency; });
  s.integer("clock.ref_divider_stages",
            [](auto& c) -> auto& { return c.clock.ref_divider_stages; });
  s.integer("clock.sampling_divider_stages",
            [](auto& c) -> auto& { return c.clock.sampling_divider_stages; });
  s.integer(
      "clock.theta_div", [](auto& c) -> auto& { return c.clock.theta_div; },
      1, 4096);
  s.integer(
      "clock.n_div", [](auto& c) -> auto& { return c.clock.n_div; }, 0, 30);
  s.flag("clock.divide_enabled",
         [](auto& c) -> auto& { return c.clock.divide_enabled; });
  s.flag("clock.shutdown_enabled",
         [](auto& c) -> auto& { return c.clock.shutdown_enabled; });
  s.time(
      "clock.wake_latency_ns",
      [](auto& c) -> auto& { return c.clock.wake_latency; }, kPsPerNs);
  s.integer("frontend.sync_stages",
            [](auto& c) -> auto& { return c.front_end.sync_stages; });
  s.real("frontend.metastability_prob",
         [](auto& c) -> auto& { return c.front_end.metastability_prob; });
  s.flag("frontend.keep_records",
         [](auto& c) -> auto& { return c.front_end.keep_records; });
  s.integer("fifo.capacity_words",
            [](auto& c) -> auto& { return c.fifo.capacity_words; });
  s.integer("fifo.batch_threshold",
            [](auto& c) -> auto& { return c.fifo.batch_threshold; });
  s.choice("fifo.overflow_policy",
           [](auto& c) -> auto& { return c.fifo.overflow_policy; },
           {{"drop_newest", buffer::OverflowPolicy::kDropNewest},
            {"drop_oldest", buffer::OverflowPolicy::kDropOldest}});
  s.frequency_mhz("i2s.sck_mhz", [](auto& c) -> auto& { return c.i2s.sck; });
  s.integer("i2s.word_bits", [](auto& c) -> auto& { return c.i2s.word_bits; });
  s.flag("i2s.drain_until_empty",
         [](auto& c) -> auto& { return c.i2s.drain_until_empty; });
  s.time(
      "drain_timeout_us", [](auto& c) -> auto& { return c.drain_timeout; },
      kPsPerUs);
  s.scaled(
      "power.static_uw",
      [](auto& c) -> auto& { return c.calibration.static_w; }, 1e6);
  s.scaled(
      "power.osc_domain_mw",
      [](auto& c) -> auto& { return c.calibration.osc_domain_w; }, 1e3);
  return s;
}

KeySchema<ScenarioConfig> make_scenario_schema() {
  KeySchema<ScenarioConfig> s{"config"};
  s.comment("aetr scenario configuration");
  // Every interface key applies to scenario.interface, so an
  // InterfaceConfig file is a valid scenario file.
  s.extend(make_interface_schema(),
           [](auto& c) -> auto& { return c.interface; });
  // Sensor-side wire timing.
  s.time(
      "sender.addr_setup_ns",
      [](auto& c) -> auto& { return c.sender.addr_setup; }, kPsPerNs);
  s.time(
      "sender.req_release_ns",
      [](auto& c) -> auto& { return c.sender.req_release; }, kPsPerNs);
  s.time(
      "sender.min_gap_ns", [](auto& c) -> auto& { return c.sender.min_gap; },
      kPsPerNs);
  // Session lifecycle.
  s.time(
      "session.cooldown_us", [](auto& c) -> auto& { return c.cooldown; },
      kPsPerUs);
  s.flag("session.strict_protocol",
         [](auto& c) -> auto& { return c.strict_protocol; });
  s.flag("session.final_flush", [](auto& c) -> auto& { return c.final_flush; });
  s.flag("session.attach_mcu", [](auto& c) -> auto& { return c.attach_mcu; });
  s.flag("session.energy_ledger",
         [](auto& c) -> auto& { return c.energy_ledger; });
  s.integer(
      "session.max_buffered_events",
      [](auto& c) -> auto& { return c.session.max_buffered_events; }, 1);
  // Fault plan.
  s.integer("fault.seed", [](auto& c) -> auto& { return c.faults.seed; });
  s.real("fault.aer.drop_req_prob",
         [](auto& c) -> auto& { return c.faults.aer.drop_req_prob; });
  s.real("fault.aer.stuck_ack_prob",
         [](auto& c) -> auto& { return c.faults.aer.stuck_ack_prob; });
  s.real("fault.aer.addr_bit_flip_prob",
         [](auto& c) -> auto& { return c.faults.aer.addr_bit_flip_prob; });
  s.real("fault.aer.runt_req_prob",
         [](auto& c) -> auto& { return c.faults.aer.runt_req_prob; });
  s.time(
      "fault.aer.runt_width_ns",
      [](auto& c) -> auto& { return c.faults.aer.runt_width; }, kPsPerNs);
  s.real("fault.clock.period_jitter_rel",
         [](auto& c) -> auto& { return c.faults.clock.period_jitter_rel; });
  s.real("fault.clock.wake_jitter_rel",
         [](auto& c) -> auto& { return c.faults.clock.wake_jitter_rel; });
  s.real("fault.fifo.cell_bit_flip_prob",
         [](auto& c) -> auto& { return c.faults.fifo.cell_bit_flip_prob; });
  s.real("fault.spi.word_bit_flip_prob",
         [](auto& c) -> auto& { return c.faults.spi.word_bit_flip_prob; });
  s.real("fault.i2s.bit_error_rate",
         [](auto& c) -> auto& { return c.faults.i2s.bit_error_rate; });
  s.flag("fault.recovery.watchdog",
         [](auto& c) -> auto& { return c.faults.recovery.watchdog; });
  s.time(
      "fault.recovery.watchdog_timeout_us",
      [](auto& c) -> auto& { return c.faults.recovery.watchdog_timeout; },
      kPsPerUs);
  s.flag("fault.recovery.fifo_parity",
         [](auto& c) -> auto& { return c.faults.recovery.fifo_parity; });
  s.flag("fault.recovery.crc_frames",
         [](auto& c) -> auto& { return c.faults.recovery.crc_frames; });
  // Telemetry.
  s.flag("telemetry.trace", [](auto& c) -> auto& { return c.telemetry.trace; });
  s.flag("telemetry.metrics",
         [](auto& c) -> auto& { return c.telemetry.metrics; });
  s.time(
      "telemetry.metrics_window_ms",
      [](auto& c) -> auto& { return c.telemetry.metrics_window; }, kPsPerMs);
  s.text("telemetry.trace_json_path",
         [](auto& c) -> auto& { return c.telemetry.trace_json_path; });
  s.text("telemetry.trace_csv_path",
         [](auto& c) -> auto& { return c.telemetry.trace_csv_path; });
  s.text("telemetry.metrics_csv_path",
         [](auto& c) -> auto& { return c.telemetry.metrics_csv_path; });
  return s;
}

}  // namespace

const KeySchema<ScenarioConfig>& scenario_schema() {
  static const KeySchema<ScenarioConfig> schema = make_scenario_schema();
  return schema;
}

std::vector<std::string> scenario_keys() { return scenario_schema().keys(); }

std::string suggest_scenario_key(const std::string& key) {
  return scenario_schema().suggest(key);
}

void apply_scenario_key(ScenarioConfig& scenario, const std::string& key,
                        const std::string& value) {
  scenario_schema().apply(scenario, key, value);
}

ScenarioConfig load_scenario_text(std::string_view text) {
  ScenarioConfig scenario;
  scenario_schema().load(scenario, text);
  scenario.validate();
  return scenario;
}

ScenarioConfig load_scenario(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>{is}, {}};
  return load_scenario_text(text);
}

ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("config: cannot open " + path);
  return load_scenario(f);
}

std::string dump_scenario(const ScenarioConfig& s) {
  return scenario_schema().dump(s);
}

}  // namespace aetr::core
