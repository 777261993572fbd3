#include "core/config_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/key_schema.hpp"

namespace aetr::core {
namespace {

using keyio::parse_bool;
using keyio::parse_double;
using keyio::parse_uint;

const char* fmt(bool b) { return b ? "true" : "false"; }

KeySchema<InterfaceConfig> make_interface_schema() {
  KeySchema<InterfaceConfig> s{"config"};
  s.comment("aetr interface configuration");
  s.add(
      "clock.ring_mhz",
      [](InterfaceConfig& c, const std::string& v) {
        c.clock.ring_frequency =
            Frequency::mhz(parse_double(v, "clock.ring_mhz"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.clock.ring_frequency.to_mhz();
      });
  s.add(
      "clock.ref_divider_stages",
      [](InterfaceConfig& c, const std::string& v) {
        c.clock.ref_divider_stages =
            static_cast<unsigned>(parse_uint(v, "clock.ref_divider_stages"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.clock.ref_divider_stages;
      });
  s.add(
      "clock.sampling_divider_stages",
      [](InterfaceConfig& c, const std::string& v) {
        c.clock.sampling_divider_stages = static_cast<unsigned>(
            parse_uint(v, "clock.sampling_divider_stages"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.clock.sampling_divider_stages;
      });
  s.add(
      "clock.theta_div",
      [](InterfaceConfig& c, const std::string& v) {
        const auto t = parse_uint(v, "clock.theta_div");
        if (t == 0 || t > 4096) {
          throw std::runtime_error("config: clock.theta_div out of range");
        }
        c.clock.theta_div = static_cast<std::uint32_t>(t);
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.clock.theta_div;
      });
  s.add(
      "clock.n_div",
      [](InterfaceConfig& c, const std::string& v) {
        const auto n = parse_uint(v, "clock.n_div");
        if (n > 30) {
          throw std::runtime_error("config: clock.n_div out of range");
        }
        c.clock.n_div = static_cast<std::uint32_t>(n);
      },
      [](std::ostream& os, const InterfaceConfig& c) { os << c.clock.n_div; });
  s.add(
      "clock.divide_enabled",
      [](InterfaceConfig& c, const std::string& v) {
        c.clock.divide_enabled = parse_bool(v, "clock.divide_enabled");
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << fmt(c.clock.divide_enabled);
      });
  s.add(
      "clock.shutdown_enabled",
      [](InterfaceConfig& c, const std::string& v) {
        c.clock.shutdown_enabled = parse_bool(v, "clock.shutdown_enabled");
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << fmt(c.clock.shutdown_enabled);
      });
  s.add(
      "clock.wake_latency_ns",
      [](InterfaceConfig& c, const std::string& v) {
        c.clock.wake_latency = Time::ns(parse_double(v, "clock.wake_latency_ns"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.clock.wake_latency.to_ns();
      });
  s.add(
      "frontend.sync_stages",
      [](InterfaceConfig& c, const std::string& v) {
        c.front_end.sync_stages =
            static_cast<std::uint32_t>(parse_uint(v, "frontend.sync_stages"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.front_end.sync_stages;
      });
  s.add(
      "frontend.metastability_prob",
      [](InterfaceConfig& c, const std::string& v) {
        c.front_end.metastability_prob =
            parse_double(v, "frontend.metastability_prob");
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.front_end.metastability_prob;
      });
  s.add(
      "frontend.keep_records",
      [](InterfaceConfig& c, const std::string& v) {
        c.front_end.keep_records = parse_bool(v, "frontend.keep_records");
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << fmt(c.front_end.keep_records);
      });
  s.add(
      "fifo.capacity_words",
      [](InterfaceConfig& c, const std::string& v) {
        c.fifo.capacity_words =
            static_cast<std::size_t>(parse_uint(v, "fifo.capacity_words"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.fifo.capacity_words;
      });
  s.add(
      "fifo.batch_threshold",
      [](InterfaceConfig& c, const std::string& v) {
        c.fifo.batch_threshold =
            static_cast<std::size_t>(parse_uint(v, "fifo.batch_threshold"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.fifo.batch_threshold;
      });
  s.add(
      "fifo.overflow_policy",
      [](InterfaceConfig& c, const std::string& v) {
        if (v == "drop_newest") {
          c.fifo.overflow_policy = buffer::OverflowPolicy::kDropNewest;
        } else if (v == "drop_oldest") {
          c.fifo.overflow_policy = buffer::OverflowPolicy::kDropOldest;
        } else {
          throw std::runtime_error(
              "config: fifo.overflow_policy must be drop_newest or "
              "drop_oldest: " +
              v);
        }
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << (c.fifo.overflow_policy == buffer::OverflowPolicy::kDropOldest
                   ? "drop_oldest"
                   : "drop_newest");
      });
  s.add(
      "i2s.sck_mhz",
      [](InterfaceConfig& c, const std::string& v) {
        c.i2s.sck = Frequency::mhz(parse_double(v, "i2s.sck_mhz"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.i2s.sck.to_mhz();
      });
  s.add(
      "i2s.word_bits",
      [](InterfaceConfig& c, const std::string& v) {
        c.i2s.word_bits = static_cast<unsigned>(parse_uint(v, "i2s.word_bits"));
      },
      [](std::ostream& os, const InterfaceConfig& c) { os << c.i2s.word_bits; });
  s.add(
      "i2s.drain_until_empty",
      [](InterfaceConfig& c, const std::string& v) {
        c.i2s.drain_until_empty = parse_bool(v, "i2s.drain_until_empty");
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << fmt(c.i2s.drain_until_empty);
      });
  s.add(
      "drain_timeout_us",
      [](InterfaceConfig& c, const std::string& v) {
        c.drain_timeout = Time::us(parse_double(v, "drain_timeout_us"));
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.drain_timeout.to_us();
      });
  s.add(
      "power.static_uw",
      [](InterfaceConfig& c, const std::string& v) {
        c.calibration.static_w = parse_double(v, "power.static_uw") * 1e-6;
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.calibration.static_w * 1e6;
      });
  s.add(
      "power.osc_domain_mw",
      [](InterfaceConfig& c, const std::string& v) {
        c.calibration.osc_domain_w =
            parse_double(v, "power.osc_domain_mw") * 1e-3;
      },
      [](std::ostream& os, const InterfaceConfig& c) {
        os << c.calibration.osc_domain_w * 1e3;
      });
  return s;
}

KeySchema<ScenarioConfig> make_scenario_schema() {
  KeySchema<ScenarioConfig> s{"config"};
  s.comment("aetr scenario configuration");
  // Every interface key applies to scenario.interface, so an
  // InterfaceConfig file is a valid scenario file.
  s.extend<InterfaceConfig>(
      make_interface_schema(),
      [](ScenarioConfig& c) -> InterfaceConfig& { return c.interface; },
      [](const ScenarioConfig& c) -> const InterfaceConfig& {
        return c.interface;
      });
  // Sensor-side wire timing.
  s.add(
      "sender.addr_setup_ns",
      [](ScenarioConfig& c, const std::string& v) {
        c.sender.addr_setup = Time::ns(parse_double(v, "sender.addr_setup_ns"));
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.sender.addr_setup.to_ns();
      });
  s.add(
      "sender.req_release_ns",
      [](ScenarioConfig& c, const std::string& v) {
        c.sender.req_release =
            Time::ns(parse_double(v, "sender.req_release_ns"));
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.sender.req_release.to_ns();
      });
  s.add(
      "sender.min_gap_ns",
      [](ScenarioConfig& c, const std::string& v) {
        c.sender.min_gap = Time::ns(parse_double(v, "sender.min_gap_ns"));
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.sender.min_gap.to_ns();
      });
  // Session lifecycle.
  s.add(
      "session.cooldown_us",
      [](ScenarioConfig& c, const std::string& v) {
        c.cooldown = Time::us(parse_double(v, "session.cooldown_us"));
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.cooldown.to_us();
      });
  s.add(
      "session.strict_protocol",
      [](ScenarioConfig& c, const std::string& v) {
        c.strict_protocol = parse_bool(v, "session.strict_protocol");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.strict_protocol);
      });
  s.add(
      "session.final_flush",
      [](ScenarioConfig& c, const std::string& v) {
        c.final_flush = parse_bool(v, "session.final_flush");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.final_flush);
      });
  s.add(
      "session.attach_mcu",
      [](ScenarioConfig& c, const std::string& v) {
        c.attach_mcu = parse_bool(v, "session.attach_mcu");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.attach_mcu);
      });
  s.add(
      "session.fast_forward",
      [](ScenarioConfig& c, const std::string& v) {
        c.fast_forward = parse_bool(v, "session.fast_forward");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.fast_forward);
      });
  s.add(
      "session.energy_ledger",
      [](ScenarioConfig& c, const std::string& v) {
        c.energy_ledger = parse_bool(v, "session.energy_ledger");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.energy_ledger);
      });
  s.add(
      "session.max_buffered_events",
      [](ScenarioConfig& c, const std::string& v) {
        const auto n = parse_uint(v, "session.max_buffered_events");
        if (n == 0) {
          throw std::runtime_error(
              "config: session.max_buffered_events must be > 0");
        }
        c.session.max_buffered_events = static_cast<std::size_t>(n);
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.session.max_buffered_events;
      });
  s.add(
      "session.snapshot_interval_sec",
      [](ScenarioConfig& c, const std::string& v) {
        const double sec = parse_double(v, "session.snapshot_interval_sec");
        if (sec < 0.0) {
          throw std::runtime_error(
              "config: session.snapshot_interval_sec must be >= 0");
        }
        c.session.snapshot_interval_sec = sec;
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.session.snapshot_interval_sec;
      });
  // Fault plan.
  s.add(
      "fault.seed",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.seed = parse_uint(v, "fault.seed");
      },
      [](std::ostream& os, const ScenarioConfig& c) { os << c.faults.seed; });
  s.add(
      "fault.aer.drop_req_prob",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.aer.drop_req_prob = parse_double(v, "fault.aer.drop_req_prob");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.aer.drop_req_prob;
      });
  s.add(
      "fault.aer.stuck_ack_prob",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.aer.stuck_ack_prob =
            parse_double(v, "fault.aer.stuck_ack_prob");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.aer.stuck_ack_prob;
      });
  s.add(
      "fault.aer.addr_bit_flip_prob",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.aer.addr_bit_flip_prob =
            parse_double(v, "fault.aer.addr_bit_flip_prob");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.aer.addr_bit_flip_prob;
      });
  s.add(
      "fault.aer.runt_req_prob",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.aer.runt_req_prob =
            parse_double(v, "fault.aer.runt_req_prob");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.aer.runt_req_prob;
      });
  s.add(
      "fault.aer.runt_width_ns",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.aer.runt_width =
            Time::ns(parse_double(v, "fault.aer.runt_width_ns"));
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.aer.runt_width.to_ns();
      });
  s.add(
      "fault.clock.period_jitter_rel",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.clock.period_jitter_rel =
            parse_double(v, "fault.clock.period_jitter_rel");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.clock.period_jitter_rel;
      });
  s.add(
      "fault.clock.wake_jitter_rel",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.clock.wake_jitter_rel =
            parse_double(v, "fault.clock.wake_jitter_rel");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.clock.wake_jitter_rel;
      });
  s.add(
      "fault.fifo.cell_bit_flip_prob",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.fifo.cell_bit_flip_prob =
            parse_double(v, "fault.fifo.cell_bit_flip_prob");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.fifo.cell_bit_flip_prob;
      });
  s.add(
      "fault.spi.word_bit_flip_prob",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.spi.word_bit_flip_prob =
            parse_double(v, "fault.spi.word_bit_flip_prob");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.spi.word_bit_flip_prob;
      });
  s.add(
      "fault.i2s.bit_error_rate",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.i2s.bit_error_rate =
            parse_double(v, "fault.i2s.bit_error_rate");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.i2s.bit_error_rate;
      });
  s.add(
      "fault.recovery.watchdog",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.recovery.watchdog = parse_bool(v, "fault.recovery.watchdog");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.faults.recovery.watchdog);
      });
  s.add(
      "fault.recovery.watchdog_timeout_us",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.recovery.watchdog_timeout =
            Time::us(parse_double(v, "fault.recovery.watchdog_timeout_us"));
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << c.faults.recovery.watchdog_timeout.to_us();
      });
  s.add(
      "fault.recovery.fifo_parity",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.recovery.fifo_parity =
            parse_bool(v, "fault.recovery.fifo_parity");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.faults.recovery.fifo_parity);
      });
  s.add(
      "fault.recovery.crc_frames",
      [](ScenarioConfig& c, const std::string& v) {
        c.faults.recovery.crc_frames =
            parse_bool(v, "fault.recovery.crc_frames");
      },
      [](std::ostream& os, const ScenarioConfig& c) {
        os << fmt(c.faults.recovery.crc_frames);
      });
  // Telemetry.
  s.add("telemetry.trace",
        [](ScenarioConfig& c, const std::string& v) {
          c.telemetry.trace = parse_bool(v, "telemetry.trace");
        },
        [](std::ostream& os, const ScenarioConfig& c) {
          os << fmt(c.telemetry.trace);
        });
  s.add("telemetry.metrics",
        [](ScenarioConfig& c, const std::string& v) {
          c.telemetry.metrics = parse_bool(v, "telemetry.metrics");
        },
        [](std::ostream& os, const ScenarioConfig& c) {
          os << fmt(c.telemetry.metrics);
        });
  s.add("telemetry.metrics_window_ms",
        [](ScenarioConfig& c, const std::string& v) {
          c.telemetry.metrics_window =
              Time::ms(parse_double(v, "telemetry.metrics_window_ms"));
        },
        [](std::ostream& os, const ScenarioConfig& c) {
          os << c.telemetry.metrics_window.to_ms();
        });
  s.add("telemetry.trace_json_path",
        [](ScenarioConfig& c, const std::string& v) {
          c.telemetry.trace_json_path = v;
        },
        [](std::ostream& os, const ScenarioConfig& c) {
          os << c.telemetry.trace_json_path;
        });
  s.add("telemetry.trace_csv_path",
        [](ScenarioConfig& c, const std::string& v) {
          c.telemetry.trace_csv_path = v;
        },
        [](std::ostream& os, const ScenarioConfig& c) {
          os << c.telemetry.trace_csv_path;
        });
  s.add("telemetry.metrics_csv_path",
        [](ScenarioConfig& c, const std::string& v) {
          c.telemetry.metrics_csv_path = v;
        },
        [](std::ostream& os, const ScenarioConfig& c) {
          os << c.telemetry.metrics_csv_path;
        });
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

std::string suggest_key(const std::string& key,
                        const std::vector<std::string>& candidates) {
  return keyio::nearest_key(key, candidates);
}

void apply_scenario_key(ScenarioConfig& scenario, const std::string& key,
                        const std::string& value) {
  scenario_schema().apply(scenario, key, value);
}

ScenarioConfig load_scenario(std::istream& is) {
  ScenarioConfig scenario;
  keyio::parse_stream(is, "config",
                      [&](const std::string& key, const std::string& value,
                          std::size_t line_no) {
                        scenario_schema().apply(scenario, key, value, line_no);
                      });
  scenario.validate();
  return scenario;
}

ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("config: cannot open " + path);
  return load_scenario(f);
}

std::string dump_scenario(const ScenarioConfig& s) {
  std::ostringstream os;
  scenario_schema().dump(os, s);
  return os.str();
}

}  // namespace aetr::core
