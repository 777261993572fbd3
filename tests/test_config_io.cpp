// Tests for the textual scenario format: the interface keys first, then
// the full ScenarioConfig round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config_io.hpp"

namespace aetr::core {
namespace {

/// Parse `text` as a scenario file and return its interface part.
InterfaceConfig load_interface(const std::string& text) {
  std::stringstream ss{text};
  return load_scenario(ss).interface;
}

TEST(ConfigIo, DefaultsWhenEmpty) {
  const auto cfg = load_interface("");
  EXPECT_EQ(cfg.clock.theta_div, 64u);
  EXPECT_EQ(cfg.clock.n_div, 8u);
  EXPECT_EQ(cfg.fifo.capacity_words, 2300u);
}

TEST(ConfigIo, ParsesKeysAndComments) {
  const auto cfg = load_interface(
      "# comment\n"
      "\n"
      "clock.theta_div = 16\n"
      "  clock.n_div=5  \n"
      "fifo.batch_threshold = 128\n"
      "clock.divide_enabled = false\n"
      "i2s.sck_mhz = 12.288\n");
  EXPECT_EQ(cfg.clock.theta_div, 16u);
  EXPECT_EQ(cfg.clock.n_div, 5u);
  EXPECT_EQ(cfg.fifo.batch_threshold, 128u);
  EXPECT_FALSE(cfg.clock.divide_enabled);
  EXPECT_NEAR(cfg.i2s.sck.to_mhz(), 12.288, 1e-9);
}

TEST(ConfigIo, UnknownKeyThrows) {
  EXPECT_THROW(load_interface("clock.theta = 16\n"), std::runtime_error);
}

TEST(ConfigIo, MissingEqualsThrows) {
  EXPECT_THROW(load_interface("clock.theta_div 16\n"), std::runtime_error);
}

TEST(ConfigIo, BadNumberThrows) {
  EXPECT_THROW(load_interface("clock.theta_div = banana\n"),
               std::runtime_error);
}

TEST(ConfigIo, TrailingJunkThrows) {
  EXPECT_THROW(load_interface("clock.ring_mhz = 120 MHz\n"),
               std::runtime_error);
}

TEST(ConfigIo, RangeValidation) {
  EXPECT_THROW(load_interface("clock.theta_div = 0\n"), std::runtime_error);
  EXPECT_THROW(load_interface("clock.n_div = 31\n"), std::runtime_error);
  EXPECT_THROW(load_interface("clock.theta_div = -4\n"), std::runtime_error);
}

TEST(ConfigIo, BooleanSpellings) {
  for (const char* spelling : {"true", "1", "on"}) {
    EXPECT_TRUE(load_interface(std::string("clock.shutdown_enabled = ") +
                               spelling)
                    .clock.shutdown_enabled);
  }
  for (const char* spelling : {"false", "0", "off"}) {
    EXPECT_FALSE(load_interface(std::string("clock.shutdown_enabled = ") +
                                spelling)
                     .clock.shutdown_enabled);
  }
  EXPECT_THROW(load_interface("clock.shutdown_enabled = maybe"),
               std::runtime_error);
}

TEST(ConfigIo, DumpLoadRoundTrip) {
  ScenarioConfig scenario;
  InterfaceConfig& cfg = scenario.interface;
  cfg.clock.theta_div = 32;
  cfg.clock.n_div = 6;
  cfg.clock.divide_enabled = false;
  cfg.front_end.metastability_prob = 0.001;
  cfg.fifo.batch_threshold = 777;
  cfg.i2s.sck = Frequency::mhz(12.288);
  cfg.calibration.static_w = 60e-6;

  const auto back = load_interface(dump_scenario(scenario));
  EXPECT_EQ(back.clock.theta_div, 32u);
  EXPECT_EQ(back.clock.n_div, 6u);
  EXPECT_FALSE(back.clock.divide_enabled);
  EXPECT_NEAR(back.front_end.metastability_prob, 0.001, 1e-12);
  EXPECT_EQ(back.fifo.batch_threshold, 777u);
  EXPECT_NEAR(back.i2s.sck.to_mhz(), 12.288, 1e-6);
  EXPECT_NEAR(back.calibration.static_w, 60e-6, 1e-12);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(load_scenario_file("/nonexistent/aetr.conf"),
               std::runtime_error);
}

TEST(ConfigIo, DrainTimeoutKey) {
  EXPECT_EQ(load_interface("drain_timeout_us = 5000\n").drain_timeout,
            Time::ms(5.0));
  ScenarioConfig scenario;
  scenario.interface.drain_timeout = Time::us(250.0);
  EXPECT_EQ(load_interface(dump_scenario(scenario)).drain_timeout,
            Time::us(250.0));
}

TEST(ConfigIo, PowerCalibrationKeys) {
  const auto cfg = load_interface(
      "power.static_uw = 75\n"
      "power.osc_domain_mw = 1.5\n");
  EXPECT_NEAR(cfg.calibration.static_w, 75e-6, 1e-12);
  EXPECT_NEAR(cfg.calibration.osc_domain_w, 1.5e-3, 1e-12);
}

// --- ScenarioConfig serialization -------------------------------------------

TEST(ScenarioIo, DefaultsRoundTripByteIdentical) {
  const ScenarioConfig scenario;
  const std::string first = dump_scenario(scenario);
  std::stringstream ss{first};
  const auto back = load_scenario(ss);
  EXPECT_EQ(dump_scenario(back), first);
}

TEST(ScenarioIo, EveryFaultKindRoundTrips) {
  ScenarioConfig scenario;
  scenario.interface.clock.theta_div = 32;
  scenario.interface.fifo.batch_threshold = 96;
  scenario.interface.fifo.overflow_policy = buffer::OverflowPolicy::kDropOldest;
  scenario.sender.addr_setup = Time::ns(7.0);
  scenario.sender.req_release = Time::ns(9.0);
  scenario.sender.min_gap = Time::ns(11.0);
  scenario.cooldown = Time::us(450.0);
  scenario.strict_protocol = true;
  scenario.final_flush = false;
  scenario.attach_mcu = false;
  scenario.faults.seed = 20260807;
  scenario.faults.aer.drop_req_prob = 0.01;
  scenario.faults.aer.stuck_ack_prob = 0.02;
  scenario.faults.aer.addr_bit_flip_prob = 0.03;
  scenario.faults.aer.runt_req_prob = 0.04;
  scenario.faults.aer.runt_width = Time::ns(155.0);
  scenario.faults.clock.period_jitter_rel = 0.05;
  scenario.faults.clock.wake_jitter_rel = 0.06;
  scenario.faults.fifo.cell_bit_flip_prob = 0.07;
  scenario.faults.spi.word_bit_flip_prob = 0.08;
  scenario.faults.i2s.bit_error_rate = 0.005;
  scenario.faults.recovery.watchdog = false;
  scenario.faults.recovery.watchdog_timeout = Time::us(25.0);
  scenario.faults.recovery.fifo_parity = false;
  scenario.faults.recovery.crc_frames = false;
  telemetry::SessionOptions tel;
  tel.trace = true;
  tel.metrics = true;
  tel.metrics_window = Time::ms(3.0);
  tel.trace_json_path = "/tmp/t.json";
  scenario.telemetry = tel;

  const std::string first = dump_scenario(scenario);
  std::stringstream ss{first};
  const auto back = load_scenario(ss);
  EXPECT_EQ(dump_scenario(back), first);  // dump -> load -> dump, byte-exact

  EXPECT_EQ(back.interface.clock.theta_div, 32u);
  EXPECT_EQ(back.interface.fifo.overflow_policy,
            buffer::OverflowPolicy::kDropOldest);
  EXPECT_EQ(back.sender.min_gap, Time::ns(11.0));
  EXPECT_EQ(back.cooldown, Time::us(450.0));
  EXPECT_TRUE(back.strict_protocol);
  EXPECT_FALSE(back.final_flush);
  EXPECT_FALSE(back.attach_mcu);
  EXPECT_EQ(back.faults.seed, 20260807u);
  EXPECT_NEAR(back.faults.aer.drop_req_prob, 0.01, 1e-12);
  EXPECT_NEAR(back.faults.aer.addr_bit_flip_prob, 0.03, 1e-12);
  EXPECT_EQ(back.faults.aer.runt_width, Time::ns(155.0));
  EXPECT_NEAR(back.faults.clock.period_jitter_rel, 0.05, 1e-12);
  EXPECT_NEAR(back.faults.fifo.cell_bit_flip_prob, 0.07, 1e-12);
  EXPECT_NEAR(back.faults.spi.word_bit_flip_prob, 0.08, 1e-12);
  EXPECT_NEAR(back.faults.i2s.bit_error_rate, 0.005, 1e-12);
  EXPECT_FALSE(back.faults.recovery.watchdog);
  EXPECT_EQ(back.faults.recovery.watchdog_timeout, Time::us(25.0));
  EXPECT_FALSE(back.faults.recovery.fifo_parity);
  EXPECT_FALSE(back.faults.recovery.crc_frames);
  EXPECT_TRUE(back.telemetry.trace);
  EXPECT_EQ(back.telemetry.metrics_window, Time::ms(3.0));
  EXPECT_EQ(back.telemetry.trace_json_path, "/tmp/t.json");
}

TEST(ScenarioIo, InterfaceFileIsValidScenarioFile) {
  // A file holding only interface keys loads as a scenario whose other
  // parts keep their defaults.
  std::stringstream ss{
      "# aetr interface configuration\n"
      "clock.theta_div = 16\n"
      "fifo.overflow_policy = drop_oldest\n"
      "power.static_uw = 50\n"};
  const auto scenario = load_scenario(ss);
  EXPECT_EQ(scenario.interface.clock.theta_div, 16u);
  EXPECT_EQ(scenario.interface.fifo.overflow_policy,
            buffer::OverflowPolicy::kDropOldest);
  EXPECT_FALSE(scenario.faults.any());
  EXPECT_FALSE(scenario.telemetry.any());
  ScenarioConfig expected;
  expected.interface = scenario.interface;
  EXPECT_EQ(dump_scenario(scenario), dump_scenario(expected));
}

TEST(ScenarioIo, UnknownKeyThrows) {
  std::stringstream ss{"fault.aer.drop_req = 0.5\n"};
  EXPECT_THROW(load_scenario(ss), std::runtime_error);
}

TEST(ScenarioIo, OutOfRangeProbabilityThrowsAtLoad) {
  std::stringstream ss{"fault.fifo.cell_bit_flip_prob = 1.25\n"};
  EXPECT_THROW(load_scenario(ss), std::invalid_argument);
}

TEST(ScenarioIo, UnknownKeySuggestsNearestKey) {
  // A one-letter typo must fail with a did-you-mean hint naming the real
  // key, so a misspelt scenario file is a one-line fix, not a hunt.
  std::stringstream ss{"fifo.overlow_policy = drop_oldest\n"};
  try {
    (void)load_scenario(ss);
    FAIL() << "expected unknown-key rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fifo.overlow_policy"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'fifo.overflow_policy'"),
              std::string::npos)
        << msg;
  }
}

TEST(ScenarioIo, RemovedRunAliasesAreRejected) {
  // The pre-Session run.* spellings were deprecated aliases for exactly one
  // release; they are gone now and must fail like any other unknown key.
  for (const char* line : {"run.cooldown_us = 5\n", "run.fast_forward = on\n",
                           "run.strict_protocol = on\n",
                           "run.final_flush = off\n", "run.attach_mcu = on\n",
                           "run.energy_ledger = on\n"}) {
    std::stringstream ss{line};
    try {
      (void)load_scenario(ss);
      FAIL() << "expected rejection of removed alias: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("unknown key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioIo, SuggestScenarioKeyDistanceCutoff) {
  EXPECT_EQ(suggest_scenario_key("clock.n_dib"), "clock.n_div");
  EXPECT_EQ(suggest_scenario_key("colck.theta_div"), "clock.theta_div");
  // Nothing plausibly close: no suggestion rather than a misleading one.
  EXPECT_EQ(suggest_scenario_key("zzzzzzzzzzzz"), "");
}

TEST(ScenarioIo, ApplyScenarioKeySetsAndValidates) {
  ScenarioConfig scenario;
  apply_scenario_key(scenario, "clock.n_div", "5");
  apply_scenario_key(scenario, "fifo.batch_threshold", "256");
  EXPECT_EQ(scenario.interface.clock.n_div, 5u);
  EXPECT_EQ(scenario.interface.fifo.batch_threshold, 256u);
  EXPECT_THROW(apply_scenario_key(scenario, "clock.n_dib", "5"),
               std::runtime_error);
  EXPECT_THROW(apply_scenario_key(scenario, "clock.n_div", "bogus"),
               std::runtime_error);
}

TEST(ScenarioIo, ScenarioKeysCoverTheDumpFormat) {
  // Every key dump_scenario() emits must be in scenario_keys(): the list
  // is what the optimizer and the did-you-mean hint search.
  const auto keys = scenario_keys();
  EXPECT_FALSE(keys.empty());
  std::istringstream dump{dump_scenario(ScenarioConfig{})};
  std::string line;
  while (std::getline(dump, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos || line[0] == '#') continue;
    auto key = line.substr(0, eq);
    while (!key.empty() && key.back() == ' ') key.pop_back();
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
        << "dumped key missing from scenario_keys(): " << key;
  }
}

/// Every (key, default value) line dump_scenario() emits for the defaults.
std::vector<std::pair<std::string, std::string>> default_assignments() {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream dump{dump_scenario(ScenarioConfig{})};
  std::string line;
  while (std::getline(dump, line)) {
    const auto eq = line.find(" = ");
    if (eq == std::string::npos || line[0] == '#') continue;
    out.emplace_back(line.substr(0, eq), line.substr(eq + 3));
  }
  return out;
}

bool is_number(const std::string& v) {
  if (v.empty()) return false;
  std::size_t pos = 0;
  try {
    (void)std::stod(v, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == v.size();
}

// Hostile numbers in config text are refused by name, never cast: NaN
// and infinities on every numeric key, 1e30 on every integer key (its
// cast to uint64 would be undefined). An integer key is one whose
// default is a whole number that no longer loads with a half added.
TEST(ScenarioIo, NonFiniteAndHugeNumbersThrow) {
  const std::string defaults = dump_scenario(ScenarioConfig{});
  std::vector<std::string> integer_keys;
  std::size_t numeric = 0;
  for (const auto& [key, value] : default_assignments()) {
    if (!is_number(value)) continue;
    ++numeric;
    // Each refusal names the key and leaves the config untouched.
    const auto expect_refused = [&, &key = key](const std::string& bad) {
      ScenarioConfig scenario;
      try {
        apply_scenario_key(scenario, key, bad);
        ADD_FAILURE() << key << " = " << bad << " was accepted";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find(key), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(dump_scenario(scenario), defaults) << key << " = " << bad;
    };
    for (const char* bad : {"nan", "inf", "-inf"}) expect_refused(bad);
    if (value.find_first_not_of("0123456789") != std::string::npos) continue;
    ScenarioConfig probe;
    try {
      apply_scenario_key(probe, key, value + ".5");
    } catch (const std::runtime_error&) {
      integer_keys.push_back(key);
      expect_refused("1e30");
    }
  }
  EXPECT_GE(numeric, 30u);
  for (const char* key :
       {"clock.theta_div", "clock.n_div", "fifo.capacity_words",
        "session.max_buffered_events", "fault.seed"}) {
    EXPECT_NE(std::find(integer_keys.begin(), integer_keys.end(), key),
              integer_keys.end())
        << key << " not classified as an integer key";
  }
}

}  // namespace
}  // namespace aetr::core
