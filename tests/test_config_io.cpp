// Tests for the textual scenario format: the interface keys first, then
// the full ScenarioConfig round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/config_io.hpp"
#include "core/key_schema.hpp"
#include "fleet/fleet_io.hpp"

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

TEST(ScenarioIo, RemovedSessionKeysAreRejectedByName) {
  // The engine follows fast_path_eligible() alone and the snapshot cadence
  // is the harness's --snapshot-interval-sec, so neither key exists any
  // more, under any value, and no alias keeps either loading.
  const std::pair<const char*, const char*> lines[] = {
      {"session.fast_forward", "session.fast_forward = false\n"},
      {"session.fast_forward", "session.fast_forward = true\n"},
      {"session.snapshot_interval_sec", "session.snapshot_interval_sec = 0\n"},
      {"session.snapshot_interval_sec",
       "session.snapshot_interval_sec = 0.02\n"}};
  for (const auto& [key, line] : lines) {
    try {
      (void)load_scenario_text(line);
      FAIL() << "expected rejection of removed key: " << line;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string{"unknown key at line 1: "} + key),
                std::string::npos)
          << msg;
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

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Hostile numbers in config text are refused by name, never cast: NaN
// and infinities on every numeric key, 1e30 on every integer key (its
// cast to uint64 would be undefined). An integer key is one whose
// default is a whole number that no longer loads with a half added.
// Time keys (_ns, _us, _ms) refuse negatives and 1e300 (its picosecond
// count overflows int64), frequency keys (_mhz) anything not above zero
// or whose period overflows it, and 32-bit keys 2^32 (it would narrow).
TEST(ScenarioIo, NonFiniteAndHugeNumbersThrow) {
  const std::string defaults = dump_scenario(ScenarioConfig{});
  const std::vector<std::string> keys_32bit = {
      "clock.ref_divider_stages", "clock.sampling_divider_stages",
      "clock.theta_div",          "clock.n_div",
      "frontend.sync_stages",     "i2s.word_bits"};
  std::vector<std::string> integer_keys;
  std::size_t numeric = 0;
  std::size_t time_keys = 0;
  std::size_t frequency_keys = 0;
  std::size_t narrow_keys = 0;
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
    if (ends_with(key, "_ns") || ends_with(key, "_us") ||
        ends_with(key, "_ms")) {
      ++time_keys;
      for (const char* bad : {"-5", "-1e-3", "1e300"}) expect_refused(bad);
    }
    if (ends_with(key, "_mhz")) {
      ++frequency_keys;
      // 1e-14 MHz: a period of 1e8 s, past Time's int64 picoseconds.
      for (const char* bad : {"-1", "0", "1e-14", "1e-320"}) {
        expect_refused(bad);
      }
    }
    if (std::find(keys_32bit.begin(), keys_32bit.end(), key) !=
        keys_32bit.end()) {
      ++narrow_keys;
      for (const char* bad : {"4294967296", "1e19"}) expect_refused(bad);
    }
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
  EXPECT_EQ(time_keys, 9u);
  EXPECT_EQ(frequency_keys, 2u);
  EXPECT_EQ(narrow_keys, keys_32bit.size());
  for (const char* key :
       {"clock.theta_div", "clock.n_div", "fifo.capacity_words",
        "session.max_buffered_events", "fault.seed"}) {
    EXPECT_NE(std::find(integer_keys.begin(), integer_keys.end(), key),
              integer_keys.end())
        << key << " not classified as an integer key";
  }
}

// Every time key is added to an event time (up to aer::kLatestEventTime,
// Time::max() / 2), so validate() bounds it at Time::max() / 4, about
// 2.3e18 ps, and so does the clock's awake span. Config text and a
// programmatic config meet the same check, which names the key.
TEST(ScenarioIo, TimesThatOverflowAnEventTimeAreRefusedByKey) {
  const auto expect_refused = [](const std::string& text,
                                 const std::string& key) {
    try {
      (void)load_scenario_text(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find(key), std::string::npos)
          << e.what();
    }
  };
  expect_refused("session.cooldown_us = 9000000000000\n",
                 "session.cooldown_us");
  std::size_t time_keys = 0;
  for (const auto& [key, value] : default_assignments()) {
    const double ps_per_unit = ends_with(key, "_ns")   ? 1e3
                               : ends_with(key, "_us") ? 1e6
                               : ends_with(key, "_ms") ? 1e9
                                                       : 0.0;
    if (ps_per_unit == 0.0) continue;
    ++time_keys;
    std::ostringstream over;
    over << key << " = " << 3e18 / ps_per_unit << "\n";
    expect_refused(over.str(), key);
    std::ostringstream under;
    under << key << " = " << 2e18 / ps_per_unit << "\n";
    EXPECT_NO_THROW((void)load_scenario_text(under.str())) << under.str();
  }
  EXPECT_EQ(time_keys, 9u);
  // 100 ns ring period * 2^3 * 4096 * (2^31 - 1) is about 7e18 ps.
  expect_refused("clock.ring_mhz = 10\nclock.theta_div = 4096\n"
                 "clock.n_div = 30\n",
                 "clock.n_div");
  ScenarioConfig programmatic;
  programmatic.cooldown = Time::us(9e12);
  EXPECT_THROW(programmatic.validate(), std::invalid_argument);
  programmatic.cooldown = ScenarioConfig::kMaxTime;
  EXPECT_NO_THROW(programmatic.validate());
}

// --- exact round trip -------------------------------------------------------

/// One scenario key's text, after loading `text` as its value.
std::string redumped(const std::string& key, const std::string& text) {
  ScenarioConfig scenario;
  apply_scenario_key(scenario, key, text);
  const std::string dump = dump_scenario(scenario);
  const auto from = dump.find("\n" + key + " = ") + key.size() + 4;
  return dump.substr(from, dump.find('\n', from) - from);
}

TEST(ScenarioIo, DumpKeepsEveryDigitOfTheValue) {
  // Past the sixth significant digit: each used to dump at six digits.
  EXPECT_EQ(redumped("clock.ring_mhz", "118.7654321"), "118.7654321");
  EXPECT_EQ(redumped("frontend.metastability_prob", "0.123456789"),
            "0.123456789");
  EXPECT_EQ(redumped("power.static_uw", "47.123456789"), "47.123456789");
  // Scaled keys divide by the exact power of ten, so the 50 uW default
  // loads back to the very double it started from.
  ScenarioConfig scenario;
  apply_scenario_key(scenario, "power.static_uw", "50");
  EXPECT_EQ(scenario.interface.calibration.static_w, 50e-6);
  EXPECT_EQ(scenario.interface.calibration.static_w,
            ScenarioConfig{}.interface.calibration.static_w);
  // A 64-bit seed keeps every digit (a double would round it).
  EXPECT_EQ(redumped("fault.seed", "18446744073709551615"),
            "18446744073709551615");
  EXPECT_EQ(redumped("fault.seed", "9007199254740993"), "9007199254740993");
}

/// A numeric key of Config, seen directly through its field: an oracle
/// kept apart from the schema's own accessors, so a binding wired to the
/// wrong field fails here.
template <typename Config>
struct NumericField {
  std::string key;
  std::function<void(Config&, std::mt19937_64&)> randomize;
  std::function<bool(const Config&, const Config&)> same;
};

/// Any finite double, uniform over bit patterns (every exponent).
double random_finite(std::mt19937_64& rng) {
  for (;;) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) return d;
  }
}

/// A non-negative double below `limit`, log-spread over its magnitudes.
double random_below(std::mt19937_64& rng, double limit) {
  for (;;) {
    const double d = std::abs(random_finite(rng));
    if (d < limit) return d;
  }
}

/// `draw(field, rng)` sets the field through `get` to a random value.
template <typename Config, typename Get, typename Draw>
NumericField<Config> field(std::string key, Get get, Draw draw) {
  return {std::move(key),
          [get, draw](Config& c, std::mt19937_64& rng) { draw(get(c), rng); },
          [get](const Config& a, const Config& b) { return get(a) == get(b); }};
}

template <typename Config, typename Get>
NumericField<Config> real(std::string key, Get get, bool non_negative = false) {
  return field<Config>(std::move(key), get,
                       [non_negative](double& v, std::mt19937_64& rng) {
                         v = random_finite(rng);
                         if (non_negative) v = std::abs(v);
                       });
}

/// Every picosecond count below 2^52 (where a double still holds each
/// one with room to round), and above it whatever `load` produces.
template <typename Config, typename Get>
NumericField<Config> time(std::string key, Get get, Time (*load)(double),
                          double ps_per_unit) {
  return field<Config>(
      std::move(key), get,
      [load, ps_per_unit](Time& t, std::mt19937_64& rng) {
        if (rng() % 2 == 0) {
          t = Time::ps(static_cast<Time::Rep>(rng() >> (12 + rng() % 52)));
        } else {
          double units = 0x1p63;
          while (!(units * ps_per_unit < 0x1p63)) {
            units = random_below(rng, 0x1p63 / ps_per_unit);
          }
          t = load(units);
        }
      });
}

/// Every frequency a load accepts: above zero, period within Time.
template <typename Config, typename Get>
NumericField<Config> frequency(std::string key, Get get) {
  return field<Config>(std::move(key), get,
                       [](Frequency& f, std::mt19937_64& rng) {
                         double hz = 0.0;
                         while (!(hz > 0.0 && 1.0 / hz * 1e12 < 0x1p63)) {
                           f = Frequency::mhz(random_below(rng, 0x1p1000));
                           hz = f.to_hz();
                         }
                       });
}

/// Every value a load produces: decimal text divided by 10^k.
template <typename Config, typename Get>
NumericField<Config> scaled(std::string key, Get get, double per_unit) {
  return field<Config>(std::move(key), get,
                       [per_unit](double& v, std::mt19937_64& rng) {
                         v = random_finite(rng) / per_unit;
                       });
}

/// Any integer of the field's own width within [lo, hi], log-spread.
template <typename Config, typename Get>
NumericField<Config> integer(std::string key, Get get, std::uint64_t lo = 0,
                             std::uint64_t hi = UINT64_MAX) {
  using T = std::remove_cvref_t<decltype(get(std::declval<Config&>()))>;
  hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max());
  return field<Config>(std::move(key), get,
                       [lo, span = hi - lo](T& v, std::mt19937_64& rng) {
                         const std::uint64_t n = rng() >> (rng() % 64);
                         v = static_cast<T>(
                             lo + (span == UINT64_MAX ? n : n % (span + 1)));
                       });
}

#define AETR_GET(path) [](auto& c) -> auto& { return c.path; }

std::vector<NumericField<ScenarioConfig>> scenario_fields() {
  using C = ScenarioConfig;
  return {
      frequency<C>("clock.ring_mhz", AETR_GET(interface.clock.ring_frequency)),
      integer<C>("clock.ref_divider_stages",
                 AETR_GET(interface.clock.ref_divider_stages)),
      integer<C>("clock.sampling_divider_stages",
                 AETR_GET(interface.clock.sampling_divider_stages)),
      integer<C>("clock.theta_div", AETR_GET(interface.clock.theta_div), 1,
                 4096),
      integer<C>("clock.n_div", AETR_GET(interface.clock.n_div), 0, 30),
      time<C>("clock.wake_latency_ns", AETR_GET(interface.clock.wake_latency),
              &Time::ns, 1e3),
      integer<C>("frontend.sync_stages",
                 AETR_GET(interface.front_end.sync_stages)),
      real<C>("frontend.metastability_prob",
              AETR_GET(interface.front_end.metastability_prob)),
      integer<C>("fifo.capacity_words",
                 AETR_GET(interface.fifo.capacity_words)),
      integer<C>("fifo.batch_threshold",
                 AETR_GET(interface.fifo.batch_threshold)),
      frequency<C>("i2s.sck_mhz", AETR_GET(interface.i2s.sck)),
      integer<C>("i2s.word_bits", AETR_GET(interface.i2s.word_bits)),
      time<C>("drain_timeout_us", AETR_GET(interface.drain_timeout),
              &Time::us, 1e6),
      scaled<C>("power.static_uw", AETR_GET(interface.calibration.static_w),
                1e6),
      scaled<C>("power.osc_domain_mw",
                AETR_GET(interface.calibration.osc_domain_w), 1e3),
      time<C>("sender.addr_setup_ns", AETR_GET(sender.addr_setup), &Time::ns,
              1e3),
      time<C>("sender.req_release_ns", AETR_GET(sender.req_release),
              &Time::ns, 1e3),
      time<C>("sender.min_gap_ns", AETR_GET(sender.min_gap), &Time::ns, 1e3),
      time<C>("session.cooldown_us", AETR_GET(cooldown), &Time::us, 1e6),
      integer<C>("session.max_buffered_events",
                 AETR_GET(session.max_buffered_events), 1),
      integer<C>("fault.seed", AETR_GET(faults.seed)),
      real<C>("fault.aer.drop_req_prob", AETR_GET(faults.aer.drop_req_prob)),
      real<C>("fault.aer.stuck_ack_prob", AETR_GET(faults.aer.stuck_ack_prob)),
      real<C>("fault.aer.addr_bit_flip_prob",
              AETR_GET(faults.aer.addr_bit_flip_prob)),
      real<C>("fault.aer.runt_req_prob", AETR_GET(faults.aer.runt_req_prob)),
      time<C>("fault.aer.runt_width_ns", AETR_GET(faults.aer.runt_width),
              &Time::ns, 1e3),
      real<C>("fault.clock.period_jitter_rel",
              AETR_GET(faults.clock.period_jitter_rel)),
      real<C>("fault.clock.wake_jitter_rel",
              AETR_GET(faults.clock.wake_jitter_rel)),
      real<C>("fault.fifo.cell_bit_flip_prob",
              AETR_GET(faults.fifo.cell_bit_flip_prob)),
      real<C>("fault.spi.word_bit_flip_prob",
              AETR_GET(faults.spi.word_bit_flip_prob)),
      real<C>("fault.i2s.bit_error_rate", AETR_GET(faults.i2s.bit_error_rate)),
      time<C>("fault.recovery.watchdog_timeout_us",
              AETR_GET(faults.recovery.watchdog_timeout), &Time::us, 1e6),
      time<C>("telemetry.metrics_window_ms",
              AETR_GET(telemetry.metrics_window), &Time::ms, 1e9),
  };
}

std::vector<NumericField<fleet::FleetConfig>> fleet_fields() {
  using C = fleet::FleetConfig;
  std::vector<NumericField<C>> fields = {
      integer<C>("fleet.nodes", AETR_GET(nodes)),
      integer<C>("fleet.gateways", AETR_GET(gateways)),
      real<C>("fleet.rate_hz", AETR_GET(rate_hz)),
      integer<C>("fleet.events_per_node", AETR_GET(events_per_node)),
      real<C>("fleet.rate_spread", AETR_GET(rate_spread)),
      real<C>("fleet.fault_level", AETR_GET(fault_level)),
      real<C>("fleet.node_energy_budget_j", AETR_GET(node_energy_budget_j)),
      integer<C>("fleet.seed", AETR_GET(seed)),
      real<C>("link.bandwidth_words_per_sec",
              AETR_GET(link.bandwidth_words_per_sec)),
      integer<C>("link.queue_words", AETR_GET(link.queue_words)),
  };
  // Every scenario key again, on the per-node base scenario.
  for (auto& f : scenario_fields()) {
    fields.push_back(
        {f.key,
         [r = f.randomize](C& c, std::mt19937_64& rng) { r(c.base, rng); },
         [s = f.same](const C& a, const C& b) { return s(a.base, b.base); }});
  }
  return fields;
}

#undef AETR_GET

/// Keys whose value in `dump` reads as a number.
std::vector<std::string> numeric_keys(const std::string& dump) {
  std::vector<std::string> keys;
  keyio::parse_text(dump, "dump",
                    [&](std::string_view key, std::string_view value,
                        std::size_t) {
                      if (is_number(std::string{value})) {
                        keys.emplace_back(key);
                      }
                    });
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// load(dump(c)) == c on every numeric field, and dump(load(dump(c))) ==
/// dump(c), for `trials` random configs. `reload` applies every line of a
/// dump to a default config without validate(): random values need not
/// form a runnable config, only a representable one.
template <typename Config, typename Dump, typename Apply>
void expect_exact_round_trip(const std::vector<NumericField<Config>>& fields,
                             Dump dump, Apply apply, int trials) {
  // The oracle covers exactly the keys the dump shows as numbers.
  std::vector<std::string> covered;
  for (const auto& f : fields) covered.push_back(f.key);
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, numeric_keys(dump(Config{})));

  std::mt19937_64 rng{20261018};
  for (int trial = 0; trial < trials; ++trial) {
    Config config;
    for (const auto& f : fields) f.randomize(config, rng);
    const std::string text = dump(config);
    Config back;
    keyio::parse_text(text, "config",
                      [&](std::string_view key, std::string_view value,
                          std::size_t) {
                        apply(back, std::string{key}, std::string{value});
                      });
    for (const auto& f : fields) {
      EXPECT_TRUE(f.same(back, config)) << f.key << " in\n" << text;
    }
    ASSERT_EQ(dump(back), text);
  }
}

TEST(ScenarioIo, EveryNumericKeyRoundTripsExactly) {
  expect_exact_round_trip<ScenarioConfig>(
      scenario_fields(),
      [](const ScenarioConfig& c) { return dump_scenario(c); },
      [](ScenarioConfig& c, const std::string& k, const std::string& v) {
        apply_scenario_key(c, k, v);
      },
      400);
}

TEST(FleetIo, EveryNumericKeyRoundTripsExactly) {
  expect_exact_round_trip<fleet::FleetConfig>(
      fleet_fields(),
      [](const fleet::FleetConfig& c) { return fleet::dump_fleet(c); },
      [](fleet::FleetConfig& c, const std::string& k, const std::string& v) {
        fleet::apply_fleet_key(c, k, v);
      },
      200);
}

}  // namespace
}  // namespace aetr::core
