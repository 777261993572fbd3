// Textual configuration for a run: a small "key = value" format so
// experiments are reproducible from files: `aetr-serve run|listen|send
// --config FILE` takes one, and `aetr-serve run --dump-config` prints
// every key with its effective value.
//
//   # aetr scenario configuration
//   clock.theta_div     = 64
//   clock.n_div         = 8
//   fifo.batch_threshold = 1024
//   fault.aer.drop_req_prob = 0.01
//
// Unknown keys are an error (catching typos beats silently ignoring them);
// omitted keys keep their defaults. dump_scenario() emits every key.
//
// Round trip: every number is written as the shortest %g text (precision
// 6 up to 17) that loads back to the stored value, so load(dump(s)) equals
// s field for field and dump -> load -> dump is byte-identical. A value
// that round-trips at six digits prints exactly as a default-formatted
// stream prints it. Scaled keys (power.static_uw, power.osc_domain_mw)
// load by dividing by the exact power of ten; a time key loads to the
// nearest picosecond, so every count below 2^52 ps round-trips.
//
// Range: numbers must be finite. Time keys (_ns, _us, _ms) refuse
// negatives and values whose picosecond count does not fit in int64;
// frequency keys (_mhz) refuse values not above zero and values whose
// period in picoseconds does not fit in int64; an integer key
// refuses negatives, fractions and values above its field type's maximum
// (never narrowing) or outside its own bounds (clock.theta_div 1..4096,
// clock.n_div 0..30, session.max_buffered_events >= 1). Each refusal
// throws std::runtime_error naming the key and leaves the config
// untouched; cross-key rules (probabilities in [0, 1], batch threshold <=
// capacity, every time key and the clock's awake span at most
// ScenarioConfig::kMaxTime) are ScenarioConfig::validate()'s.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/key_schema.hpp"
#include "core/scenario.hpp"

namespace aetr::core {

/// The declarative schema behind load_scenario()/dump_scenario(): every
/// interface key (clock.*, frontend.*, fifo.*, i2s.*, power.*,
/// drain_timeout_us) applied to
/// scenario.interface, plus sender.*, session.*, fault.* and telemetry.*.
/// opt::SearchSpace validates its axes against this table, and the fleet
/// config extends it onto FleetConfig::base.
[[nodiscard]] const KeySchema<ScenarioConfig>& scenario_schema();

/// Parse a full scenario text (interface keys plus sender.*, session.*, fault.*
/// and telemetry.*) on top of default values. Throws std::runtime_error on
/// syntax errors, unknown keys or bad values, and std::invalid_argument
/// when the result fails ScenarioConfig::validate().
ScenarioConfig load_scenario_text(std::string_view text);

/// load_scenario_text() on the rest of the stream.
ScenarioConfig load_scenario(std::istream& is);

/// Load a scenario file; throws std::runtime_error on failure.
ScenarioConfig load_scenario_file(const std::string& path);

/// Render every tunable of `scenario` in load_scenario() syntax: every key,
/// every number exact (see the round-trip rule above).
std::string dump_scenario(const ScenarioConfig& scenario);

/// Apply one `key = value` assignment — any key load_scenario() accepts —
/// to an existing scenario. This is the single-key counterpart of
/// load_scenario() that the `opt` search spaces drive: a parameter axis
/// names a scenario key and materialises each sampled point through here.
/// Throws std::runtime_error on unknown keys (with a nearest-key
/// suggestion) or unparsable values.
void apply_scenario_key(ScenarioConfig& scenario, const std::string& key,
                        const std::string& value);

/// Every key load_scenario() understands, in sorted order.
[[nodiscard]] std::vector<std::string> scenario_keys();

/// The known scenario key nearest to `key` by edit distance, or "" when
/// nothing is close enough to be a plausible typo.
[[nodiscard]] std::string suggest_scenario_key(const std::string& key);

}  // namespace aetr::core
