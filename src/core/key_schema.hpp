// Declarative "key = value" schema registry.
//
// One KeySchema<Config> describes everything a textual config namespace
// needs in a single table: how each key parses into the config struct, how
// it dumps back out (registration order == dump order), and the known-key
// list that feeds unknown-key rejection with did-you-mean suggestions.
//
// Keys are declared through typed bindings, one per value type (flag,
// integer, real, time, frequency_mhz, scaled, text, choice). Each binding
// takes one accessor, `[](auto& c) -> auto& { return c.x.y; }`, that
// serves both load and dump, and owns its value type's rules, written
// once here:
//   - number format: a number dumps as the shortest %g text (precision 6
//     up to 17) that loads back to the stored value (keyio::shortest_text),
//     so load(dump(c)) == c and dump -> load -> dump is byte-identical;
//   - unit scale: time keys hold integral picoseconds, frequency keys
//     hertz, scaled keys a power-of-ten multiple of the text;
//   - range: every refusal throws std::runtime_error naming the key and
//     leaves the config untouched.
//
// Layered formats compose instead of re-implementing fall-through:
// extend() grafts a complete inner schema through an accessor, so the
// scenario schema embeds every interface key (applied to
// scenario.interface) and the fleet schema embeds every scenario key
// (applied to config.base). core/config_io.cpp, fleet/fleet_io.cpp, and
// opt's SearchSpace axis validation all share these tables.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace aetr::core {

/// Shared value-parsing, formatting and key-suggestion helpers for
/// KeySchema tables.
namespace keyio {

inline std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

[[noreturn]] inline void out_of_range(const std::string& key,
                                      const std::string& v) {
  throw std::runtime_error("config: " + key + " out of range: " + v);
}

inline bool parse_bool(const std::string& v, const std::string& key) {
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  throw std::runtime_error("config: bad boolean for " + key + ": " + v);
}

inline double parse_double(const std::string& v, const std::string& key) {
  // std::strtod, not std::stod: stod refuses subnormals, which a dump
  // prints like any other double.
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str()) {
    throw std::runtime_error("config: bad number for " + key + ": " + v);
  }
  if (end != v.c_str() + v.size()) {
    throw std::runtime_error("config: trailing junk for " + key + ": " + v);
  }
  // strtod reads "nan" and "inf" and overflows to inf; no key means either.
  if (!std::isfinite(d)) {
    throw std::runtime_error("config: non-finite number for " + key + ": " +
                             v);
  }
  return d;
}

/// A non-negative integer. Plain digits parse exactly at any width up to
/// 2^64 - 1; other spellings ("1e3", "64.0") go through a double and must
/// be whole and below 2^64.
inline std::uint64_t parse_uint(const std::string& v, const std::string& key) {
  std::uint64_t n = 0;
  const char* end = v.data() + v.size();
  if (const auto r = std::from_chars(v.data(), end, n);
      r.ec == std::errc{} && r.ptr == end) {
    return n;
  }
  const double d = parse_double(v, key);
  if (d < 0.0 || d != std::floor(d)) {
    throw std::runtime_error("config: expected non-negative integer for " +
                             key + ": " + v);
  }
  // 2^64 is the first double the cast below cannot represent.
  if (d >= 0x1p64) out_of_range(key, v);
  return static_cast<std::uint64_t>(d);
}

/// `v` as printf("%.*g", precision, v) prints it.
inline std::string format_g(double v, int precision) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, precision);
  return {buf, r.ptr};
}

/// The shortest %g text, precision 6 up to 17, of `v` or of a double
/// within four ulps of it, whose parse satisfies `loads_back`; `v` at
/// precision 17 when none does. Precision 6 comes first, so a value that
/// round-trips there prints exactly as a default-formatted stream prints
/// it. The neighbours serve scaled loads: `v` is the stored value
/// converted to the key's unit, and converting it back can miss by an
/// ulp where a neighbour's text lands.
template <typename LoadsBack>
std::string shortest_text(double v, LoadsBack&& loads_back) {
  double near[9] = {v};
  double up = v;
  double down = v;
  for (int i = 1; i <= 4; ++i) {
    near[2 * i - 1] = up = std::nextafter(up, HUGE_VAL);
    near[2 * i] = down = std::nextafter(down, -HUGE_VAL);
  }
  for (int precision = 6; precision <= 17; ++precision) {
    const std::string own = format_g(v, precision);
    for (const double candidate : near) {
      const std::string text =
          candidate == v ? own : format_g(candidate, precision);
      if (candidate != v && text == own) continue;  // already tried
      if (loads_back(std::strtod(text.c_str(), nullptr))) return text;
    }
  }
  return format_g(v, 17);
}

/// The shortest %g text that parses back to exactly `v`.
inline std::string format_double(double v) {
  return shortest_text(v, [v](double parsed) { return parsed == v; });
}

/// Picoseconds per unit of a time key's text.
inline constexpr double kPsPerNs = 1e3;
inline constexpr double kPsPerUs = 1e6;
inline constexpr double kPsPerMs = 1e9;

/// Classic two-row Levenshtein distance, for the unknown-key suggestions.
inline std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Nearest key among `candidates`, or "" when nothing is within the typo
/// threshold (a third of the key's length, but at least two edits — short
/// keys still deserve a hint, unrelated keys must not produce one).
inline std::string nearest_key(const std::string& key,
                               const std::vector<std::string>& candidates) {
  const std::size_t threshold = std::max<std::size_t>(2, key.size() / 3);
  std::size_t best = threshold + 1;
  std::string match;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(key, c);
    if (d < best) {
      best = d;
      match = c;
    }
  }
  return match;
}

/// Drive the shared line syntax (comments, blank lines, `key = value`)
/// over a stream, calling fn(key, value, line_no) per assignment. Throws
/// "<context>: line N is not 'key = value'" on malformed lines.
template <typename Fn>
void parse_stream(std::istream& is, const std::string& context, Fn&& fn) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error(context + ": line " + std::to_string(line_no) +
                               " is not 'key = value': " + stripped);
    }
    fn(trim(stripped.substr(0, eq)), trim(stripped.substr(eq + 1)), line_no);
  }
}

}  // namespace keyio

template <typename Config>
class KeySchema {
 public:
  using Apply = std::function<void(Config&, const std::string&)>;
  using Dump = std::function<void(std::string&, const Config&)>;

  struct Entry {
    std::string key;      ///< canonical key ("" for comment rows)
    Apply apply;          ///< parse + assign into the config
    Dump dump;            ///< append the current value (no key, no newline)
    std::string comment;  ///< dump-only comment row when key is empty
  };

  /// `context` prefixes diagnostics ("config", "fleet config", ...).
  explicit KeySchema(std::string context) : context_{std::move(context)} {}

  // --- typed bindings -------------------------------------------------------
  // Registration order is dump order. `get` is the one accessor,
  // `[](auto& c) -> auto& { return c.x.y; }`, called on a Config& to load
  // and on a const Config& to dump.

  /// The type of the field `get` reaches.
  template <typename Get>
  using Field = std::remove_cvref_t<std::invoke_result_t<Get, Config&>>;

  /// true/1/on or false/0/off; dumps true/false.
  template <typename Get>
  KeySchema& flag(std::string key, Get get) {
    return add(
        key,
        [get, key](Config& c, const std::string& v) {
          get(c) = keyio::parse_bool(v, key);
        },
        [get](std::string& out, const Config& c) {
          out += get(c) ? "true" : "false";
        });
  }

  /// Unsigned integer field, refused above its own type's maximum (never
  /// narrowed) and outside [lo, hi].
  template <typename Get>
  KeySchema& integer(std::string key, Get get, std::uint64_t lo = 0,
                     std::uint64_t hi = UINT64_MAX) {
    using T = Field<Get>;
    static_assert(std::is_unsigned_v<T>);
    hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max());
    return add(
        key,
        [get, key, lo, hi](Config& c, const std::string& v) {
          const std::uint64_t n = keyio::parse_uint(v, key);
          if (n < lo || n > hi) keyio::out_of_range(key, v);
          get(c) = static_cast<T>(n);
        },
        [get](std::string& out, const Config& c) {
          out += std::to_string(get(c));
        });
  }

  /// Finite double, refused below `min`.
  template <typename Get>
  KeySchema& real(std::string key, Get get, double min = -HUGE_VAL) {
    return number(
        std::move(key), get,
        [min](double d) -> std::optional<double> {
          if (d < min) return std::nullopt;
          return d;
        },
        [](double field) { return field; });
  }

  /// Time field whose text counts `ps_per_unit` picoseconds (keyio::kPsPerNs,
  /// kPsPerUs, kPsPerMs), rounded to the nearest picosecond as Time::ns and
  /// its siblings round. Refused when negative or when the picosecond count
  /// does not fit in Time's int64. Load goes through a double, so every
  /// count below 2^52 loads exactly; past that, only the counts a double
  /// reaches do.
  template <typename Get>
  KeySchema& time(std::string key, Get get, double ps_per_unit) {
    return number(
        std::move(key), get,
        [ps_per_unit](double d) -> std::optional<Time> {
          const double ps = d * ps_per_unit;
          if (!(d >= 0.0 && ps < 0x1p63)) return std::nullopt;
          return Time::ps(static_cast<Time::Rep>(ps + 0.5));
        },
        [ps_per_unit](Time t) {
          return static_cast<double>(t.count_ps()) / ps_per_unit;
        });
  }

  /// Frequency field written in MHz; refused unless > 0, and unless its
  /// period (Frequency::period(), whole picoseconds) fits in Time's int64.
  template <typename Get>
  KeySchema& frequency_mhz(std::string key, Get get) {
    return number(
        std::move(key), get,
        [](double d) -> std::optional<Frequency> {
          const double hz = d * 1e6;
          if (!(d > 0.0 && std::isfinite(hz) && 1.0 / hz * 1e12 < 0x1p63)) {
            return std::nullopt;
          }
          return Frequency::mhz(d);
        },
        [](Frequency f) { return f.to_mhz(); });
  }

  /// Double field holding the text divided by `per_unit`, an exact power
  /// of ten (power.static_uw: 1e6). The load divides, because multiplying
  /// by the inexact reciprocal lands the default 50 uW one ulp low. Not
  /// every double is a quotient of decimal text by 10^k: about 4 % of
  /// doubles are unreachable at 10^6, and dump prints their nearest text.
  template <typename Get>
  KeySchema& scaled(std::string key, Get get, double per_unit) {
    return number(
        std::move(key), get,
        [per_unit](double d) { return std::optional{d / per_unit}; },
        [per_unit](double field) { return field * per_unit; });
  }

  /// Free-form string, stored as loaded (trimmed).
  template <typename Get>
  KeySchema& text(std::string key, Get get) {
    return add(
        key, [get](Config& c, const std::string& v) { get(c) = v; },
        [get](std::string& out, const Config& c) { out += get(c); });
  }

  /// Enum field spelled by `names`; any other text is refused with the
  /// spellings listed.
  template <typename Get>
  KeySchema& choice(std::string key, Get get,
                    std::vector<std::pair<std::string, Field<Get>>> names) {
    std::string expected;
    for (const auto& [name, value] : names) {
      expected += (expected.empty() ? "" : " or ") + name;
    }
    return add(
        key,
        [get, key, names, expected](Config& c, const std::string& v) {
          for (const auto& [name, value] : names) {
            if (v == name) {
              get(c) = value;
              return;
            }
          }
          throw std::runtime_error("config: " + key + " must be " + expected +
                                   ": " + v);
        },
        [get, names](std::string& out, const Config& c) {
          for (const auto& [name, value] : names) {
            if (get(c) == value) out += name;
          }
        });
  }

  /// Register a dump-only comment row ("# <text>") at this position.
  KeySchema& comment(std::string text) {
    entries_.push_back(Entry{{}, {}, {}, std::move(text)});
    return *this;
  }

  /// Graft a complete inner schema: every inner key applies and dumps
  /// through `get` (an accessor as above, returning the Inner part), inner
  /// comment rows carry over. This is how layered formats share one table
  /// instead of re-implementing key fall-through.
  template <typename Inner, typename Get>
  KeySchema& extend(const KeySchema<Inner>& inner, Get get) {
    for (const auto& e : inner.entries()) {
      if (e.key.empty()) {
        comment(e.comment);
        continue;
      }
      add(
          e.key,
          [get, apply = e.apply](Config& c, const std::string& v) {
            apply(get(c), v);
          },
          [get, dump = e.dump](std::string& out, const Config& c) {
            dump(out, get(c));
          });
    }
    return *this;
  }

  /// True when `key` is a registered key.
  [[nodiscard]] bool known(const std::string& key) const {
    return index_.count(key) != 0;
  }

  /// Apply one assignment; throws "<context>: unknown key [at line N]:
  /// <key>" with a did-you-mean hint when the key is unknown.
  void apply(Config& config, const std::string& key, const std::string& value,
             std::size_t line_no = 0) const {
    const auto it = index_.find(key);
    if (it == index_.end()) throw_unknown(key, line_no);
    entries_[it->second].apply(config, value);
  }

  /// Every registered key, sorted.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> keys;
    keys.reserve(index_.size());
    for (const auto& [key, idx] : index_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// The known key nearest to `key` by edit distance, or "" when nothing
  /// is plausibly a typo of it.
  [[nodiscard]] std::string suggest(const std::string& key) const {
    return keyio::nearest_key(key, keys());
  }

  /// Every entry in registration order: comment rows as "# <text>", keys
  /// as "key = <value>", one per line.
  [[nodiscard]] std::string dump(const Config& config) const {
    std::string out;
    for (const auto& e : entries_) {
      if (e.key.empty()) {
        out += "# " + e.comment + '\n';
      } else {
        out += e.key + " = ";
        e.dump(out, config);
        out += '\n';
      }
    }
    return out;
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  [[noreturn]] void throw_unknown(const std::string& key,
                                  std::size_t line_no) const {
    std::string msg = context_ + ": unknown key";
    if (line_no != 0) msg += " at line " + std::to_string(line_no);
    msg += ": " + key;
    if (const std::string hint = suggest(key); !hint.empty()) {
      msg += " (did you mean '" + hint + "'?)";
    }
    throw std::runtime_error(msg);
  }

  KeySchema& add(std::string key, Apply apply, Dump dump) {
    index_.emplace(key, entries_.size());
    entries_.push_back(
        Entry{std::move(key), std::move(apply), std::move(dump), {}});
    return *this;
  }

  /// The codec behind every number binding: `decode` maps a parsed finite
  /// number to the field's value, or std::nullopt when it is out of range;
  /// `unit` maps the field's value back to the number its text shows.
  /// Dump prints the shortest text that decodes to the stored value.
  template <typename Get, typename Decode, typename Unit>
  KeySchema& number(std::string key, Get get, Decode decode, Unit unit) {
    return add(
        key,
        [get, key, decode](Config& c, const std::string& v) {
          const auto value = decode(keyio::parse_double(v, key));
          if (!value) keyio::out_of_range(key, v);
          get(c) = *value;
        },
        [get, decode, unit](std::string& out, const Config& c) {
          const auto& field = get(c);
          out += keyio::shortest_text(unit(field), [&](double parsed) {
            const auto value = decode(parsed);
            return value && *value == field;
          });
        });
  }

  std::string context_;
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace aetr::core
