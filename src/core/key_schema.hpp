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
//     so load(dump(c)) == c and dump -> load -> dump is byte-identical.
//     A value whose round-trip digits (std::to_chars) number six or fewer
//     and that the key loads back as itself prints as %.6g at once: %.6g
//     then prints exactly those digits, so the text parses back to the
//     value and the search over precisions and neighbours is skipped;
//   - unit scale: time keys hold integral picoseconds, frequency keys
//     hertz, scaled keys a power-of-ten multiple of the text;
//   - range: every refusal throws std::runtime_error naming the key and
//     leaves the config untouched.
//
// Text is parsed in place (keyio::parse_text over a std::string_view, key
// lookup through a transparent std::less<>), and a number goes through
// std::from_chars before std::strtod, which reads only what from_chars
// refuses, so a well-formed number, flag or choice line allocates nothing.
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
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace aetr::core {

/// Shared value-parsing, formatting and key-suggestion helpers for
/// KeySchema tables.
namespace keyio {

/// `s` without leading and trailing spaces, tabs, '\r' and '\n'.
inline std::string_view trim(std::string_view s) {
  const auto blank = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && blank(s.back())) s.remove_suffix(1);
  return s;
}

[[noreturn]] inline void out_of_range(const std::string& key,
                                      std::string_view v) {
  throw std::runtime_error("config: " + key + " out of range: " +
                           std::string{v});
}

inline bool parse_bool(std::string_view v, const std::string& key) {
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  throw std::runtime_error("config: bad boolean for " + key + ": " +
                           std::string{v});
}

/// A finite double, as std::strtod reads the whole of `v`. std::from_chars
/// reads every plain decimal spelling and gives strtod's correctly rounded
/// value; whatever it refuses (hex, a leading '+', overflow, underflow,
/// NaN, inf, junk) goes through strtod itself, which keeps every
/// acceptance, value and refusal message.
inline double parse_double(std::string_view v, const std::string& key) {
  double d = 0.0;
  const char* end = v.data() + v.size();
  if (const auto r = std::from_chars(v.data(), end, d);
      r.ec == std::errc{} && r.ptr == end && std::isfinite(d)) {
    return d;
  }
  // std::strtod, not std::stod: stod refuses subnormals, which a dump
  // prints like any other double.
  const std::string text{v};
  char* stop = nullptr;
  d = std::strtod(text.c_str(), &stop);
  if (stop == text.c_str()) {
    throw std::runtime_error("config: bad number for " + key + ": " + text);
  }
  if (stop != text.c_str() + text.size()) {
    throw std::runtime_error("config: trailing junk for " + key + ": " + text);
  }
  // strtod reads "nan" and "inf" and overflows to inf; no key means either.
  if (!std::isfinite(d)) {
    throw std::runtime_error("config: non-finite number for " + key + ": " +
                             text);
  }
  return d;
}

/// A non-negative integer. Plain digits parse exactly at any width up to
/// 2^64 - 1; other spellings ("1e3", "64.0") go through a double and must
/// be whole and below 2^64.
inline std::uint64_t parse_uint(std::string_view v, const std::string& key) {
  std::uint64_t n = 0;
  const char* end = v.data() + v.size();
  if (const auto r = std::from_chars(v.data(), end, n);
      r.ec == std::errc{} && r.ptr == end) {
    return n;
  }
  const double d = parse_double(v, key);
  if (d < 0.0 || d != std::floor(d)) {
    throw std::runtime_error("config: expected non-negative integer for " +
                             key + ": " + std::string{v});
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

/// Significant digits in the shortest text that std::strtod reads back
/// to exactly `v` (std::to_chars' round-trip digits).
inline int shortest_digits(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::scientific);
  int digits = 0;
  for (const char* p = buf; p != r.ptr && *p != 'e'; ++p) {
    digits += (*p >= '0' && *p <= '9') ? 1 : 0;
  }
  return digits;
}

/// The shortest %g text, precision 6 up to 17, of `v` or of a double
/// within four ulps of it, whose parse satisfies `loads_back`; `v` at
/// precision 17 when none does. Precision 6 comes first, so a value that
/// round-trips there prints exactly as a default-formatted stream prints
/// it. The neighbours serve scaled loads: `v` is the stored value
/// converted to the key's unit, and converting it back can miss by an
/// ulp where a neighbour's text lands.
///
/// Most values take a shortcut to the loop's first answer, format_g(v, 6):
/// when `v` itself satisfies `loads_back` and its round-trip digits number
/// six or fewer, %.6g parses back to exactly `v`. Those digits are a
/// 6-digit decimal within half an ulp of `v`, and %.6g prints the 6-digit
/// decimal nearest `v`; for a normal double two 6-digit decimals lie at
/// least 1e-6 of `v` apart, far more than an ulp, so both are the same
/// text. A subnormal's ulp is the same on both sides of it, so the nearer
/// text parses back wherever the farther one does.
///
/// `only_itself` declares that `loads_back` accepts no double but `v` (a
/// `real` key). Then the loop starts at max(6, shortest_digits(v)): a text
/// of fewer significant digits than the round-trip digits parses to some
/// other double, by what "shortest" means, and %.pg prints at most p
/// digits, so no precision below that start can answer. Other bindings
/// start at 6, where a neighbour's shorter text can load back.
template <typename LoadsBack>
std::string shortest_text(double v, LoadsBack&& loads_back,
                          bool only_itself = false) {
  const int digits = shortest_digits(v);
  if (digits <= 6 && loads_back(v)) return format_g(v, 6);
  double near[9] = {v};
  double up = v;
  double down = v;
  for (int i = 1; i <= 4; ++i) {
    near[2 * i - 1] = up = std::nextafter(up, HUGE_VAL);
    near[2 * i] = down = std::nextafter(down, -HUGE_VAL);
  }
  for (int precision = only_itself ? std::max(6, digits) : 6;
       precision <= 17; ++precision) {
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
  return shortest_text(
      v, [v](double parsed) { return parsed == v; }, /*only_itself=*/true);
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
/// over an in-memory text, calling fn(key, value, line_no) per assignment
/// with views into `text`. Lines end at '\n' (a final line needs none) and
/// are trimmed of spaces, tabs and '\r'. Throws "<context>: line N is not
/// 'key = value'" on malformed lines.
template <typename Fn>
void parse_text(std::string_view text, std::string_view context, Fn&& fn) {
  std::size_t line_no = 0;
  while (!text.empty()) {
    const auto nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    ++line_no;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error(std::string{context} + ": line " +
                               std::to_string(line_no) +
                               " is not 'key = value': " +
                               std::string{stripped});
    }
    fn(trim(stripped.substr(0, eq)), trim(stripped.substr(eq + 1)), line_no);
  }
}

}  // namespace keyio

template <typename Config>
class KeySchema {
 public:
  using Apply = std::function<void(Config&, std::string_view)>;
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
        [get, key](Config& c, std::string_view v) {
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
        [get, key, lo, hi](Config& c, std::string_view v) {
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
        [](double field) { return field; }, /*only_itself=*/true);
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
        key, [get](Config& c, std::string_view v) { get(c) = v; },
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
        [get, key, names, expected](Config& c, std::string_view v) {
          for (const auto& [name, value] : names) {
            if (v == name) {
              get(c) = value;
              return;
            }
          }
          throw std::runtime_error("config: " + key + " must be " + expected +
                                   ": " + std::string{v});
        },
        [get, names](std::string& out, const Config& c) {
          for (const auto& [name, value] : names) {
            if (get(c) == value) out += name;
          }
        });
  }

  /// Register a dump-only comment row ("# <text>") at this position.
  KeySchema& comment(std::string text) {
    dump_reserve_ += text.size() + 3;
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
          [get, apply = e.apply](Config& c, std::string_view v) {
            apply(get(c), v);
          },
          [get, dump = e.dump](std::string& out, const Config& c) {
            dump(out, get(c));
          });
    }
    return *this;
  }

  /// True when `key` is a registered key.
  [[nodiscard]] bool known(std::string_view key) const {
    return index_.find(key) != index_.end();
  }

  /// Apply one assignment; throws "<context>: unknown key [at line N]:
  /// <key>" with a did-you-mean hint when the key is unknown.
  void apply(Config& config, std::string_view key, std::string_view value,
             std::size_t line_no = 0) const {
    entries_[find(key, line_no)].apply(config, value);
  }

  /// Apply every assignment of `text` (keyio::parse_text syntax) in line
  /// order, as apply() would. A dump lists its keys in entry order, so
  /// each key is first compared with the entry after the previous one.
  void load(Config& config, std::string_view text) const {
    std::size_t next = 0;
    keyio::parse_text(text, context_,
                      [&](std::string_view key, std::string_view value,
                          std::size_t line_no) {
                        while (next < entries_.size() &&
                               entries_[next].key.empty()) {
                          ++next;  // comment rows
                        }
                        const std::size_t i =
                            next < entries_.size() && entries_[next].key == key
                                ? next
                                : find(key, line_no);
                        entries_[i].apply(config, value);
                        next = i + 1;
                      });
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
    out.reserve(dump_reserve_);
    for (const auto& e : entries_) {
      if (e.key.empty()) {
        out += "# ";
        out += e.comment;
      } else {
        out += e.key;
        out += " = ";
        e.dump(out, config);
      }
      out += '\n';
    }
    return out;
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  /// The entry index of `key`; throws as apply() documents when unknown.
  [[nodiscard]] std::size_t find(std::string_view key,
                                 std::size_t line_no) const {
    const auto it = index_.find(key);
    if (it == index_.end()) throw_unknown(key, line_no);
    return it->second;
  }

  [[noreturn]] void throw_unknown(std::string_view key,
                                  std::size_t line_no) const {
    std::string msg = context_ + ": unknown key";
    if (line_no != 0) msg += " at line " + std::to_string(line_no);
    msg += ": ";
    msg += key;
    if (const std::string hint = suggest(std::string{key}); !hint.empty()) {
      msg += " (did you mean '" + hint + "'?)";
    }
    throw std::runtime_error(msg);
  }

  KeySchema& add(std::string key, Apply apply, Dump dump) {
    dump_reserve_ += key.size() + 4 + kValueReserve;
    // load() takes a key equal to the next entry's for that entry, so
    // every key names exactly one.
    if (!index_.emplace(key, entries_.size()).second) {
      throw std::logic_error(context_ + ": duplicate key " + key);
    }
    entries_.push_back(
        Entry{std::move(key), std::move(apply), std::move(dump), {}});
    return *this;
  }

  /// The codec behind every number binding: `decode` maps a parsed finite
  /// number to the field's value, or std::nullopt when it is out of range;
  /// `unit` maps the field's value back to the number its text shows.
  /// Dump prints the shortest text that decodes to the stored value;
  /// `only_itself` is keyio::shortest_text's, true when `decode` and `unit`
  /// are the identity on the values a load keeps.
  template <typename Get, typename Decode, typename Unit>
  KeySchema& number(std::string key, Get get, Decode decode, Unit unit,
                    bool only_itself = false) {
    return add(
        key,
        [get, key, decode](Config& c, std::string_view v) {
          const auto value = decode(keyio::parse_double(v, key));
          if (!value) keyio::out_of_range(key, v);
          get(c) = *value;
        },
        [get, decode, unit, only_itself](std::string& out, const Config& c) {
          const auto& field = get(c);
          out += keyio::shortest_text(
              unit(field),
              [&](double parsed) {
                const auto value = decode(parsed);
                return value && *value == field;
              },
              only_itself);
        });
  }

  /// Room dump() reserves per value: a six-digit number and its sign,
  /// point and exponent fit, so a default dump never reallocates.
  static constexpr std::size_t kValueReserve = 12;

  std::string context_;
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t, std::less<>> index_;
  std::size_t dump_reserve_{0};  ///< a dump's size at kValueReserve a value
};

}  // namespace aetr::core
