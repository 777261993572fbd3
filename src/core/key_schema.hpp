// Declarative "key = value" schema registry.
//
// One KeySchema<Config> describes everything a textual config namespace
// needs in a single table: how each key parses into the config struct, how
// it dumps back out (registration order == dump order, so dump -> load ->
// dump stays byte-identical), and the known-key list that feeds unknown-key
// rejection with did-you-mean suggestions.
//
// Layered formats compose instead of re-implementing fall-through:
// extend() grafts a complete inner schema through an accessor, so the
// scenario schema embeds every interface key (applied to
// scenario.interface) and the fleet schema embeds every scenario key
// (applied to config.base). core/config_io.cpp, fleet/fleet_io.cpp, and
// opt's SearchSpace axis validation all share these tables.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace aetr::core {

/// Shared value-parsing and key-suggestion helpers for KeySchema tables.
namespace keyio {

inline std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

inline bool parse_bool(const std::string& v, const std::string& key) {
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  throw std::runtime_error("config: bad boolean for " + key + ": " + v);
}

inline double parse_double(const std::string& v, const std::string& key) {
  std::size_t pos = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error("config: bad number for " + key + ": " + v);
  }
  if (pos != v.size()) {
    throw std::runtime_error("config: trailing junk for " + key + ": " + v);
  }
  // std::stod reads "nan" and "inf"; no key means either.
  if (!std::isfinite(d)) {
    throw std::runtime_error("config: non-finite number for " + key + ": " +
                             v);
  }
  return d;
}

inline std::uint64_t parse_uint(const std::string& v, const std::string& key) {
  const double d = parse_double(v, key);
  if (d < 0.0 || d != std::floor(d)) {
    throw std::runtime_error("config: expected non-negative integer for " +
                             key + ": " + v);
  }
  // 2^64 is the first double the cast below cannot represent.
  if (d >= 18446744073709551616.0) {
    throw std::runtime_error("config: integer out of range for " + key +
                             ": " + v);
  }
  return static_cast<std::uint64_t>(d);
}

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
  using Dump = std::function<void(std::ostream&, const Config&)>;

  struct Entry {
    std::string key;      ///< canonical key ("" for comment rows)
    Apply apply;          ///< parse + assign into the config
    Dump dump;            ///< write the current value (no key, no newline)
    std::string comment;  ///< dump-only comment row when key is empty
  };

  /// `context` prefixes diagnostics ("config", "fleet config", ...).
  explicit KeySchema(std::string context) : context_{std::move(context)} {}

  /// Register a key. Registration order is dump order.
  KeySchema& add(std::string key, Apply apply, Dump dump) {
    index_.emplace(key, entries_.size());
    entries_.push_back(
        Entry{std::move(key), std::move(apply), std::move(dump), {}});
    return *this;
  }

  /// Register a dump-only comment row ("# <text>") at this position.
  KeySchema& comment(std::string text) {
    entries_.push_back(Entry{{}, {}, {}, std::move(text)});
    return *this;
  }

  /// Graft a complete inner schema: every inner key applies through
  /// `mut` / dumps through `view`, inner comment rows carry over. This is
  /// how layered formats share one table instead of re-implementing key
  /// fall-through.
  template <typename Inner>
  KeySchema& extend(const KeySchema<Inner>& inner,
                    std::function<Inner&(Config&)> mut,
                    std::function<const Inner&(const Config&)> view) {
    for (const auto& e : inner.entries()) {
      if (e.key.empty()) {
        comment(e.comment);
        continue;
      }
      Dump dump;
      if (e.dump) {
        dump = [view, inner_dump = e.dump](std::ostream& os, const Config& c) {
          inner_dump(os, view(c));
        };
      }
      add(e.key,
          [mut, inner_apply = e.apply](Config& c, const std::string& v) {
            inner_apply(mut(c), v);
          },
          std::move(dump));
    }
    return *this;
  }

  /// True when `key` is a registered key.
  [[nodiscard]] bool known(const std::string& key) const {
    return index_.count(key) != 0;
  }

  /// Apply one assignment; returns false when the key is unknown.
  bool try_apply(Config& config, const std::string& key,
                 const std::string& value) const {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    entries_[it->second].apply(config, value);
    return true;
  }

  /// Apply one assignment; throws "<context>: unknown key [at line N]:
  /// <key>" with a did-you-mean hint when the key is unknown.
  void apply(Config& config, const std::string& key, const std::string& value,
             std::size_t line_no = 0) const {
    if (!try_apply(config, key, value)) throw_unknown(key, line_no);
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

  /// Emit every entry in registration order: comment rows as "# <text>",
  /// keys as "key = <value>". Byte-compatible with the hand-written
  /// dumpers this replaces.
  void dump(std::ostream& os, const Config& config) const {
    for (const auto& e : entries_) {
      if (e.key.empty()) {
        os << "# " << e.comment << '\n';
      } else if (e.dump) {
        os << e.key << " = ";
        e.dump(os, config);
        os << '\n';
      }
    }
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const std::string& context() const { return context_; }

 private:
  std::string context_;
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace aetr::core
