// The config codec's fast paths pinned against the code they short-cut.
//
// keyio::shortest_text answers most values with format_g(v, 6) without
// running its precision/neighbour loop, and keyio::parse_double reads
// plain decimals with std::from_chars before falling back to std::strtod.
// Each is checked against a verbatim copy of the code it replaced: the
// dump text of every number binding (exact, scaled, time, frequency) over
// raw bit patterns, 6- and 7-digit decimals, the 999999.5 rounding edges
// and subnormals, each with its four-ulp neighbours; and the parse result
// and refusal message of the spellings from_chars leaves to strtod.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/key_schema.hpp"
#include "util/time.hpp"

namespace aetr::core {
namespace {

// --- the replaced code ------------------------------------------------------

/// keyio::shortest_text before its six-digit shortcut: the loop alone.
template <typename LoadsBack>
std::string loop_shortest_text(double v, LoadsBack&& loads_back) {
  double near[9] = {v};
  double up = v;
  double down = v;
  for (int i = 1; i <= 4; ++i) {
    near[2 * i - 1] = up = std::nextafter(up, HUGE_VAL);
    near[2 * i] = down = std::nextafter(down, -HUGE_VAL);
  }
  for (int precision = 6; precision <= 17; ++precision) {
    const std::string own = keyio::format_g(v, precision);
    for (const double candidate : near) {
      const std::string text =
          candidate == v ? own : keyio::format_g(candidate, precision);
      if (candidate != v && text == own) continue;  // already tried
      if (loads_back(std::strtod(text.c_str(), nullptr))) return text;
    }
  }
  return keyio::format_g(v, 17);
}

/// keyio::parse_double before its from_chars path.
double strtod_parse_double(const std::string& v, const std::string& key) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str()) {
    throw std::runtime_error("config: bad number for " + key + ": " + v);
  }
  if (end != v.c_str() + v.size()) {
    throw std::runtime_error("config: trailing junk for " + key + ": " + v);
  }
  if (!std::isfinite(d)) {
    throw std::runtime_error("config: non-finite number for " + key + ": " +
                             v);
  }
  return d;
}

// --- one single-key schema per number binding -------------------------------

struct Fields {
  double real{0.0};
  double scaled_micro{0.0};  // text / 1e6, as power.static_uw
  double scaled_milli{0.0};  // text / 1e3, as power.osc_domain_mw
  Time ns{Time::zero()};
  Time us{Time::zero()};
  Time ms{Time::zero()};
  Frequency mhz{Frequency::hz(1.0)};
};

/// The dump text of the single key `schema` holds.
std::string value_text(const KeySchema<Fields>& schema, const Fields& f) {
  std::string out;
  schema.entries().front().dump(out, f);
  return out;
}

/// Compares one binding's dump with loop_shortest_text under the
/// binding's own load rule; counts the values checked.
class Pinned {
 public:
  explicit Pinned(std::string name) : name_{std::move(name)} {}

  template <typename Setup, typename LoadsBack>
  void check(const KeySchema<Fields>& schema, Setup setup, double unit_value,
             LoadsBack loads_back) {
    Fields f;
    setup(f);
    const std::string got = value_text(schema, f);
    const std::string want = loop_shortest_text(unit_value, loads_back);
    ++checked_;
    if (got != want && ++mismatches_ <= 5) {
      ADD_FAILURE() << name_ << ": " << got << " != loop's " << want
                    << " for " << keyio::format_g(unit_value, 17);
    }
  }

  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }

 private:
  std::string name_;
  std::size_t checked_{0};
  std::size_t mismatches_{0};
};

/// Finite doubles drawn from every family the shortcut has to get right.
/// Decimals of up to six digits are the values it answers, and they are
/// cheap to check, so they come `short_count` at a time; each of the
/// `long_count` rounds adds the values the loop answers (raw bit patterns,
/// subnormals, 7-digit decimals, the 999999.5 rounding edges), and the
/// neighbours up to four ulps either side of one value of each family.
std::vector<double> sample_values(std::size_t short_count,
                                  std::size_t long_count) {
  std::mt19937_64 rng{20261019};
  const auto decimal = [&](std::uint64_t mantissa, int exp10) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llue%d",
                  static_cast<unsigned long long>(mantissa), exp10);
    return std::strtod(buf, nullptr);
  };
  const auto exp10 = [&] { return static_cast<int>(rng() % 61) - 40; };
  std::vector<double> out;
  for (std::size_t i = 0; i < short_count; ++i) {
    static constexpr std::uint64_t kLimit[] = {10,    100,    1000,
                                               10000, 100000, 1000000};
    out.push_back(decimal(rng() % kLimit[i % 6], exp10()));
  }
  const auto with_neighbours = [&](double v) {
    out.push_back(v);
    double up = v;
    double down = v;
    for (int k = 0; k < 4; ++k) {
      out.push_back(up = std::nextafter(up, HUGE_VAL));
      out.push_back(down = std::nextafter(down, -HUGE_VAL));
    }
  };
  for (std::size_t i = 0; i < long_count; ++i) {
    // Raw bit patterns (any sign, any exponent) and subnormals.
    if (const double raw = std::bit_cast<double>(rng()); std::isfinite(raw)) {
      out.push_back(raw);
    }
    out.push_back(std::bit_cast<double>(rng() & 0x800F'FFFF'FFFF'FFFFull));
    out.push_back(decimal(1000000 + rng() % 9000000, exp10()));
    // Where %.6g rounds up into the next power of ten: 999999.5 and
    // 9999995 scaled, and the values either side.
    const int e = exp10();
    out.push_back(decimal(9999995, e));
    out.push_back(decimal(9999994 + rng() % 3, e));
    out.push_back(decimal(999999, e));
    if (i % 8 == 0) {
      with_neighbours(decimal(1 + rng() % 999999, exp10()));
      with_neighbours(decimal(9999995, exp10()));
      with_neighbours(std::bit_cast<double>(rng() & 0x000F'FFFF'FFFF'FFFFull));
    }
  }
  return out;
}

TEST(KeyIo, ShortestTextMatchesTheLoopOnEveryBinding) {
  const auto get = [](auto member) {
    return [member](auto& c) -> auto& { return c.*member; };
  };
  KeySchema<Fields> real{"t"};
  real.real("real", get(&Fields::real));
  KeySchema<Fields> micro{"t"};
  micro.scaled("micro", get(&Fields::scaled_micro), 1e6);
  KeySchema<Fields> milli{"t"};
  milli.scaled("milli", get(&Fields::scaled_milli), 1e3);
  KeySchema<Fields> ns{"t"};
  ns.time("ns", get(&Fields::ns), keyio::kPsPerNs);
  KeySchema<Fields> us{"t"};
  us.time("us", get(&Fields::us), keyio::kPsPerUs);
  KeySchema<Fields> ms{"t"};
  ms.time("ms", get(&Fields::ms), keyio::kPsPerMs);
  KeySchema<Fields> mhz{"t"};
  mhz.frequency_mhz("mhz", get(&Fields::mhz));

  Pinned exact{"real"};
  Pinned scaled{"scaled"};
  Pinned time{"time"};
  Pinned frequency{"frequency_mhz"};

  // The time binding's load rule, in picoseconds.
  const auto time_loads_back = [](double ps_per_unit, Time t) {
    return [ps_per_unit, t](double parsed) {
      const double ps = parsed * ps_per_unit;
      return parsed >= 0.0 && ps < 0x1p63 &&
             Time::ps(static_cast<Time::Rep>(ps + 0.5)) == t;
    };
  };
  const auto check_time = [&](const KeySchema<Fields>& schema,
                              Time Fields::*member, double ps_per_unit,
                              Time t) {
    time.check(
        schema, [&](Fields& f) { f.*member = t; },
        static_cast<double>(t.count_ps()) / ps_per_unit,
        time_loads_back(ps_per_unit, t));
  };

  for (const double v : sample_values(110'000, 2'500)) {
    exact.check(
        real, [v](Fields& f) { f.real = v; }, v,
        [v](double parsed) { return parsed == v; });

    // A scaled field holds any double, and most often what a load
    // divides out of decimal text.
    for (const auto& [schema, member, per] :
         {std::tuple{&micro, &Fields::scaled_micro, 1e6},
          std::tuple{&milli, &Fields::scaled_milli, 1e3}}) {
      for (const double field : {v, v / per}) {
        if (!std::isfinite(field * per)) continue;
        const auto m = member;
        const double unit = per;
        scaled.check(
            *schema, [m, field](Fields& f) { f.*m = field; }, field * unit,
            [field, unit](double parsed) { return parsed / unit == field; });
      }
    }

    const double mag = std::abs(v);
    for (const auto& [schema, member, per] :
         {std::tuple{&ns, &Fields::ns, keyio::kPsPerNs},
          std::tuple{&us, &Fields::us, keyio::kPsPerUs},
          std::tuple{&ms, &Fields::ms, keyio::kPsPerMs}}) {
      // What a load of the value's text in this unit stores.
      if (mag * per < 0x1p63) {
        check_time(*schema, member, per,
                   Time::ps(static_cast<Time::Rep>(mag * per + 0.5)));
      }
    }

    const double hz = mag * 1e6;
    if (mag > 0.0 && std::isfinite(hz) && 1.0 / hz * 1e12 < 0x1p63) {
      const Frequency f = Frequency::mhz(mag);
      frequency.check(
          mhz, [f](Fields& x) { x.mhz = f; }, f.to_mhz(),
          [f](double parsed) {
            const double h = parsed * 1e6;
            return parsed > 0.0 && std::isfinite(h) &&
                   1.0 / h * 1e12 < 0x1p63 &&
                   Frequency::mhz(parsed).to_hz() == f.to_hz();
          });
    }
  }

  // Picosecond counts of every width, as stored rather than as loaded.
  std::mt19937_64 rng{7};
  for (int i = 0; i < 20'000; ++i) {
    const auto count = static_cast<Time::Rep>(rng() >> (1 + rng() % 63));
    check_time(ns, &Fields::ns, keyio::kPsPerNs, Time::ps(count));
    check_time(us, &Fields::us, keyio::kPsPerUs, Time::ps(count));
    check_time(ms, &Fields::ms, keyio::kPsPerMs, Time::ps(count));
  }

  for (const Pinned* p : {&exact, &scaled, &time, &frequency}) {
    EXPECT_EQ(p->mismatches(), 0u);
  }
  EXPECT_GE(exact.checked() + scaled.checked() + time.checked() +
                frequency.checked(),
            1'000'000u);
}

TEST(KeyIo, ParseDoubleAcceptsAndRefusesAsStrtod) {
  std::vector<std::string> spellings = {
      "+5",  "0x10", ".5",   "5.",   "1e-320", "1e-400", "1e400", "inf",
      "nan", "",     "-0",   "-.5e3", "1e",   "5 ",    " 5",    "\v5",
      "5x",  "0x1p-1074", "4.9e-324", "2.4703282292062327e-324",
      "1.7976931348623157e308", "1.7976931348623159e308", "-nan", "INF",
      "infinity", "0.1", "123456.7890123", "1e-5", "00012", "-"};
  // Every 17-digit rendering of a random double reads back as strtod
  // reads it.
  std::mt19937_64 rng{11};
  for (int i = 0; i < 2000; ++i) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) spellings.push_back(keyio::format_g(d, 17));
  }
  for (const std::string& s : spellings) {
    std::string want_error;
    double want = 0.0;
    try {
      want = strtod_parse_double(s, "k");
    } catch (const std::runtime_error& e) {
      want_error = e.what();
    }
    try {
      const double got = keyio::parse_double(s, "k");
      EXPECT_TRUE(want_error.empty()) << '"' << s << "\" accepted";
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << '"' << s << '"';
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), want_error) << '"' << s << '"';
    }
  }
}

}  // namespace
}  // namespace aetr::core
