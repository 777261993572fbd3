// Mutation fuzzer over dump_scenario() text, the bytes a gateway client
// sends in its HELLO. The corpus mutates a dump by byte flips, truncation
// at every line (and mid-line), duplicated keys, and hostile numbers (NaN,
// infinities, negatives, huge and subnormal values, the 2^32 and 2^64
// edges) on every key. Each input must either be refused with
// std::runtime_error or std::invalid_argument, or load a config that
// validates and whose dump loads back to the same bytes. The same corpus
// then goes through HELLO on an in-process net::Connection: the reply is a
// NACK or a HELLO_ACK (the latter only for text that loads, fingerprinting
// its canonical dump), and no exception leaves on_bytes(). Every input,
// also with CRLF line ends and without its final newline, loads from a
// stream and from text exactly as the std::getline parser that preceded
// the in-memory one loaded it: same config, same refusal message.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <istream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/key_schema.hpp"
#include "core/scenario.hpp"
#include "net/connection.hpp"
#include "net/wire.hpp"

namespace {

using namespace aetr;

/// Byte offsets at which each line of `text` starts.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

/// The unmutated inputs: the default dump, and one whose values need
/// every digit.
std::vector<std::string> bases() {
  core::ScenarioConfig varied;
  varied.interface.clock.ring_frequency = Frequency::mhz(118.7654321);
  varied.interface.calibration.static_w = 47.123456789e-6;
  varied.sender.min_gap = Time::ps(10'123);
  varied.faults.aer.drop_req_prob = 0.123456789;
  varied.faults.seed = 18446744073709551615u;
  return {core::dump_scenario(core::ScenarioConfig{}),
          core::dump_scenario(varied)};
}

std::vector<std::string> corpus() {
  std::vector<std::string> out;
  std::mt19937_64 rng{0xC0FF1C};
  for (const std::string& base : bases()) {
    out.push_back(base);
    const auto starts = line_starts(base);
    for (const std::size_t at : starts) {
      out.push_back(base.substr(0, at));  // truncated at a line
      const std::size_t eol = base.find('\n', at);
      out.push_back(base.substr(0, at + (eol - at) / 2));  // and mid-line
    }
    const auto line_at = [&](std::size_t i) {
      return base.substr(starts[i], base.find('\n', starts[i]) - starts[i]);
    };
    for (std::size_t i = 0; i < starts.size(); ++i) {
      const std::string line = line_at(i);
      const auto eq = line.find(" = ");
      if (eq == std::string::npos) continue;
      const std::string key = line.substr(0, eq);
      // The key again, verbatim and with another line's value (the last
      // assignment wins).
      out.push_back(base + line + "\n");
      const std::string other = line_at((i + 7) % starts.size());
      if (const auto other_eq = other.find(" = ");
          other_eq != std::string::npos) {
        out.push_back(base + key + other.substr(other_eq) + "\n");
      }
      const std::size_t at = starts[i];
      const std::size_t eol = at + line.size();
      for (const char* bad :
           {"nan", "inf", "-inf", "-1", "-0", "0", "-1e-3", "1e300",
            "-1e300", "1e19", "4294967296", "18446744073709551616",
            "18446744073709551615", "1e-320", "4.9e-324", "0x10", "1e",
            ""}) {
        out.push_back(base.substr(0, at) + key + " = " + bad +
                      base.substr(eol));
      }
    }
    for (int i = 0; i < 600; ++i) {
      std::string flipped = base;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        flipped[rng() % flipped.size()] ^=
            static_cast<char>(1 + rng() % 255);
      }
      out.push_back(std::move(flipped));
    }
  }
  return out;
}

/// Loads `text`, or returns false when it is refused with one of the two
/// documented exception types.
bool loads(const std::string& text, core::ScenarioConfig& out) {
  std::istringstream is{text};
  try {
    out = core::load_scenario(is);
    return true;
  } catch (const std::invalid_argument&) {
  } catch (const std::runtime_error&) {
  }
  return false;
}

TEST(ConfigFuzz, EveryMutationIsRefusedOrRoundTrips) {
  for (const auto& base : bases()) {
    core::ScenarioConfig config;
    ASSERT_TRUE(loads(base, config)) << base;
    EXPECT_EQ(core::dump_scenario(config), base);
  }
  std::size_t loaded = 0;
  std::size_t refused = 0;
  for (const auto& text : corpus()) {
    core::ScenarioConfig config;
    bool ok = false;
    ASSERT_NO_THROW(ok = loads(text, config)) << text;
    if (!ok) {
      ++refused;
      continue;
    }
    ++loaded;
    const std::string once = core::dump_scenario(config);
    core::ScenarioConfig again;
    ASSERT_TRUE(loads(once, again)) << once;
    EXPECT_NO_THROW(again.validate());
    ASSERT_EQ(core::dump_scenario(again), once) << text;
  }
  // Both outcomes are exercised.
  EXPECT_GT(loaded, 500u);
  EXPECT_GT(refused, 500u);
}

/// The line parser before keyio::parse_text: std::getline over a stream,
/// std::string trims.
std::string getline_trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

core::ScenarioConfig getline_load(const std::string& text) {
  core::ScenarioConfig scenario;
  std::istringstream is{text};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string stripped = getline_trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("config: line " + std::to_string(line_no) +
                               " is not 'key = value': " + stripped);
    }
    core::scenario_schema().apply(scenario,
                                  getline_trim(stripped.substr(0, eq)),
                                  getline_trim(stripped.substr(eq + 1)),
                                  line_no);
  }
  scenario.validate();
  return scenario;
}

/// The canonical dump of what `load` makes of the text, or the refusal.
std::string outcome(const std::function<core::ScenarioConfig()>& load) {
  try {
    return core::dump_scenario(load());
  } catch (const std::invalid_argument& e) {
    return std::string{"invalid_argument: "} + e.what();
  } catch (const std::runtime_error& e) {
    return std::string{"runtime_error: "} + e.what();
  }
}

TEST(ConfigFuzz, StreamAndTextLoadAsTheGetlineParser) {
  std::size_t refused = 0;
  for (const auto& text : corpus()) {
    std::string crlf;
    for (const char c : text) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    std::string unterminated = text;
    if (!unterminated.empty() && unterminated.back() == '\n') {
      unterminated.pop_back();
    }
    for (const std::string& input : {text, crlf, unterminated}) {
      const std::string want = outcome([&] { return getline_load(input); });
      ASSERT_EQ(outcome([&] { return core::load_scenario_text(input); }),
                want)
          << input;
      ASSERT_EQ(outcome([&] {
                  std::istringstream is{input};
                  return core::load_scenario(is);
                }),
                want)
          << input;
      if (want.rfind("runtime_error: config: line ", 0) == 0) ++refused;
    }
  }
  // Malformed lines are refused with their line number.
  EXPECT_GT(refused, 100u);
}

TEST(ConfigFuzz, HelloRepliesNackOrAckAndNeverThrows) {
  const net::GatewayConfig gateway;
  std::size_t acks = 0;
  std::size_t nacks = 0;
  for (const auto& text : corpus()) {
    std::vector<net::Frame> replies;
    net::Decoder replies_in;
    net::Connection conn{gateway, 1, [&](const std::vector<std::uint8_t>& b) {
                           replies_in.feed(b);
                           while (auto f = replies_in.next()) {
                             replies.push_back(*f);
                           }
                         }};
    net::Hello hello;
    hello.session_name = "fuzz";
    hello.config_text = text;
    ASSERT_NO_THROW(
        (void)conn.on_bytes(net::encode_frame(net::MsgType::kHello, 0,
                                              net::encode_hello(hello))))
        << text;
    ASSERT_EQ(replies.size(), 1u) << text;
    core::ScenarioConfig config;
    const bool ok = text.empty() || loads(text, config);
    if (replies[0].type == net::MsgType::kHelloAck) {
      ++acks;
      ASSERT_TRUE(ok) << "accepted a config load_scenario refuses:\n"
                      << text;
      EXPECT_EQ(net::decode_hello_ack(replies[0].payload).config_fingerprint,
                net::config_fingerprint(core::dump_scenario(config)));
    } else {
      ++nacks;
      ASSERT_EQ(replies[0].type, net::MsgType::kNack) << text;
      EXPECT_EQ(conn.state(), net::Connection::State::kError);
    }
  }
  EXPECT_GT(acks, 500u);
  EXPECT_GT(nacks, 500u);
}

}  // namespace
