// aetr::net wire codec + connection state machine, sockets excluded.
//
// The codec is pure (bytes in, frames out), so every protocol-abuse case
// the ISSUE names — truncated frames, corrupted CRC, oversized length
// prefixes, interleaved control/data, garbage before HELLO — is driven
// here with crafted byte vectors and must be rejected without crashing or
// desyncing. The fuzz loops run under the ASan/UBSan preset like the rest
// of the suite (cmake --preset sanitize).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/config_io.hpp"
#include "gen/sources.hpp"
#include "i2s/framing.hpp"
#include "net/connection.hpp"
#include "net/wire.hpp"
#include "util/blob.hpp"

namespace {

using namespace aetr;
using namespace aetr::net;

aer::EventStream test_stream(std::size_t n, std::uint64_t seed = 7) {
  gen::PoissonSource source{50e3, 256, seed};
  return gen::take(source, n);
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// --- CRC ---------------------------------------------------------------------

TEST(NetCrc, MatchesTheStandardCheckValue) {
  // The canonical IEEE CRC-32 check: crc32("123456789") == 0xCBF43926.
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc32_bytes(data), 0xCBF43926u);
}

TEST(NetCrc, EmptyInput) { EXPECT_EQ(crc32_bytes(nullptr, 0), 0u); }

TEST(NetCrc, AgreesWithTheWordCrcOnWholeWords) {
  // Same polynomial and byte order as i2s::crc32_words: hashing a word
  // buffer byte-wise (LE expansion) must give the word CRC, so the two
  // transports' CRCs are one algorithm, not two.
  const std::vector<std::uint32_t> words{0x00000001u, 0xDEADBEEFu,
                                         0x12345678u};
  std::vector<std::uint8_t> raw;
  for (const auto w : words) {
    for (int i = 0; i < 4; ++i) {
      raw.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
    }
  }
  EXPECT_EQ(crc32_bytes(raw), i2s::crc32_words(words));
}

// --- frame round trips -------------------------------------------------------

TEST(NetFrame, RoundTripsEveryMessageType) {
  Decoder dec;

  Hello hello;
  hello.session_name = "alpha";
  hello.config_text = "sender.min_gap_ns = 5\n";
  dec.feed(encode_frame(MsgType::kHello, 0, encode_hello(hello)));

  HelloAck ack;
  ack.config_fingerprint = 0x1122334455667788ull;
  ack.events_fed = 42;
  ack.position_ps = 123456789;
  ack.credit = 4096;
  dec.feed(encode_frame(MsgType::kHelloAck, 3, encode_hello_ack(ack)));

  const auto stream = test_stream(100);
  dec.feed(encode_frame(MsgType::kData, 3, encode_data(stream, 0, 100)));
  dec.feed(encode_frame(MsgType::kCredit, 3, encode_credit(Credit{100})));
  dec.feed(encode_frame(MsgType::kNack, 3, encode_nack(Nack{"nope"})));
  dec.feed(encode_frame(MsgType::kSnapshotReq, 3, {}));
  dec.feed(encode_frame(MsgType::kSnapshotAck, 3,
                        encode_snapshot_ack(SnapshotAck{77, 88})));
  dec.feed(encode_frame(MsgType::kDrain, 3, {}));
  dec.feed(encode_frame(MsgType::kSummary, 3,
                        encode_summary(Summary{"events_in = 1\n"})));
  dec.feed(encode_frame(MsgType::kBye, 3, {}));

  auto f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, MsgType::kHello);
  EXPECT_EQ(f->session_id, 0);
  const Hello h = decode_hello(f->payload);
  EXPECT_EQ(h.protocol_version, kProtocolVersion);
  EXPECT_EQ(h.session_name, "alpha");
  EXPECT_EQ(h.config_text, "sender.min_gap_ns = 5\n");

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, MsgType::kHelloAck);
  EXPECT_EQ(f->session_id, 3);
  const HelloAck a = decode_hello_ack(f->payload);
  EXPECT_EQ(a.config_fingerprint, ack.config_fingerprint);
  EXPECT_EQ(a.events_fed, 42u);
  EXPECT_EQ(a.position_ps, 123456789);
  EXPECT_EQ(a.credit, 4096u);

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, MsgType::kData);
  EXPECT_EQ(decode_data(f->payload), stream);

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(decode_credit(f->payload).grant, 100u);

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(decode_nack(f->payload).reason, "nope");

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, MsgType::kSnapshotReq);
  EXPECT_TRUE(f->payload.empty());

  f = dec.next();
  ASSERT_TRUE(f);
  const SnapshotAck s = decode_snapshot_ack(f->payload);
  EXPECT_EQ(s.position_ps, 77);
  EXPECT_EQ(s.blob_bytes, 88u);

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, MsgType::kDrain);

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(decode_summary(f->payload).text, "events_in = 1\n");

  f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, MsgType::kBye);

  EXPECT_FALSE(dec.next());
  EXPECT_FALSE(dec.failed());
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(NetFrame, ReassemblesAcrossArbitrarySplits) {
  const auto stream = test_stream(257);
  const auto frame =
      encode_frame(MsgType::kData, 9, encode_data(stream, 0, 257));
  // Byte-at-a-time is the worst case; a frame must pop out exactly when its
  // final CRC byte lands and not one byte earlier.
  Decoder dec;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    dec.feed(&frame[i], 1);
    if (i + 1 < frame.size()) {
      EXPECT_FALSE(dec.next()) << "frame surfaced early at byte " << i;
    }
  }
  const auto f = dec.next();
  ASSERT_TRUE(f);
  EXPECT_EQ(decode_data(f->payload), stream);
}

TEST(NetFrame, FeedFramesParsesInPlaceAndCopiesOnlyTheTail) {
  const auto stream = test_stream(96);
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> bytes;
  for (std::size_t k = 0; k < 3; ++k) {
    frames.push_back(
        encode_frame(MsgType::kData, 1, encode_data(stream, 32 * k, 32)));
    bytes.insert(bytes.end(), frames.back().begin(), frames.back().end());
  }
  const auto payload_of = [&](std::size_t k) {
    return std::vector<std::uint8_t>(frames[k].begin() + kHeaderSize,
                                     frames[k].end() - 4);
  };
  const auto inside = [](const FrameView& f, const std::uint8_t* from,
                         std::size_t size) {
    return f.payload >= from && f.payload + f.payload_size <= from + size;
  };

  // Two whole frames are read where they lie; the third, cut short, is
  // the only copy, and the next call completes it in the decoder's buffer.
  Decoder dec;
  const std::size_t cut = bytes.size() - 5;
  std::vector<std::vector<std::uint8_t>> seen;
  ASSERT_TRUE(dec.feed_frames(bytes.data(), cut, [&](const FrameView& f) {
    EXPECT_TRUE(inside(f, bytes.data(), cut)) << "frame " << seen.size();
    seen.emplace_back(f.payload, f.payload + f.payload_size);
    return true;
  }));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(dec.pending_bytes(), frames[2].size() - 5);
  const std::vector<std::uint8_t> tail(
      bytes.begin() + static_cast<std::ptrdiff_t>(cut), bytes.end());
  ASSERT_TRUE(
      dec.feed_frames(tail.data(), tail.size(), [&](const FrameView& f) {
        EXPECT_FALSE(inside(f, tail.data(), tail.size()));
        seen.emplace_back(f.payload, f.payload + f.payload_size);
        return true;
      }));
  ASSERT_EQ(seen.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(seen[k], payload_of(k));
  EXPECT_EQ(dec.pending_bytes(), 0u);

  // A handler that stops, or throws, leaves the rest of its bytes
  // buffered, in order.
  for (const bool throws : {false, true}) {
    Decoder d;
    const auto first = [throws](const FrameView&) -> bool {
      if (throws) throw std::runtime_error("handler");
      return false;
    };
    if (throws) {
      EXPECT_THROW(d.feed_frames(bytes.data(), bytes.size(), first),
                   std::runtime_error);
    } else {
      EXPECT_TRUE(d.feed_frames(bytes.data(), bytes.size(), first));
    }
    EXPECT_EQ(d.pending_bytes(), frames[1].size() + frames[2].size());
    for (std::size_t k = 1; k < 3; ++k) {
      const auto f = d.next();
      ASSERT_TRUE(f) << "frame " << k;
      EXPECT_EQ(f->payload, payload_of(k));
    }
  }
}

TEST(NetFrame, TruncatedFrameNeverSurfaces) {
  const auto stream = test_stream(64);
  const auto frame =
      encode_frame(MsgType::kData, 1, encode_data(stream, 0, 64));
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    Decoder dec;
    dec.feed(frame.data(), cut);
    EXPECT_FALSE(dec.next()) << "truncation at " << cut;
    EXPECT_FALSE(dec.failed()) << "truncation at " << cut;
  }
}

TEST(NetFrame, CorruptedCrcIsTerminal) {
  const auto stream = test_stream(32);
  auto frame = encode_frame(MsgType::kData, 1, encode_data(stream, 0, 32));
  frame.back() ^= 0x01;
  Decoder dec;
  dec.feed(frame);
  EXPECT_FALSE(dec.next());
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("CRC"), std::string::npos);
  // Terminal: even a pristine frame afterwards is refused (no resync).
  EXPECT_FALSE(dec.feed(encode_frame(MsgType::kDrain, 1, {})));
  EXPECT_FALSE(dec.next());
}

TEST(NetFrame, EveryCorruptedByteIsRejectedOrDetected) {
  // Flip each byte of a valid frame in turn: the decoder must either fail
  // (header/CRC damage) or deliver a frame whose typed decode throws —
  // never crash, never return silently corrupted events... except for
  // payload bytes whose flip still decodes to in-range values, which the
  // CRC would have caught had the trailer not been refreshed. Here the CRC
  // is NOT refreshed, so every payload flip must be a CRC failure.
  const auto stream = test_stream(16);
  const auto good = encode_frame(MsgType::kData, 1, encode_data(stream, 0, 16));
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto bad = good;
    bad[i] ^= 0x40;
    Decoder dec;
    dec.feed(bad);
    const auto f = dec.next();
    if (f) {
      // Only possible if the flip left magic/type/len/CRC consistent —
      // a single-bit flip cannot, so reaching here means the decoder and
      // CRC disagree.
      ADD_FAILURE() << "corrupted byte " << i << " went undetected";
    } else {
      EXPECT_TRUE(dec.failed() || dec.pending_bytes() > 0);
    }
  }
}

TEST(NetFrame, OversizedLengthPrefixIsTerminal) {
  // Hand-build a header claiming a payload beyond kMaxPayload; the decoder
  // must fail on the header alone instead of waiting for 4 GiB.
  std::vector<std::uint8_t> raw;
  const auto put32 = [&raw](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      raw.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put32(kMagic);
  raw.push_back(static_cast<std::uint8_t>(MsgType::kData));
  raw.push_back(0);
  raw.push_back(0);
  raw.push_back(0);
  put32(static_cast<std::uint32_t>(kMaxPayload) + 1);
  Decoder dec;
  dec.feed(raw);
  EXPECT_FALSE(dec.next());
  EXPECT_TRUE(dec.failed());
  EXPECT_NE(dec.error().find("oversized"), std::string::npos);
}

TEST(NetFrame, EncoderRefusesOversizedPayload) {
  const std::vector<std::uint8_t> huge(kMaxPayload + 1, 0);
  EXPECT_THROW(encode_frame(MsgType::kSummary, 0, huge),
               std::invalid_argument);
}

TEST(NetFrame, BadMagicIsTerminal) {
  Decoder dec;
  dec.feed(bytes_of("GET / HTTP/1.1\r\n"));
  EXPECT_FALSE(dec.next());
  EXPECT_TRUE(dec.failed());
}

TEST(NetFrame, UnknownTypeAndReservedByteAreTerminal) {
  auto frame = encode_frame(MsgType::kDrain, 0, {});
  frame[4] = 0xEE;  // type nobody speaks
  Decoder dec1;
  dec1.feed(frame);
  EXPECT_FALSE(dec1.next());
  EXPECT_TRUE(dec1.failed());

  auto frame2 = encode_frame(MsgType::kDrain, 0, {});
  frame2[5] = 1;  // reserved byte
  Decoder dec2;
  dec2.feed(frame2);
  EXPECT_FALSE(dec2.next());
  EXPECT_TRUE(dec2.failed());
}

TEST(NetFrame, TypedDecodersRejectTrailingBytes) {
  auto payload = encode_credit(Credit{5});
  payload.push_back(0);
  EXPECT_THROW((void)decode_credit(payload), std::runtime_error);

  auto hello = encode_hello(Hello{kProtocolVersion, "a", ""});
  hello.push_back(1);
  EXPECT_THROW((void)decode_hello(hello), std::runtime_error);
}

TEST(NetFrame, TypedDecodersRejectTruncation) {
  const auto stream = test_stream(8);
  const auto payload = encode_data(stream, 0, 8);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> part(payload.begin(),
                                         payload.begin() +
                                             static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_data(part), std::runtime_error) << cut;
  }
}

TEST(NetFrame, DataDecodeRejectsOutOfRangeAddress) {
  aer::EventStream events{{aer::Event{aer::kAddressMask, Time::us(1)}}};
  auto payload = encode_data(events, 0, 1);
  // Patch the address field (first event, right after the u32 count) to
  // exceed the 10-bit bus.
  payload[4] = 0xFF;
  payload[5] = 0xFF;
  EXPECT_THROW((void)decode_data(payload), std::runtime_error);
}

/// The per-field BlobReader DATA decoder the span decoder replaced: the
/// reference for which payloads are rejected, and with what message.
aer::EventStream reference_decode_data(const std::vector<std::uint8_t>& p) {
  BlobReader r{p};
  const std::uint32_t count = r.u32();
  if (count > kMaxEventsPerFrame) {
    throw std::runtime_error("net: DATA count exceeds kMaxEventsPerFrame");
  }
  aer::EventStream events;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t address = r.u16();
    const std::int64_t t_ps = r.i64();
    if (address > aer::kAddressMask) {
      throw std::runtime_error("net: DATA address out of range");
    }
    events.push_back(aer::Event{address, Time::ps(t_ps)});
  }
  if (!r.done()) throw std::runtime_error("net: trailing bytes after DATA");
  return events;
}

/// "" when the payload decodes, else the exception message.
template <typename Decode>
std::string outcome(Decode&& decode, aer::EventStream& out) {
  try {
    decode(out);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Hostile DATA payloads: truncated at every byte, trailing bytes, lying
/// counts, out-of-range addresses (alone and before a cut), random damage.
std::vector<std::vector<std::uint8_t>> hostile_data_corpus() {
  const auto stream = test_stream(20);
  const auto good = encode_data(stream, 0, stream.size());
  std::vector<std::vector<std::uint8_t>> corpus{
      {}, encode_data(stream, 0, 0), encode_data(stream, 0, 1), good};
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    corpus.emplace_back(good.begin(),
                        good.begin() + static_cast<std::ptrdiff_t>(cut));
  }
  for (std::size_t extra = 1; extra <= 12; ++extra) {
    auto p = good;
    p.resize(p.size() + extra, 0xA5);
    corpus.push_back(p);
  }
  for (const std::uint32_t count :
       {0u, 19u, 21u, static_cast<std::uint32_t>(kMaxEventsPerFrame),
        static_cast<std::uint32_t>(kMaxEventsPerFrame + 1), 0xFFFFFFFFu}) {
    auto p = good;
    for (int i = 0; i < 4; ++i) {
      p[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(count >> (8 * i));
    }
    corpus.push_back(p);
  }
  for (const std::size_t event : {0u, 9u, 19u}) {
    auto p = good;
    p[4 + 10 * event] = 0x00;
    p[5 + 10 * event] = 0x04;  // address 1024: one past the 10-bit bus
    corpus.push_back(p);
    for (const std::size_t cut : {p.size() - 1, 4 + 10 * event + 1,
                                  4 + 10 * event + 10, 4 + 10 * event + 12}) {
      corpus.emplace_back(p.begin(),
                          p.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(cut, p.size())));
    }
  }
  std::mt19937 rng{31};
  std::uniform_int_distribution<std::size_t> pos{0, good.size() - 1};
  std::uniform_int_distribution<int> byte{0, 255};
  for (int iter = 0; iter < 500; ++iter) {
    auto p = good;
    for (int hits = 0; hits < 2; ++hits) {
      p[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    corpus.push_back(p);
  }
  return corpus;
}

TEST(NetFrame, SpanDecoderMatchesThePerFieldDecoderOnHostilePayloads) {
  // decode_data_into (one bounds check per payload, reused buffer) and its
  // decode_data wrapper accept exactly what the per-field decoder accepts,
  // with the same events, and reject the rest with the same message.
  aer::EventStream reused(7, aer::Event{3, Time::us(1)});  // stale contents
  std::size_t rejected = 0;
  for (const auto& p : hostile_data_corpus()) {
    aer::EventStream want;
    const std::string want_error = outcome(
        [&p](aer::EventStream& out) { out = reference_decode_data(p); }, want);
    aer::EventStream wrapped;
    const std::string wrapped_error = outcome(
        [&p](aer::EventStream& out) { out = decode_data(p); }, wrapped);
    const std::string span_error = outcome(
        [&p](aer::EventStream& out) {
          decode_data_into(p.data(), p.size(), out);
        },
        reused);
    ASSERT_EQ(wrapped_error, want_error) << "payload size " << p.size();
    ASSERT_EQ(span_error, want_error) << "payload size " << p.size();
    if (want_error.empty()) {
      EXPECT_EQ(wrapped, want);
      EXPECT_EQ(reused, want);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 100u);
}

TEST(NetFrame, RandomGarbageNeverCrashesTheDecoder) {
  std::mt19937 rng{20260809};
  std::uniform_int_distribution<int> byte{0, 255};
  std::uniform_int_distribution<std::size_t> len{0, 512};
  for (int iter = 0; iter < 2000; ++iter) {
    Decoder dec;
    std::vector<std::uint8_t> junk(len(rng));
    for (auto& b : junk) b = static_cast<std::uint8_t>(byte(rng));
    dec.feed(junk);
    while (dec.next()) {
    }
    // Either waiting for more bytes or failed — never crashed, and a
    // random 12+-byte prefix essentially never spells the magic.
    if (junk.size() >= kHeaderSize && !dec.failed()) {
      EXPECT_EQ(std::memcmp(junk.data(), "\x4E\x45\x54\x41", 4), 0);
    }
  }
}

TEST(NetFrame, RandomlyCorruptedValidStreamsNeverCrash) {
  std::mt19937 rng{42};
  std::uniform_int_distribution<int> byte{0, 255};
  const auto stream = test_stream(50);
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 5; ++i) {
    const auto f =
        encode_frame(MsgType::kData, 1, encode_data(stream, 0, stream.size()));
    wire.insert(wire.end(), f.begin(), f.end());
  }
  std::uniform_int_distribution<std::size_t> pos{0, wire.size() - 1};
  for (int iter = 0; iter < 500; ++iter) {
    auto bad = wire;
    for (int hits = 0; hits < 3; ++hits) {
      bad[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    Decoder dec;
    dec.feed(bad);
    while (auto f = dec.next()) {
      try {
        (void)decode_data(f->payload);
      } catch (const std::runtime_error&) {
        // Malformed payload surfaced as an exception: fine.
      }
    }
  }
}

// --- connection state machine -----------------------------------------------

struct Harness {
  GatewayConfig config;
  std::vector<Frame> sent;
  std::unique_ptr<Connection> conn;
  Decoder out;

  explicit Harness(GatewayConfig cfg = {}) : config{std::move(cfg)} {
    conn = std::make_unique<Connection>(
        config, 1, [this](const std::vector<std::uint8_t>& b) {
          out.feed(b);
          while (auto f = out.next()) sent.push_back(*f);
        });
  }

  bool push(MsgType type, const std::vector<std::uint8_t>& payload) {
    return conn->on_bytes(encode_frame(type, 0, payload));
  }

  bool hello(const std::string& name, const std::string& config_text = "") {
    Hello h;
    h.session_name = name;
    h.config_text = config_text;
    return push(MsgType::kHello, encode_hello(h));
  }

  [[nodiscard]] const Frame& last() const { return sent.back(); }
};

TEST(NetConnection, GarbageBeforeHelloIsNackedAndClosed) {
  Harness h;
  const auto junk = bytes_of("not a frame at all, definitely not");
  EXPECT_FALSE(h.conn->on_bytes(junk));
  EXPECT_EQ(h.conn->state(), Connection::State::kError);
  ASSERT_FALSE(h.sent.empty());
  EXPECT_EQ(h.last().type, MsgType::kNack);
  EXPECT_NE(decode_nack(h.last().payload).reason.find("framing"),
            std::string::npos);
}

TEST(NetConnection, DataBeforeHelloIsNacked) {
  Harness h;
  const auto stream = test_stream(4);
  EXPECT_FALSE(h.push(MsgType::kData, encode_data(stream, 0, 4)));
  EXPECT_EQ(h.conn->state(), Connection::State::kError);
  EXPECT_EQ(h.last().type, MsgType::kNack);
  EXPECT_NE(decode_nack(h.last().payload).reason.find("DATA before HELLO"),
            std::string::npos);
}

TEST(NetConnection, HelloHandshakeGrantsCreditAndFingerprint) {
  GatewayConfig cfg;
  cfg.credit_window = 1234;
  Harness h{cfg};
  EXPECT_TRUE(h.hello("alpha"));
  EXPECT_EQ(h.conn->state(), Connection::State::kStreaming);
  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.last().type, MsgType::kHelloAck);
  EXPECT_EQ(h.last().session_id, 1);
  const HelloAck ack = decode_hello_ack(h.last().payload);
  EXPECT_EQ(ack.credit, 1234u);
  EXPECT_EQ(ack.events_fed, 0u);
  EXPECT_EQ(ack.config_fingerprint,
            config_fingerprint(
                core::dump_scenario(cfg.default_scenario)));
}

TEST(NetConnection, ExplicitConfigTextOverridesTheDefault) {
  Harness h;
  core::ScenarioConfig want = h.config.default_scenario;
  want.sender.min_gap = Time::ns(123);
  EXPECT_TRUE(h.hello("alpha", core::dump_scenario(want)));
  const HelloAck ack = decode_hello_ack(h.last().payload);
  EXPECT_EQ(ack.config_fingerprint,
            config_fingerprint(core::dump_scenario(want)));
}

TEST(NetConnection, BadConfigTextIsNacked) {
  Harness h;
  EXPECT_FALSE(h.hello("alpha", "no.such.key = 1\n"));
  EXPECT_EQ(h.last().type, MsgType::kNack);
  EXPECT_NE(decode_nack(h.last().payload).reason.find("bad config"),
            std::string::npos);
}

TEST(NetConnection, HostileSessionNamesAreNacked) {
  for (const char* name :
       {"", "../../etc/passwd", "a/b", "x y", ".hidden",
        "waaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaay-"
        "too-long"}) {
    Harness h;
    EXPECT_FALSE(h.hello(name)) << name;
    EXPECT_EQ(h.conn->state(), Connection::State::kError) << name;
  }
}

TEST(NetConnection, WrongProtocolVersionIsNacked) {
  Harness h;
  Hello hello;
  hello.protocol_version = kProtocolVersion + 1;
  hello.session_name = "alpha";
  EXPECT_FALSE(h.push(MsgType::kHello, encode_hello(hello)));
  EXPECT_NE(decode_nack(h.last().payload).reason.find("version"),
            std::string::npos);
}

TEST(NetConnection, DuplicateHelloIsNacked) {
  Harness h;
  EXPECT_TRUE(h.hello("alpha"));
  EXPECT_FALSE(h.hello("beta"));
  EXPECT_NE(decode_nack(h.last().payload).reason.find("duplicate"),
            std::string::npos);
}

TEST(NetConnection, CreditOverrunIsNacked) {
  GatewayConfig cfg;
  cfg.credit_window = 8;
  Harness h{cfg};
  EXPECT_TRUE(h.hello("alpha"));
  const auto stream = test_stream(16);
  EXPECT_FALSE(h.push(MsgType::kData, encode_data(stream, 0, 16)));
  EXPECT_NE(decode_nack(h.last().payload).reason.find("credit overrun"),
            std::string::npos);
}

TEST(NetConnection, NonMonotonicDataIsNacked) {
  Harness h;
  EXPECT_TRUE(h.hello("alpha"));
  aer::EventStream events{{aer::Event{1, Time::us(100)},
                           aer::Event{2, Time::us(50)}}};
  EXPECT_FALSE(h.push(MsgType::kData, encode_data(events, 0, 2)));
  EXPECT_NE(decode_nack(h.last().payload).reason.find("non-monotonic"),
            std::string::npos);
}

TEST(NetConnection, InterleavedControlAndDataFollowTheStateMachine) {
  // DATA -> CREDIT, unexpected client frames -> NACK, DRAIN -> summary+BYE:
  // control frames interleave with data without desyncing the decoder.
  Harness h;
  EXPECT_TRUE(h.hello("alpha"));
  const auto stream = test_stream(64);
  EXPECT_TRUE(h.push(MsgType::kData, encode_data(stream, 0, 32)));
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.last().type, MsgType::kCredit);
  EXPECT_EQ(decode_credit(h.last().payload).grant, 32u);
  EXPECT_TRUE(h.push(MsgType::kData, encode_data(stream, 32, 32)));
  EXPECT_EQ(h.last().type, MsgType::kCredit);
  EXPECT_FALSE(h.push(MsgType::kDrain, {}));  // connection completes
  EXPECT_EQ(h.conn->state(), Connection::State::kDone);
  ASSERT_GE(h.sent.size(), 5u);
  EXPECT_EQ(h.sent[h.sent.size() - 2].type, MsgType::kSummary);
  EXPECT_EQ(h.last().type, MsgType::kBye);
  const Summary summary = decode_summary(h.sent[h.sent.size() - 2].payload);
  EXPECT_NE(summary.text.find("events_in = 64"), std::string::npos);
  EXPECT_EQ(h.conn->summary_text(), summary.text);
}

TEST(NetConnection, ServerOnlyFramesFromClientAreNacked) {
  Harness h;
  EXPECT_TRUE(h.hello("alpha"));
  EXPECT_FALSE(h.push(MsgType::kSummary, encode_summary(Summary{"x"})));
  EXPECT_NE(decode_nack(h.last().payload).reason.find("unexpected"),
            std::string::npos);
}

TEST(NetConnection, SnapshotReqWithoutSnapshotDirIsNacked) {
  Harness h;
  EXPECT_TRUE(h.hello("alpha"));
  EXPECT_FALSE(h.push(MsgType::kSnapshotReq, {}));
  EXPECT_NE(decode_nack(h.last().payload).reason.find("snapshot"),
            std::string::npos);
}

TEST(NetConnection, RandomGarbageIntoLiveConnectionNeverCrashes) {
  std::mt19937 rng{99};
  std::uniform_int_distribution<int> byte{0, 255};
  std::uniform_int_distribution<std::size_t> len{1, 200};
  for (int iter = 0; iter < 200; ++iter) {
    Harness h;
    EXPECT_TRUE(h.hello("alpha"));
    std::vector<std::uint8_t> junk(len(rng));
    for (auto& b : junk) b = static_cast<std::uint8_t>(byte(rng));
    (void)h.conn->on_bytes(junk);  // must not crash; may NACK
  }
}

TEST(NetConnection, FingerprintIsStableAndSensitive) {
  const std::string a = "a = 1\n";
  const std::string b = "a = 2\n";
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(a));
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  EXPECT_NE(config_fingerprint(""), config_fingerprint(a));
}

}  // namespace
