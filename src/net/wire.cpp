#include "net/wire.hpp"

#include <stdexcept>
#include <utility>

#include "util/blob.hpp"

namespace aetr::net {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xffu));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    static_cast<std::uint16_t>(p[1]) << 8);
}

/// Wraps BlobReader with the shared "no trailing bytes" check every typed
/// decoder needs: a payload longer than its message is as malformed as a
/// truncated one.
void expect_done(const BlobReader& r, const char* what) {
  if (!r.done()) {
    throw std::runtime_error(std::string{"net: trailing bytes after "} + what);
  }
}

}  // namespace

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kHelloAck: return "HELLO_ACK";
    case MsgType::kData: return "DATA";
    case MsgType::kCredit: return "CREDIT";
    case MsgType::kNack: return "NACK";
    case MsgType::kSnapshotReq: return "SNAPSHOT_REQ";
    case MsgType::kSnapshotAck: return "SNAPSHOT_ACK";
    case MsgType::kDrain: return "DRAIN";
    case MsgType::kSummary: return "SUMMARY";
    case MsgType::kBye: return "BYE";
  }
  return "?";
}

bool is_known_type(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(MsgType::kHello) &&
         raw <= static_cast<std::uint8_t>(MsgType::kBye);
}

std::vector<std::uint8_t> encode_frame(
    MsgType type, std::uint16_t session_id,
    const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw std::invalid_argument("net: payload exceeds kMaxPayload");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + 4);
  put_u32(out, kMagic);
  out.push_back(static_cast<std::uint8_t>(type));
  out.push_back(0);  // reserved
  put_u16(out, session_id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  // CRC over everything after the magic: type..payload.
  const std::uint32_t crc = crc32_bytes(out.data() + 4, out.size() - 4);
  put_u32(out, crc);
  return out;
}

bool Decoder::feed(const std::uint8_t* data, std::size_t size) {
  if (failed()) return false;
  buffer_.insert(buffer_.end(), data, data + size);
  return true;
}

bool Decoder::feed(const std::vector<std::uint8_t>& bytes) {
  return feed(bytes.data(), bytes.size());
}

void Decoder::fail(const std::string& why) {
  error_ = why;
  buffer_.clear();
  consumed_ = 0;
}

void Decoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow its receive buffer without bound.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

std::optional<Frame> Decoder::next() {
  if (failed()) return std::nullopt;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderSize) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + consumed_;
  if (get_u32(head) != kMagic) {
    fail("bad magic");
    return std::nullopt;
  }
  const std::uint8_t raw_type = head[4];
  if (!is_known_type(raw_type)) {
    fail("unknown frame type " + std::to_string(raw_type));
    return std::nullopt;
  }
  if (head[5] != 0) {
    fail("reserved header byte set");
    return std::nullopt;
  }
  const std::uint32_t len = get_u32(head + 8);
  if (len > kMaxPayload) {
    fail("oversized payload length " + std::to_string(len));
    return std::nullopt;
  }
  const std::size_t total = kHeaderSize + len + 4;
  if (avail < total) return std::nullopt;
  const std::uint32_t want = get_u32(head + kHeaderSize + len);
  const std::uint32_t got = crc32_bytes(head + 4, kHeaderSize - 4 + len);
  if (want != got) {
    fail("frame CRC mismatch");
    return std::nullopt;
  }
  Frame f;
  f.type = static_cast<MsgType>(raw_type);
  f.session_id = get_u16(head + 6);
  f.payload.assign(head + kHeaderSize, head + kHeaderSize + len);
  consumed_ += total;
  compact();
  return f;
}

// --- typed messages ---------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const Hello& m) {
  BlobWriter w;
  w.u32(m.protocol_version);
  w.str(m.session_name);
  w.str(m.config_text);
  return std::move(w).take();
}

Hello decode_hello(const std::vector<std::uint8_t>& payload) {
  BlobReader r{payload};
  Hello m;
  m.protocol_version = r.u32();
  m.session_name = r.str();
  m.config_text = r.str();
  expect_done(r, "HELLO");
  return m;
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAck& m) {
  BlobWriter w;
  w.u64(m.config_fingerprint);
  w.u64(m.events_fed);
  w.i64(m.position_ps);
  w.u64(m.credit);
  return std::move(w).take();
}

HelloAck decode_hello_ack(const std::vector<std::uint8_t>& payload) {
  BlobReader r{payload};
  HelloAck m;
  m.config_fingerprint = r.u64();
  m.events_fed = r.u64();
  m.position_ps = r.i64();
  m.credit = r.u64();
  expect_done(r, "HELLO_ACK");
  return m;
}

std::vector<std::uint8_t> encode_data(const aer::EventStream& events,
                                      std::size_t from, std::size_t count) {
  if (from > events.size() || count > events.size() - from) {
    throw std::invalid_argument("net: DATA range out of bounds");
  }
  if (count > kMaxEventsPerFrame) {
    throw std::invalid_argument("net: DATA chunk exceeds kMaxEventsPerFrame");
  }
  BlobWriter w;
  w.u32(static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const aer::Event& ev = events[from + i];
    w.u16(ev.address);
    w.i64(ev.time.count_ps());
  }
  return std::move(w).take();
}

aer::EventStream decode_data(const std::vector<std::uint8_t>& payload) {
  BlobReader r{payload};
  const std::uint32_t count = r.u32();
  if (count > kMaxEventsPerFrame) {
    throw std::runtime_error("net: DATA count exceeds kMaxEventsPerFrame");
  }
  aer::EventStream events;
  events.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t address = r.u16();
    const std::int64_t t_ps = r.i64();
    if (address > aer::kAddressMask) {
      throw std::runtime_error("net: DATA address out of range");
    }
    events.push_back(aer::Event{address, Time::ps(t_ps)});
  }
  expect_done(r, "DATA");
  return events;
}

std::vector<std::uint8_t> encode_credit(const Credit& m) {
  BlobWriter w;
  w.u64(m.grant);
  return std::move(w).take();
}

Credit decode_credit(const std::vector<std::uint8_t>& payload) {
  BlobReader r{payload};
  Credit m;
  m.grant = r.u64();
  expect_done(r, "CREDIT");
  return m;
}

std::vector<std::uint8_t> encode_nack(const Nack& m) {
  BlobWriter w;
  w.str(m.reason);
  return std::move(w).take();
}

Nack decode_nack(const std::vector<std::uint8_t>& payload) {
  BlobReader r{payload};
  Nack m;
  m.reason = r.str();
  expect_done(r, "NACK");
  return m;
}

std::vector<std::uint8_t> encode_snapshot_ack(const SnapshotAck& m) {
  BlobWriter w;
  w.i64(m.position_ps);
  w.u64(m.blob_bytes);
  return std::move(w).take();
}

SnapshotAck decode_snapshot_ack(const std::vector<std::uint8_t>& payload) {
  BlobReader r{payload};
  SnapshotAck m;
  m.position_ps = r.i64();
  m.blob_bytes = r.u64();
  expect_done(r, "SNAPSHOT_ACK");
  return m;
}

std::vector<std::uint8_t> encode_summary(const Summary& m) {
  BlobWriter w;
  w.str(m.text);
  return std::move(w).take();
}

Summary decode_summary(const std::vector<std::uint8_t>& payload) {
  BlobReader r{payload};
  Summary m;
  m.text = r.str();
  expect_done(r, "SUMMARY");
  return m;
}

std::uint64_t config_fingerprint(const std::string& config_text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : config_text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace aetr::net
