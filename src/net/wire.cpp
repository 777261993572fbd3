#include "net/wire.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/blob.hpp"

namespace aetr::net {
namespace {

/// Stores the `n` low bytes of `v` at `p`, little-endian.
void put_le(std::uint8_t* p, std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
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

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

/// BlobReader's truncation error, for the decoders that check bounds once
/// per payload instead of once per field.
std::runtime_error truncated(std::size_t need, std::size_t have) {
  return std::runtime_error("blob: truncated (need " + std::to_string(need) +
                            " bytes, have " + std::to_string(have) + ")");
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

void encode_frame_into(std::vector<std::uint8_t>& out, MsgType type,
                       std::uint16_t session_id,
                       std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayload) {
    throw std::invalid_argument("net: payload exceeds kMaxPayload");
  }
  out.resize(kHeaderSize + payload.size() + 4);
  std::uint8_t* p = out.data();
  put_le(p, kMagic, 4);
  p[4] = static_cast<std::uint8_t>(type);
  p[5] = 0;  // reserved
  put_le(p + 6, session_id, 2);
  put_le(p + 8, payload.size(), 4);
  if (!payload.empty()) {
    std::memcpy(p + kHeaderSize, payload.data(), payload.size());
  }
  // CRC over everything after the magic: type..payload.
  const std::size_t crc_at = kHeaderSize + payload.size();
  put_le(p + crc_at, crc32_bytes(p + 4, crc_at - 4), 4);
}

std::vector<std::uint8_t> encode_frame(MsgType type, std::uint16_t session_id,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  encode_frame_into(out, type, session_id, payload);
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
  lent_size_ = 0;
}

void Decoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection does not grow its receive buffer without bound. Runs before
  // the next frame is parsed, never under a live FrameView.
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

bool Decoder::top_up(std::size_t want) {
  const std::size_t have = buffer_.size() - consumed_;
  if (have >= want) return true;
  const std::size_t take = std::min(want - have, lent_size_);
  buffer_.insert(buffer_.end(), lent_, lent_ + take);
  lent_ += take;
  lent_size_ -= take;
  return have + take == want;
}

void Decoder::keep_lent_tail() {
  if (lent_size_ > 0) {
    compact();
    buffer_.insert(buffer_.end(), lent_, lent_ + lent_size_);
  }
  lent_ = nullptr;
  lent_size_ = 0;
}

std::size_t Decoder::frame_size(const std::uint8_t* head) {
  if (get_u32(head) != kMagic) {
    fail("bad magic");
    return 0;
  }
  const std::uint8_t raw_type = head[4];
  if (!is_known_type(raw_type)) {
    fail("unknown frame type " + std::to_string(raw_type));
    return 0;
  }
  if (head[5] != 0) {
    fail("reserved header byte set");
    return 0;
  }
  const std::uint32_t len = get_u32(head + 8);
  if (len > kMaxPayload) {
    fail("oversized payload length " + std::to_string(len));
    return 0;
  }
  return kHeaderSize + len + 4;
}

std::optional<FrameView> Decoder::checked(const std::uint8_t* head,
                                          std::size_t size) {
  const std::size_t len = size - kHeaderSize - 4;
  const std::uint32_t want = get_u32(head + kHeaderSize + len);
  const std::uint32_t got = crc32_bytes(head + 4, kHeaderSize - 4 + len);
  if (want != got) {
    fail("frame CRC mismatch");
    return std::nullopt;
  }
  return FrameView{static_cast<MsgType>(head[4]), get_u16(head + 6),
                   head + kHeaderSize, len};
}

std::optional<FrameView> Decoder::next_view() {
  if (failed()) return std::nullopt;
  compact();
  if (consumed_ < buffer_.size()) {
    // Buffered bytes come first; the frame they begin takes from the lent
    // bytes only what it lacks, its header before its length is known.
    if (!top_up(kHeaderSize)) return std::nullopt;
    const std::size_t size = frame_size(buffer_.data() + consumed_);
    if (size == 0 || !top_up(size)) return std::nullopt;
    const std::uint8_t* head = buffer_.data() + consumed_;
    consumed_ += size;
    return checked(head, size);
  }
  // Nothing buffered: parse the next whole frame where it lies.
  if (lent_size_ < kHeaderSize) return std::nullopt;
  const std::size_t size = frame_size(lent_);
  if (size == 0 || lent_size_ < size) return std::nullopt;
  const std::uint8_t* head = lent_;
  lent_ += size;
  lent_size_ -= size;
  return checked(head, size);
}

std::optional<Frame> Decoder::next() {
  const auto view = next_view();
  if (!view) return std::nullopt;
  return Frame{view->type, view->session_id,
               {view->payload, view->payload + view->payload_size}};
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

void decode_data_into(const std::uint8_t* payload, std::size_t size,
                      aer::EventStream& out) {
  constexpr std::size_t kRecord = 10;  // u16 address + i64 time_ps
  if (size < 4) throw truncated(4, size);
  const std::uint32_t count = get_u32(payload);
  if (count > kMaxEventsPerFrame) {
    throw std::runtime_error("net: DATA count exceeds kMaxEventsPerFrame");
  }
  // Records wholly present; a short payload is still checked record by
  // record up to the cut, so errors come in BlobReader's order: a bad
  // address before the truncation, both before trailing bytes.
  const std::size_t body = size - 4;
  const std::size_t whole = std::min<std::size_t>(count, body / kRecord);
  out.resize(whole);
  std::uint16_t worst = 0;
  const std::uint8_t* p = payload + 4;
  for (std::size_t i = 0; i < whole; ++i, p += kRecord) {
    const std::uint16_t address = get_u16(p);
    worst = std::max(worst, address);
    out[i] = aer::Event{address, Time::ps(static_cast<std::int64_t>(
                                     get_u64(p + 2)))};
  }
  if (worst > aer::kAddressMask) {
    throw std::runtime_error("net: DATA address out of range");
  }
  if (whole < count) {
    const std::size_t left = body - whole * kRecord;
    throw left < 2 ? truncated(2, left) : truncated(8, left - 2);
  }
  if (body > whole * kRecord) {
    throw std::runtime_error("net: trailing bytes after DATA");
  }
}

aer::EventStream decode_data(const std::vector<std::uint8_t>& payload) {
  aer::EventStream events;
  decode_data_into(payload.data(), payload.size(), events);
  return events;
}

std::array<std::uint8_t, 8> credit_payload(const Credit& m) {
  std::array<std::uint8_t, 8> payload{};
  put_le(payload.data(), m.grant, payload.size());
  return payload;
}

std::vector<std::uint8_t> encode_credit(const Credit& m) {
  const std::array<std::uint8_t, 8> payload = credit_payload(m);
  return {payload.begin(), payload.end()};
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
