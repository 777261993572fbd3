// aetr::net wire protocol — length-prefixed, CRC-checked frames carrying
// AEDAT event chunks and control messages between a streaming client and
// the multi-session gateway server (docs/SERVICE.md, "Socket transport").
//
// This layer is pure: encode_frame()/Decoder and the typed message
// encoders/decoders below touch no sockets and no global state, so the
// whole protocol is deterministically testable (and fuzzable) on byte
// vectors alone. Frame layout, all integers little-endian:
//
//   u32  magic        0x4154454E ("NETA" on the wire: 4E 45 54 41)
//   u8   type         MsgType
//   u8   reserved     must be 0
//   u16  session_id   0 until HELLO_ACK assigns one
//   u32  payload_len  <= kMaxPayload
//   ...  payload      payload_len bytes (BlobWriter format per message)
//   u32  crc32        IEEE CRC-32 over type..payload (magic excluded)
//
// The transport underneath (TCP / Unix domain socket) is a reliable byte
// stream, so framing damage can only mean a buggy or hostile peer: the
// Decoder treats bad magic, an oversized length prefix, or a CRC mismatch
// as a terminal protocol error — it reports the error and refuses further
// input rather than hunting for a resync point mid-stream (resyncing on a
// stream transport would silently swallow attacker-controlled bytes).
//
// Message payloads (BlobWriter: LE integers, u64-length-prefixed strings):
//
//   HELLO        u32 protocol_version, str session_name, str config_text
//   HELLO_ACK    u64 config_fingerprint, u64 events_fed, i64 position_ps,
//                u64 credit
//   DATA         u32 count, count x { u16 address, i64 time_ps }
//   CREDIT       u64 grant
//   NACK         str reason
//   SNAPSHOT_REQ (empty)
//   SNAPSHOT_ACK i64 position_ps, u64 blob_bytes
//   DRAIN        (empty)
//   SUMMARY      str summary_text
//   BYE          (empty)
//
// Typed decoders throw std::runtime_error on truncated or over-long
// payloads; the connection layer maps that to a NACK + close.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aer/event.hpp"
#include "util/crc32.hpp"

namespace aetr::net {

inline constexpr std::uint32_t kMagic = 0x4154454E;  // "NETA" little-endian
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Frame header bytes before the payload (magic..payload_len).
inline constexpr std::size_t kHeaderSize = 12;
/// Hard payload bound; a length prefix beyond this is a protocol error.
inline constexpr std::size_t kMaxPayload = 1u << 20;
/// Events per DATA frame the encoder will accept (fits kMaxPayload).
inline constexpr std::size_t kMaxEventsPerFrame =
    (kMaxPayload - 4) / 10;  // u32 count + 10 bytes per event

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kData = 3,
  kCredit = 4,
  kNack = 5,
  kSnapshotReq = 6,
  kSnapshotAck = 7,
  kDrain = 8,
  kSummary = 9,
  kBye = 10,
};

[[nodiscard]] const char* to_string(MsgType t);
[[nodiscard]] bool is_known_type(std::uint8_t raw);

/// One decoded frame: type + addressing + raw payload bytes.
struct Frame {
  MsgType type{MsgType::kBye};
  std::uint16_t session_id{0};
  std::vector<std::uint8_t> payload;
};

/// A decoded frame whose payload still lies in the Decoder's buffer:
/// valid until the next feed() / next() / next_view() on that Decoder.
struct FrameView {
  MsgType type{MsgType::kBye};
  std::uint16_t session_id{0};
  const std::uint8_t* payload{nullptr};
  std::size_t payload_size{0};
};

// --- CRC-32 ------------------------------------------------------------------
// Frames are checked with the IEEE CRC-32 shared with the session snapshot
// trailer and the I2S carrier (util/crc32.hpp).

using util::crc32_bytes;

// --- frame encode / streaming decode ----------------------------------------

/// Encode one frame. Throws std::invalid_argument when payload exceeds
/// kMaxPayload.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MsgType type, std::uint16_t session_id,
    const std::vector<std::uint8_t>& payload);

/// Incremental frame decoder over a reliable byte stream. feed() bytes in
/// arbitrary chunk sizes; next() yields completed frames in order. Any
/// framing violation (bad magic, reserved byte set, unknown type, oversized
/// length, CRC mismatch) puts the decoder into a terminal error state:
/// error() is set, next() returns nothing, further feed()s are ignored.
class Decoder {
 public:
  /// Append raw bytes from the transport. Returns false once the decoder
  /// is in the error state (bytes are discarded).
  bool feed(const std::uint8_t* data, std::size_t size);
  bool feed(const std::vector<std::uint8_t>& bytes);

  /// The next completed frame, if any (its payload copied out).
  [[nodiscard]] std::optional<Frame> next();

  /// The next completed frame without copying its payload; the view points
  /// into this decoder's buffer and dies at the next feed()/next() call.
  [[nodiscard]] std::optional<FrameView> next_view();

  /// Non-empty once a framing violation was seen; terminal.
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool failed() const { return !error_.empty(); }

  /// Bytes buffered but not yet consumed as frames (diagnostics).
  [[nodiscard]] std::size_t pending_bytes() const {
    return buffer_.size() - consumed_;
  }

 private:
  void fail(const std::string& why);
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_{0};
  std::string error_;
};

// --- typed messages ---------------------------------------------------------

struct Hello {
  std::uint32_t protocol_version{kProtocolVersion};
  std::string session_name;
  /// Canonical dump_scenario() text; empty = use the server's default.
  std::string config_text;
};

struct HelloAck {
  std::uint64_t config_fingerprint{0};
  /// Events the (possibly restored) session has already consumed; the
  /// client skips this many stream events before sending DATA.
  std::uint64_t events_fed{0};
  std::int64_t position_ps{0};
  std::uint64_t credit{0};
};

struct Credit {
  std::uint64_t grant{0};
};

struct Nack {
  std::string reason;
};

struct SnapshotAck {
  std::int64_t position_ps{0};
  std::uint64_t blob_bytes{0};
};

struct Summary {
  std::string text;
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& m);
[[nodiscard]] std::vector<std::uint8_t> encode_hello_ack(const HelloAck& m);
[[nodiscard]] std::vector<std::uint8_t> encode_data(
    const aer::EventStream& events, std::size_t from, std::size_t count);
[[nodiscard]] std::vector<std::uint8_t> encode_credit(const Credit& m);
[[nodiscard]] std::vector<std::uint8_t> encode_nack(const Nack& m);
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot_ack(
    const SnapshotAck& m);
[[nodiscard]] std::vector<std::uint8_t> encode_summary(const Summary& m);

/// All decode_* throw std::runtime_error on truncation, trailing bytes,
/// or out-of-range fields.
[[nodiscard]] Hello decode_hello(const std::vector<std::uint8_t>& payload);
[[nodiscard]] HelloAck decode_hello_ack(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] aer::EventStream decode_data(
    const std::vector<std::uint8_t>& payload);
/// decode_data into a caller-owned stream that keeps its capacity across
/// frames: one bounds check per frame, then the 10-byte records are read
/// in place. Same rejections and messages as decode_data (which wraps
/// it); `out` holds unspecified events after a throw.
void decode_data_into(const std::uint8_t* payload, std::size_t size,
                      aer::EventStream& out);
[[nodiscard]] Credit decode_credit(const std::vector<std::uint8_t>& payload);
[[nodiscard]] Nack decode_nack(const std::vector<std::uint8_t>& payload);
[[nodiscard]] SnapshotAck decode_snapshot_ack(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] Summary decode_summary(const std::vector<std::uint8_t>& payload);

/// FNV-1a 64 over the canonical dump_scenario() text — the config
/// fingerprint HELLO_ACK echoes so client and server agree on the scenario
/// before any DATA flows (Client::hello checks it).
[[nodiscard]] std::uint64_t config_fingerprint(const std::string& config_text);

}  // namespace aetr::net
