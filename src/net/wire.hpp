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

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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

/// A decoded frame whose payload is not copied out. It lies in the
/// Decoder's buffer, valid until the next feed() / next() / next_view() on
/// that Decoder; or, when Decoder::feed_frames() hands it over, in the
/// caller's bytes, valid until the frame handler returns (a connection's
/// on_bytes() has not returned yet).
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

/// Encode one frame into `out`, replacing its contents but keeping its
/// capacity: a sender that reuses `out` allocates only while it grows.
/// Throws std::invalid_argument when payload exceeds kMaxPayload.
void encode_frame_into(std::vector<std::uint8_t>& out, MsgType type,
                       std::uint16_t session_id,
                       std::span<const std::uint8_t> payload);

/// encode_frame_into() a fresh vector.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MsgType type, std::uint16_t session_id,
    std::span<const std::uint8_t> payload);

/// Incremental frame decoder over a reliable byte stream, in two styles
/// over one parser. feed() copies bytes of arbitrary chunk sizes into the
/// decoder's buffer and next() / next_view() then yield completed frames
/// in order. feed_frames() instead parses whole frames where they lie in
/// the caller's bytes and copies only what a frame split across calls
/// needs. Any framing violation (bad magic, reserved byte set, unknown
/// type, oversized length, CRC mismatch) puts the decoder into a terminal
/// error state: error() is set, no frame is yielded, further input is
/// ignored.
class Decoder {
 public:
  /// Append raw bytes from the transport. Returns false once the decoder
  /// is in the error state (bytes are discarded).
  bool feed(const std::uint8_t* data, std::size_t size);
  bool feed(const std::vector<std::uint8_t>& bytes);

  /// Hand every frame completed by `data` to on_frame(const FrameView&),
  /// in order, after any frames still buffered. A frame wholly inside
  /// `data` is parsed where it lies and its view points there; a frame
  /// begun by earlier bytes is completed in this decoder's buffer, copying
  /// only the bytes it lacks. A view lives until on_frame returns. A
  /// trailing partial frame is copied, for a later call to complete, and
  /// so is the rest of `data` when on_frame returns false to stop or
  /// throws. Returns false once the decoder is in the error state.
  template <typename OnFrame>
  bool feed_frames(const std::uint8_t* data, std::size_t size,
                   OnFrame&& on_frame) {
    if (failed()) return false;
    lent_ = data;
    lent_size_ = size;
    try {
      while (const std::optional<FrameView> frame = next_view()) {
        if (!on_frame(*frame)) break;
      }
    } catch (...) {
      keep_lent_tail();  // `data` may die with this call
      throw;
    }
    keep_lent_tail();
    return !failed();
  }

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
  /// Moves lent bytes into the buffer until the frame begun there holds
  /// `want` bytes; false when the lent bytes run out first.
  bool top_up(std::size_t want);
  /// The whole frame's size from its checked header, 0 after fail().
  std::size_t frame_size(const std::uint8_t* head);
  /// The frame at `head` (`size` bytes) once its CRC checks out.
  std::optional<FrameView> checked(const std::uint8_t* head,
                                   std::size_t size);
  void keep_lent_tail();

  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_{0};
  /// The caller's bytes during feed_frames(), not yet parsed or copied.
  const std::uint8_t* lent_{nullptr};
  std::size_t lent_size_{0};
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
/// CREDIT's fixed-size payload, built without touching the heap.
[[nodiscard]] std::array<std::uint8_t, 8> credit_payload(const Credit& m);
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
