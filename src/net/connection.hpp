// Per-connection protocol state machine for the aetr::net gateway.
//
// A Connection owns one live core::Session and speaks the wire protocol
// (net/wire.hpp) over an abstract byte transport: raw bytes in through
// on_bytes(), raw bytes out through the SendFn the server (or a test)
// injects. No sockets here — the fuzz tests drive a Connection directly
// with crafted byte vectors and assert NACK/close behaviour without a
// kernel in the loop.
//
// Lifecycle:  AwaitHello --HELLO--> Streaming --DRAIN--> Done
// Any protocol violation (garbage before HELLO, DATA before HELLO, credit
// overrun, non-monotonic DATA timestamps, config mismatch on resume,
// a HELLO config that changes telemetry.* or session.max_buffered_events,
// malformed payload) sends NACK with a reason and closes; the session is
// abandoned, never half-finished.
//
// Credit/backpressure: the server grants `credit_window` events at
// HELLO_ACK and re-grants after processing each DATA chunk, so a
// well-behaved client can keep at most one window in flight. Session
// backpressure (a full buffer) is absorbed server-side by advancing
// simulated time, so the wire-level credit never deadlocks against the
// session's bounded buffer.
//
// Ingest: on_bytes() parses each whole frame where it lies in the
// caller's bytes (Decoder::feed_frames), copying only a frame split across
// calls. A DATA frame is decoded into a reused event buffer and pushed
// through the session's core::IngestPump (core/ingest.hpp), as
// `aetr-serve run` pushes its input. The pump's monotonic check continues
// from the session's last event, restored ones included: an older event is
// NACKed ("non-monotonic DATA timestamp") after the frame's valid prefix
// is ingested. Replies are encoded into one buffer the connection reuses
// and handed to the SendFn by reference, so a frame that neither advances
// nor snapshots allocates nothing.
//
// Snapshots: with snapshot_dir set and interval > 0, the pump checkpoints
// to <snapshot_dir>/<name>.snap (atomic tmp+rename) on the simulated-time
// grid, so a killed and resumed gateway continues byte-identically. A
// client can also force one with SNAPSHOT_REQ. A snapshot that cannot be
// taken or written NACKs the session with "snapshot failed: <why>", a
// summary file that cannot be written with "summary write failed:
// <why>"; no exception leaves on_bytes() or drain().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ingest.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "net/wire.hpp"

namespace aetr::net {

/// Server-side settings shared by every connection.
struct GatewayConfig {
  /// Scenario used when HELLO carries an empty config_text.
  core::ScenarioConfig default_scenario;
  /// Per-session summaries land at <out_dir>/summary-<name>.txt ("" = keep
  /// the summary only in the SUMMARY frame, write nothing).
  std::string out_dir;
  /// Per-session snapshots at <snapshot_dir>/<name>.snap ("" = none).
  std::string snapshot_dir;
  /// Periodic snapshot cadence on the simulated clock; 0 disables it,
  /// SNAPSHOT_REQ still works. A value core::snapshot_interval() refuses
  /// NACKs the HELLO.
  double snapshot_interval_sec = 0.0;
  /// Restore <snapshot_dir>/<name>.snap at HELLO when it exists.
  bool resume = false;
  /// Event credit granted at HELLO_ACK and replenished per DATA chunk.
  std::uint64_t credit_window = 65536;
  /// Drop per-event history in each session (Session::set_keep_history).
  bool keep_history = true;
};

class Connection {
 public:
  /// Takes one encoded reply frame. The bytes live only for the call: the
  /// connection encodes every reply into the same buffer.
  using SendFn = std::function<void(const std::vector<std::uint8_t>&)>;

  enum class State : std::uint8_t {
    kAwaitHello,
    kStreaming,
    kDone,   ///< drained: summary written and sent, BYE sent
    kError,  ///< NACKed or framing failure; session abandoned
  };

  Connection(const GatewayConfig& config, std::uint16_t session_id,
             SendFn send);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Feed raw transport bytes. Returns false when the connection is over
  /// (Done or Error) and the transport should close.
  bool on_bytes(const std::uint8_t* data, std::size_t size);
  bool on_bytes(const std::vector<std::uint8_t>& bytes);

  /// Server shutdown (SIGTERM drain): finish the session now, write the
  /// summary, best-effort SUMMARY+BYE. No-op when already Done/Error.
  void drain();

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool closed() const {
    return state_ == State::kDone || state_ == State::kError;
  }
  [[nodiscard]] const std::string& session_name() const { return name_; }
  [[nodiscard]] std::uint16_t session_id() const { return session_id_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Summary text of a drained session (empty until Done).
  [[nodiscard]] const std::string& summary_text() const { return summary_; }
  [[nodiscard]] std::uint64_t events_ingested() const { return ingested_; }

 private:
  void handle_frame(const FrameView& f);
  void handle_hello(const FrameView& f);
  void handle_data(const FrameView& f);
  void handle_snapshot_req();
  void finish_session();
  /// Snapshot to snapshot_path_; false (after a NACK) when the session
  /// cannot settle or the blob cannot be written.
  bool take_snapshot();
  void protocol_error(const std::string& reason);
  /// Encodes into reply_ and hands it to send_, which must not keep the
  /// reference: a CREDIT reply allocates nothing once reply_ has grown.
  void send_frame(MsgType type, std::span<const std::uint8_t> payload);

  GatewayConfig config_;
  std::uint16_t session_id_;
  SendFn send_;
  /// The last reply sent; keeps its capacity across replies.
  std::vector<std::uint8_t> reply_;
  Decoder decoder_;
  State state_{State::kAwaitHello};
  std::string name_;
  std::string error_;
  std::string summary_;
  std::unique_ptr<core::Session> session_;
  std::uint64_t ingested_{0};
  /// The current DATA frame's events; keeps its capacity across frames.
  aer::EventStream events_;
  /// Feeds session_ and takes its periodic snapshots; built at HELLO.
  std::optional<core::IngestPump> pump_;
  std::string snapshot_path_;
  std::uint64_t last_snapshot_bytes_{0};
};

/// Atomic (tmp + rename) blob write shared by the gateway and aetr-serve.
/// On any failure, the flush at close included, it removes the temp file,
/// leaves `path` as it was and throws std::runtime_error.
void write_blob_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& blob);
/// Whole-file read of a snapshot, up to the size it had when checked;
/// throws std::runtime_error naming `path` when it cannot be opened, is not
/// a regular file, or Session::snapshot_header_error() refuses its header.
[[nodiscard]] std::vector<std::uint8_t> read_blob(const std::string& path);

}  // namespace aetr::net
