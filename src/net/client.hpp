// Blocking client for the aetr::net gateway: connect over TCP or a Unix
// domain socket, HELLO with a scenario config, stream an event stream in
// credit-respecting DATA chunks, and DRAIN for the final summary.
//
// The client enforces the credit window on its side (never more events in
// flight than granted) and consumes server frames inline — CREDIT grants,
// SNAPSHOT_ACKs, and a NACK at any point throws std::runtime_error with
// the server's reason.
#pragma once

#include <cstdint>
#include <string>

#include "aer/event.hpp"
#include "net/wire.hpp"

namespace aetr::net {

struct SendOptions {
  /// Events per DATA frame.
  std::size_t chunk = 512;
  /// usleep(pace_us) every pace_every ingested events (0 = full speed) —
  /// widens the kill and drain windows of the process-level determinism
  /// rows, mirroring aetr-serve run --pace-us/--pace-every.
  std::uint64_t pace_us = 0;
  std::uint64_t pace_every = 1000;
  /// Ask the server to checkpoint after every N sent events (0 = never).
  /// Deterministic: the request points are a pure function of the stream.
  std::uint64_t snapshot_every = 0;
};

class Client {
 public:
  /// Throws std::runtime_error on connect failure.
  [[nodiscard]] static Client connect_tcp(const std::string& host, int port);
  [[nodiscard]] static Client connect_uds(const std::string& path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// HELLO / HELLO_ACK handshake. config_text is canonical dump_scenario()
  /// output ("" = server default). Returns the ack — events_fed tells a
  /// resuming client how many stream events to skip. Throws
  /// std::runtime_error naming both fingerprints when config_text is not
  /// empty and the ack's config fingerprint is not config_text's: the
  /// gateway loaded a scenario that dumps to different text.
  HelloAck hello(const std::string& session_name,
                 const std::string& config_text);

  /// Stream events[from..] in credit-respecting chunks.
  /// Returns the number of events actually sent.
  std::uint64_t send_events(const aer::EventStream& events, std::size_t from,
                            const SendOptions& options = {});

  /// Send at most max_events from events[from..] (still chunked and
  /// credit-respecting); returns how many were sent. The fleet bridge uses
  /// this to interleave DATA round-robin across concurrent sessions.
  std::uint64_t send_some(const aer::EventStream& events, std::size_t from,
                          std::size_t max_events,
                          const SendOptions& options = {});

  /// DRAIN; blocks for SUMMARY + BYE and returns the summary text.
  [[nodiscard]] std::string drain();

  /// BYE without drain: abandon the session (no summary).
  void bye();

 private:
  explicit Client(int fd);
  void send_bytes(const std::vector<std::uint8_t>& bytes);
  /// Block for the next frame; NACK throws, unexpected types throw.
  Frame recv_frame();

  int fd_{-1};
  std::uint16_t session_id_{0};
  std::uint64_t credit_{0};
  Decoder decoder_;
};

}  // namespace aetr::net
