// aetr::net gateway server — a single-threaded poll() readiness loop
// hosting multiple concurrent core::Session instances, one per accepted
// connection, over TCP and/or a Unix domain socket.
//
// Single-threaded on purpose: every session advances only when its bytes
// arrive, so the interleaving of N sessions is exactly the interleaving of
// their byte streams — no scheduler nondeterminism — and each session's
// result is a pure function of its own stream (sessions share no state).
// That is what makes the concurrent-vs-serial byte-diff in
// tests/test_net_server.cpp meaningful.
//
// Shutdown: request_stop() (safe from any thread or signal-forwarding
// loop) wakes the poll via a self-pipe; the server then drains every live
// connection — finish() each session, write its summary, best-effort
// SUMMARY+BYE — before run() returns. SIGKILL, by contrast, tests the
// snapshot/resume path: restart with GatewayConfig::resume and clients
// reconnect to continue byte-identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/connection.hpp"

namespace aetr::net {

struct ServerOptions {
  GatewayConfig gateway;
  /// Bind a TCP listener on 127.0.0.1 when true; port 0 = kernel-assigned
  /// (read it back with Server::tcp_port()).
  bool tcp = false;
  int tcp_port = 0;
  /// Bind a Unix domain socket at this path when non-empty (an existing
  /// socket file is replaced).
  std::string uds_path;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 64;
  /// When > 0: run() returns once this many sessions completed (drained or
  /// errored) and no connection is live — lets tests and the fleet bridge
  /// run a server to a known finish line without signals.
  std::size_t exit_after_sessions = 0;
};

/// The session id for a new connection: the first id from `next` on that
/// no live connection holds. Ids run 1..65535 and wrap back to 1 (0 means
/// "unassigned" on the wire); `next` moves past the id handed out. Returns
/// 0 when every id is live.
[[nodiscard]] std::uint16_t allocate_session_id(
    std::uint16_t& next, std::span<const std::uint16_t> live);

class Server {
 public:
  /// Binds the listeners immediately (throws std::runtime_error on any
  /// socket/bind/listen failure) so tcp_port() is valid before run().
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (options.tcp_port, or the kernel's pick for 0).
  [[nodiscard]] int tcp_port() const;

  /// Serve until request_stop() or the exit_after_sessions finish line.
  /// Drains live sessions before returning.
  void run();

  /// Ask a running run() to drain and return; callable from any thread,
  /// and from a signal handler's forwarding thread.
  void request_stop();

  /// Sessions that reached Done or Error over the server's lifetime.
  [[nodiscard]] std::size_t sessions_completed() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace aetr::net
