// Fleet bridge: run an aetr::fleet node phase as live gateway sessions.
//
// run_fleet() materialises each node's stream and scenario and runs them
// as batch run_scenario() jobs. The bridge instead wires those exact
// per-node derivations — fleet::node_stream() and fleet::node_scenario()
// — into concurrent net::Client connections against a running gateway, so
// an N-node fleet executes as N live sessions over the loopback transport.
// DATA chunks are interleaved round-robin across the open connections,
// which is precisely the concurrency the single-threaded server must not
// care about: each session's summary is byte-identical to the batch
// run_scenario() result for that node (asserted in tests/test_net_server).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"

namespace aetr::net {

struct BridgeEndpoint {
  /// Unix socket path ("" = use TCP instead).
  std::string uds_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = 0;
};

struct BridgeOptions {
  /// Sessions open at once; node i joins as soon as a slot frees.
  std::size_t concurrency = 4;
  /// Events per DATA frame.
  std::size_t chunk = 256;
  /// Session name prefix: sessions are "<prefix><node_id>".
  std::string name_prefix = "node-";
};

struct BridgeResult {
  /// Per-node final summary text, node-id order.
  std::vector<std::string> summaries;
  std::uint64_t events_streamed{0};
  std::size_t sessions{0};
};

/// Stream every node of `config` through live sessions at `endpoint`.
/// Throws std::runtime_error on connection or protocol failure.
[[nodiscard]] BridgeResult run_fleet_bridge(const fleet::FleetConfig& config,
                                            const BridgeEndpoint& endpoint,
                                            const BridgeOptions& options = {});

}  // namespace aetr::net
