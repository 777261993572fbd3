// aetr::net gateway server over real sockets: an in-process Server on its
// own thread, blocking Clients on the test thread, and the central
// determinism contract — per-session summaries from concurrent interleaved
// socket sessions are byte-identical to batch run_scenario() results.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "core/summary.hpp"
#include "fleet/fleet.hpp"
#include "gen/sources.hpp"
#include "net/client.hpp"
#include "net/connection.hpp"
#include "net/fleet_bridge.hpp"
#include "net/server.hpp"

namespace {

using namespace aetr;
namespace fs = std::filesystem;

// u16 session ids wrap after 65535 accepts; a connection that has been
// live since before the wrap keeps its id, and the next accepts skip it.
TEST(SessionIds, WrapSkipsLiveIds) {
  std::uint16_t next = 65534;
  const std::vector<std::uint16_t> live{65535, 1, 2, 4};
  EXPECT_EQ(net::allocate_session_id(next, live), 65534);
  EXPECT_EQ(net::allocate_session_id(next, live), 3);
  EXPECT_EQ(net::allocate_session_id(next, live), 5);
  EXPECT_EQ(next, 6);
  std::uint16_t last = 65535;
  EXPECT_EQ(net::allocate_session_id(last, {}), 65535);
  EXPECT_EQ(last, 1);  // never 0, the wire's "unassigned"
}

TEST(SessionIds, NoFreeIdReturnsZero) {
  std::vector<std::uint16_t> live;
  for (std::uint32_t id = 1; id <= 0xFFFFu; ++id) {
    live.push_back(static_cast<std::uint16_t>(id));
  }
  std::uint16_t next = 7;
  EXPECT_EQ(net::allocate_session_id(next, live), 0);
  live.erase(live.begin() + 9);  // id 10 frees up
  EXPECT_EQ(net::allocate_session_id(next, live), 10);
}

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "aetrnetXXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    if (made == nullptr) throw std::runtime_error{"mkdtemp failed"};
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string str(const char* leaf) const {
    return (path / leaf).string();
  }
};

aer::EventStream poisson_stream(std::size_t n, std::uint64_t seed,
                                double rate_hz) {
  gen::PoissonSource source{rate_hz, 256, seed};
  return gen::take(source, n);
}

std::string batch_summary(const core::ScenarioConfig& scenario,
                          const aer::EventStream& events) {
  return core::run_summary_text(core::run_scenario(scenario, events));
}

std::string read_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  EXPECT_TRUE(is.good()) << path;
  std::string text{std::istreambuf_iterator<char>{is},
                   std::istreambuf_iterator<char>{}};
  return text;
}

// Run a server for `sessions` completed sessions on its own thread; the
// body gets the live endpoint and drives blocking clients.
template <typename Body>
void with_server(net::ServerOptions options, std::size_t sessions,
                 Body&& body) {
  options.exit_after_sessions = sessions;
  net::Server server{std::move(options)};
  std::thread t{[&server] { server.run(); }};
  try {
    body(server);
  } catch (...) {
    server.request_stop();
    t.join();
    throw;
  }
  t.join();
  EXPECT_EQ(server.sessions_completed(), sessions);
}

TEST(NetServer, ClientChecksTheHelloAckFingerprint) {
  // "15.000" loads, but the gateway fingerprints the dump of what it
  // loaded ("15" and every other key), so only the canonical text agrees
  // with the ack.
  const std::string loose = "clock.ring_mhz = 15.000\n";
  const std::string canonical =
      core::dump_scenario(core::load_scenario_text(loose));
  const auto stream = poisson_stream(300, 44, 60e3);
  TempDir tmp;
  net::ServerOptions options;
  options.uds_path = tmp.str("gw.sock");
  with_server(options, 2, [&](net::Server&) {
    {
      auto c = net::Client::connect_uds(tmp.str("gw.sock"));
      const auto ack = c.hello("canonical", canonical);
      EXPECT_EQ(ack.config_fingerprint, net::config_fingerprint(canonical));
      c.send_events(stream, 0);
      (void)c.drain();
    }
    auto c = net::Client::connect_uds(tmp.str("gw.sock"));
    try {
      (void)c.hello("loose", loose);
      ADD_FAILURE() << "hello accepted a fingerprint that differs";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("config fingerprint"),
                std::string::npos)
          << e.what();
    }
  });
}

TEST(NetServer, TwoInterleavedTcpSessionsMatchBatchByteForByte) {
  const auto stream_a = poisson_stream(1500, 11, 50e3);
  const auto stream_b = poisson_stream(1200, 22, 80e3);
  core::ScenarioConfig scenario_b;
  scenario_b.sender.min_gap = Time::ns(80);

  TempDir tmp;
  net::ServerOptions options;
  options.tcp = true;  // kernel-assigned port
  options.gateway.out_dir = tmp.path.string();

  std::string summary_a;
  std::string summary_b;
  with_server(options, 2, [&](net::Server& server) {
    auto a = net::Client::connect_tcp("127.0.0.1", server.tcp_port());
    auto b = net::Client::connect_tcp("127.0.0.1", server.tcp_port());
    ASSERT_EQ(a.hello("alpha", "").events_fed, 0u);
    ASSERT_EQ(b.hello("beta", core::dump_scenario(scenario_b)).events_fed, 0u);
    // Interleave DATA chunks across the two live sessions so the server
    // genuinely multiplexes (this is the concurrency the determinism gate
    // is about, not just two sessions back to back).
    net::SendOptions chunked;
    chunked.chunk = 128;
    std::size_t pos_a = 0;
    std::size_t pos_b = 0;
    while (pos_a < stream_a.size() || pos_b < stream_b.size()) {
      pos_a += a.send_some(stream_a, pos_a, 128, chunked);
      pos_b += b.send_some(stream_b, pos_b, 128, chunked);
    }
    summary_a = a.drain();
    summary_b = b.drain();
  });

  EXPECT_EQ(summary_a, batch_summary(core::ScenarioConfig{}, stream_a));
  EXPECT_EQ(summary_b, batch_summary(scenario_b, stream_b));
  // The server-side summary files carry the same bytes as the SUMMARY frame.
  EXPECT_EQ(read_file(tmp.str("summary-alpha.txt")), summary_a);
  EXPECT_EQ(read_file(tmp.str("summary-beta.txt")), summary_b);
}

TEST(NetServer, UdsSessionsMatchTcpAndBatch) {
  const auto stream = poisson_stream(1000, 33, 60e3);
  TempDir tmp;

  net::ServerOptions options;
  options.uds_path = tmp.str("gw.sock");
  std::string via_uds;
  with_server(options, 1, [&](net::Server&) {
    auto c = net::Client::connect_uds(tmp.str("gw.sock"));
    (void)c.hello("alpha", "");
    c.send_events(stream, 0);
    via_uds = c.drain();
  });

  net::ServerOptions tcp_options;
  tcp_options.tcp = true;
  std::string via_tcp;
  with_server(tcp_options, 1, [&](net::Server& server) {
    auto c = net::Client::connect_tcp("127.0.0.1", server.tcp_port());
    (void)c.hello("alpha", "");
    c.send_events(stream, 0);
    via_tcp = c.drain();
  });

  const auto batch = batch_summary(core::ScenarioConfig{}, stream);
  EXPECT_EQ(via_uds, batch);
  EXPECT_EQ(via_tcp, batch);
}

TEST(NetServer, ConcurrentEqualsSerial) {
  // The same three sessions run (a) interleaved on one server and (b) one
  // at a time on a fresh server; every summary must match byte-for-byte.
  std::vector<aer::EventStream> streams;
  for (std::uint64_t i = 0; i < 3; ++i) {
    streams.push_back(poisson_stream(700 + 100 * i, 100 + i,
                                     40e3 + 1e4 * static_cast<double>(i)));
  }
  TempDir tmp;

  std::vector<std::string> concurrent(3);
  net::ServerOptions options;
  options.uds_path = tmp.str("c.sock");
  with_server(options, 3, [&](net::Server&) {
    std::vector<net::Client> clients;
    for (std::size_t i = 0; i < 3; ++i) {
      clients.push_back(net::Client::connect_uds(tmp.str("c.sock")));
      (void)clients.back().hello("s" + std::to_string(i), "");
    }
    std::vector<std::size_t> pos(3, 0);
    bool busy = true;
    while (busy) {
      busy = false;
      for (std::size_t i = 0; i < 3; ++i) {
        pos[i] += clients[i].send_some(streams[i], pos[i], 97);
        busy = busy || pos[i] < streams[i].size();
      }
    }
    for (std::size_t i = 0; i < 3; ++i) concurrent[i] = clients[i].drain();
  });

  std::vector<std::string> serial(3);
  for (std::size_t i = 0; i < 3; ++i) {
    net::ServerOptions one;
    one.uds_path = tmp.str("s.sock");
    with_server(one, 1, [&](net::Server&) {
      auto c = net::Client::connect_uds(tmp.str("s.sock"));
      (void)c.hello("solo", "");
      c.send_events(streams[i], 0);
      serial[i] = c.drain();
    });
  }

  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << "session " << i;
    EXPECT_EQ(concurrent[i], batch_summary(core::ScenarioConfig{}, streams[i]));
  }
}

TEST(NetServer, ClientSnapshotRequestsCheckpointWithoutPerturbing) {
  // snapshot_every forces SNAPSHOT_REQ round trips mid-stream; with no
  // periodic schedule the checkpoints happen at client-chosen points, and
  // the summary must still equal the batch run (snapshots at stream-driven
  // points are part of the deterministic schedule).
  const auto stream = poisson_stream(1000, 44, 50e3);
  TempDir tmp;
  net::ServerOptions options;
  options.uds_path = tmp.str("gw.sock");
  options.gateway.snapshot_dir = tmp.path.string();

  std::string summary;
  with_server(options, 1, [&](net::Server&) {
    auto c = net::Client::connect_uds(tmp.str("gw.sock"));
    (void)c.hello("alpha", "");
    net::SendOptions snap;
    snap.chunk = 100;
    snap.snapshot_every = 400;
    c.send_events(stream, 0, snap);
    summary = c.drain();
  });
  EXPECT_TRUE(fs::exists(tmp.str("alpha.snap")));
  EXPECT_EQ(summary, batch_summary(core::ScenarioConfig{}, stream));
}

TEST(NetServer, BackpressureWindowStillDrainsEveryEvent) {
  // A tiny credit window forces many CREDIT round trips (and exercises the
  // server-side pump absorbing Session backpressure); the result must not
  // depend on the window size.
  const auto stream = poisson_stream(800, 55, 200e3);
  TempDir tmp;
  net::ServerOptions options;
  options.uds_path = tmp.str("gw.sock");
  options.gateway.credit_window = 64;

  std::string summary;
  with_server(options, 1, [&](net::Server&) {
    auto c = net::Client::connect_uds(tmp.str("gw.sock"));
    const auto ack = c.hello("alpha", "");
    EXPECT_EQ(ack.credit, 64u);
    c.send_events(stream, 0);
    summary = c.drain();
  });
  EXPECT_EQ(summary, batch_summary(core::ScenarioConfig{}, stream));
}

TEST(NetServer, AbandonedSessionCountsCompletedWithoutSummary) {
  TempDir tmp;
  net::ServerOptions options;
  options.uds_path = tmp.str("gw.sock");
  options.gateway.out_dir = tmp.path.string();
  with_server(options, 1, [&](net::Server&) {
    auto c = net::Client::connect_uds(tmp.str("gw.sock"));
    (void)c.hello("quitter", "");
    c.send_events(poisson_stream(100, 66, 50e3), 0);
    c.bye();  // abandon: no DRAIN, no summary
  });
  EXPECT_FALSE(fs::exists(tmp.str("summary-quitter.txt")));
}

TEST(NetServer, FleetBridgeMatchesBatchNodeRuns) {
  // The tentpole bridge contract: an aetr::fleet node phase streamed as
  // live concurrent sessions produces, per node, exactly the summary of
  // run_scenario(node_scenario(i), node_stream(i)).
  fleet::FleetConfig fleet;
  fleet.nodes = 5;
  fleet.events_per_node = 400;
  fleet.rate_hz = 40e3;
  fleet.rate_spread = 0.3;
  fleet.seed = 7;

  TempDir tmp;
  net::ServerOptions options;
  options.uds_path = tmp.str("gw.sock");
  options.gateway.out_dir = tmp.path.string();
  options.exit_after_sessions = fleet.nodes;
  net::Server server{std::move(options)};
  std::thread t{[&server] { server.run(); }};

  net::BridgeEndpoint endpoint;
  endpoint.uds_path = tmp.str("gw.sock");
  net::BridgeOptions bridge;
  bridge.concurrency = 3;  // < nodes: exercises the slot-handoff path
  bridge.chunk = 64;
  const auto result = net::run_fleet_bridge(fleet, endpoint, bridge);
  t.join();

  ASSERT_EQ(result.sessions, fleet.nodes);
  ASSERT_EQ(result.summaries.size(), fleet.nodes);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < fleet.nodes; ++i) {
    const auto expect = batch_summary(fleet::node_scenario(fleet, i),
                                      fleet::node_stream(fleet, i));
    EXPECT_EQ(result.summaries[i], expect) << "node " << i;
    // ...and the server-side file matches the bridge-side text.
    EXPECT_EQ(read_file(tmp.str(("summary-node-" + std::to_string(i) + ".txt")
                                    .c_str())),
              result.summaries[i]);
    total += fleet.events_per_node;
  }
  EXPECT_EQ(result.events_streamed, total);
}

TEST(NetServer, RequestStopDrainsLiveSessions) {
  // SIGTERM path without the signal: request_stop() mid-stream must finish
  // the live session server-side and write its summary of exactly the
  // events ingested so far.
  const auto stream = poisson_stream(600, 77, 50e3);
  TempDir tmp;
  net::ServerOptions options;
  options.uds_path = tmp.str("gw.sock");
  options.gateway.out_dir = tmp.path.string();
  net::Server server{std::move(options)};
  std::thread t{[&server] { server.run(); }};

  auto c = net::Client::connect_uds(tmp.str("gw.sock"));
  (void)c.hello("alpha", "");
  c.send_events(stream, 0, {});  // fully delivered (credit consumed back)
  server.request_stop();
  t.join();

  const auto drained = read_file(tmp.str("summary-alpha.txt"));
  EXPECT_EQ(drained, batch_summary(core::ScenarioConfig{}, stream));
}

/// The replies an in-process Connection sends to one HELLO carrying
/// `config_text`, and whether it stays open.
struct HelloReply {
  bool open{false};
  std::vector<net::Frame> replies;

  [[nodiscard]] std::string nack() const {
    return !replies.empty() && replies.front().type == net::MsgType::kNack
               ? net::decode_nack(replies.front().payload).reason
               : std::string{};
  }
};

HelloReply hello_with(const net::GatewayConfig& gateway,
                      const std::string& config_text) {
  HelloReply r;
  net::Decoder in;
  net::Connection conn{gateway, 1, [&](const std::vector<std::uint8_t>& b) {
                         in.feed(b);
                         while (auto f = in.next()) r.replies.push_back(*f);
                       }};
  net::Hello hello;
  hello.session_name = "alpha";
  hello.config_text = config_text;
  r.open = conn.on_bytes(
      net::encode_frame(net::MsgType::kHello, 0, net::encode_hello(hello)));
  return r;
}

TEST(NetServer, HelloMayNotSetGatewayBufferCap) {
  // The buffer cap bounds the events a session holds in gateway memory
  // (the pump advances only when the buffer fills), so a peer's cap of
  // 1e12 would keep its whole stream until DRAIN. Any cap other than the
  // gateway's own is NACKed by name; the gateway's own is accepted.
  net::GatewayConfig gateway;
  gateway.default_scenario.session.max_buffered_events = 4096;
  core::ScenarioConfig peer = gateway.default_scenario;
  for (const std::size_t cap :
       {std::size_t{1'000'000'000'000}, std::size_t{1} << 20, std::size_t{1}}) {
    SCOPED_TRACE(cap);
    peer.session.max_buffered_events = cap;
    const HelloReply r = hello_with(gateway, core::dump_scenario(peer));
    EXPECT_FALSE(r.open);
    EXPECT_EQ(r.nack(),
              "bad config: session.max_buffered_events is gateway policy; "
              "HELLO may not change it");
  }
  peer.session.max_buffered_events = 4096;
  const HelloReply same = hello_with(gateway, core::dump_scenario(peer));
  EXPECT_TRUE(same.open);
  ASSERT_FALSE(same.replies.empty());
  EXPECT_EQ(same.replies.front().type, net::MsgType::kHelloAck);
}

TEST(NetServer, HelloCarryingARemovedKeyIsNacked) {
  // Neither the engine nor the snapshot cadence is a scenario key: a peer
  // that names either gets the unknown-key NACK, so it can neither put its
  // session on the event-driven path nor pick the gateway's cadence.
  const net::GatewayConfig gateway;
  const std::string dump = core::dump_scenario(gateway.default_scenario);
  for (const std::string key :
       {"session.fast_forward", "session.snapshot_interval_sec"}) {
    SCOPED_TRACE(key);
    for (const char* value : {"0", "1"}) {
      const HelloReply r =
          hello_with(gateway, dump + key + " = " + value + "\n");
      EXPECT_FALSE(r.open);
      const std::string nack = r.nack();
      EXPECT_EQ(nack.rfind("bad config: ", 0), 0u) << nack;
      EXPECT_NE(nack.find("unknown key"), std::string::npos) << nack;
      EXPECT_NE(nack.find(key), std::string::npos) << nack;
    }
  }
}

TEST(NetServer, HelloMayNotSetGatewayTelemetry) {
  // A peer's HELLO config must not name files for the gateway to write:
  // telemetry is the gateway's, so the HELLO is NACKed and no session (and
  // no trace file) ever exists.
  TempDir tmp;
  const std::string trace_path = tmp.str("peer_trace.json");
  net::GatewayConfig gateway;
  std::vector<net::Frame> replies;
  net::Decoder replies_in;
  net::Connection conn{gateway, 1, [&](const std::vector<std::uint8_t>& b) {
                         replies_in.feed(b);
                         while (auto f = replies_in.next()) {
                           replies.push_back(*f);
                         }
                       }};
  const auto push = [&](net::MsgType type,
                        const std::vector<std::uint8_t>& payload) {
    return conn.on_bytes(net::encode_frame(type, 0, payload));
  };

  core::ScenarioConfig peer = gateway.default_scenario;
  peer.telemetry.trace = true;
  peer.telemetry.trace_json_path = trace_path;
  net::Hello hello;
  hello.session_name = "alpha";
  hello.config_text = core::dump_scenario(peer);
  EXPECT_FALSE(push(net::MsgType::kHello, net::encode_hello(hello)));
  // Whatever the peer sends next, nothing is ever written at its path.
  const auto stream = poisson_stream(50, 5, 10e3);
  (void)push(net::MsgType::kData, net::encode_data(stream, 0, stream.size()));
  (void)push(net::MsgType::kDrain, {});
  conn.drain();
  EXPECT_FALSE(fs::exists(trace_path));

  ASSERT_FALSE(replies.empty());
  ASSERT_EQ(replies.front().type, net::MsgType::kNack);
  EXPECT_NE(net::decode_nack(replies.front().payload)
                .reason.find("telemetry.trace"),
            std::string::npos);
  EXPECT_EQ(conn.state(), net::Connection::State::kError);
}

}  // namespace
