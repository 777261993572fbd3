// gateway_fleet: many short fleet-node sessions over a real Unix-domain
// socket to an in-process net::Server thread. 1024 nodes x 1,000 events
// from fleet::node_stream / node_scenario (30 kevt/s mean, 10 % rate
// spread), each node's config text in its HELLO. One client thread keeps
// 4 connections live and sends 512-event chunks round-robin. An op is one
// session, from connect to SUMMARY.
#include <array>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config_io.hpp"
#include "core/session.hpp"
#include "core/summary.hpp"
#include "fleet/fleet.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "runtime/seed.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aetr;

constexpr std::size_t kNodes = 1024;
constexpr std::size_t kEventsPerNode = 1000;
constexpr std::size_t kLive = 4;
constexpr std::size_t kChunk = 512;

struct Inputs {
  std::vector<aer::EventStream> streams;
  std::vector<std::string> configs;
  std::vector<std::string> names;
  /// Batch run_scenario summaries of the scenario each node transmits.
  std::vector<std::string> expected;
  std::uint64_t events{0};
  /// Nodes whose batch summary changes when their scenario goes through
  /// the config text (dump_scenario -> load_scenario) — a config_io
  /// round-trip defect, reported, not gated (see README.md).
  std::uint64_t roundtrip_mismatches{0};
};

Inputs make_inputs(std::uint64_t seed, Report& rep) {
  fleet::FleetConfig fc;
  fc.nodes = kNodes;
  fc.events_per_node = kEventsPerNode;
  fc.rate_hz = 30e3;
  fc.rate_spread = 0.1;
  fc.seed = seed;
  Inputs in;
  std::uint64_t digest = kFnvOffset;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const core::ScenarioConfig sc = fleet::node_scenario(fc, i);
    in.streams.push_back(fleet::node_stream(fc, i));
    in.configs.push_back(core::dump_scenario(sc));
    in.names.push_back("node-" + std::to_string(i));
    std::istringstream is{in.configs.back()};
    const core::RunResult r =
        core::run_scenario(core::load_scenario(is), in.streams.back());
    in.expected.push_back(core::run_summary_text(r));
    rep.sim.add(r);
    const core::RunResult direct = core::run_scenario(sc, in.streams.back());
    if (core::run_summary_text(direct) != in.expected.back()) {
      ++in.roundtrip_mismatches;
    }
    in.events += in.streams.back().size();
    digest = digest_events(in.streams.back(), digest);
    digest = fnv1a(in.configs.back().data(), in.configs.back().size(), digest);
  }
  rep.input_digest = digest;
  if (in.roundtrip_mismatches != 0) {
    std::cout << "[gateway_fleet] known defect: " << in.roundtrip_mismatches
              << " of " << kNodes
              << " node summaries change when the node scenario goes through "
                 "dump_scenario/load_scenario\n";
  }
  rep.note("config_roundtrip_mismatches",
           std::to_string(in.roundtrip_mismatches));
  return in;
}

/// net::Server on its own thread; stopped and joined on destruction.
class GatewayThread {
 public:
  explicit GatewayThread(const std::string& socket_path)
      : server_{options(socket_path)}, thread_{[this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }} {}
  ~GatewayThread() { stop(); }
  GatewayThread(const GatewayThread&) = delete;
  GatewayThread& operator=(const GatewayThread&) = delete;

  /// Move the server thread onto `cpu`.
  void pin(int cpu) { pin_thread(thread_.native_handle(), cpu); }

  /// Stop the server, join its thread, and return what run() threw ("" if
  /// nothing).
  std::string stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
    return error_;
  }

 private:
  static net::ServerOptions options(const std::string& socket_path) {
    net::ServerOptions so;
    so.uds_path = socket_path;
    return so;
  }

  net::Server server_;
  std::string error_;
  std::thread thread_;  // last: joins before the members it uses go away
};

struct SessionTiming {
  double setup_s{0.0};    ///< connect -> HELLO_ACK
  double total_ms{0.0};   ///< connect -> SUMMARY
  double connect_ms{0.0};
  double hello_ms{0.0};
  double send_s{0.0};
  double drain_ms{0.0};
};

struct PassResult {
  double wall_s{0.0};
  std::uint64_t nacks{0};
};

/// One closed-loop pass over every node. Client calls become spans when a
/// tracer is given; each session also gets an envelope on its slot's lane.
PassResult fleet_pass(const std::string& sock, const Inputs& in, Tracer* tr,
                      std::uint64_t op_base, std::vector<SessionTiming>& timing,
                      Report& rep) {
  struct Slot {
    std::size_t node{0};
    std::optional<net::Client> client;
    std::size_t pos{0};
    std::int64_t start_ns{0};
    SessionTiming t;
  };
  std::array<Slot, kLive> slots;
  std::vector<std::string> summaries(kNodes);
  std::size_t next_node = 0;
  std::size_t live = 0;
  PassResult out;
  net::SendOptions send_options;
  send_options.chunk = kChunk;

  const auto open = [&](Slot& s) {
    if (next_node >= kNodes) return;
    s.node = next_node++;
    s.pos = 0;
    s.t = SessionTiming{};
    const std::uint64_t op = op_base + s.node;
    s.start_ns = now_ns();
    {
      Span c{tr, "net.client.connect", op};
      s.client.emplace(net::Client::connect_uds(sock));
    }
    const std::int64_t connected = now_ns();
    {
      Span h{tr, "net.client.hello", op};
      (void)s.client->hello(in.names[s.node], in.configs[s.node]);
    }
    const std::int64_t acked = now_ns();
    s.t.connect_ms = 1e3 * secs(s.start_ns, connected);
    s.t.hello_ms = 1e3 * secs(connected, acked);
    s.t.setup_s = secs(s.start_ns, acked);
    ++live;
  };

  const std::int64_t start = now_ns();
  try {
    for (Slot& s : slots) open(s);
    while (live > 0) {
      for (std::size_t k = 0; k < kLive; ++k) {
        Slot& s = slots[k];
        if (!s.client) continue;
        const std::uint64_t op = op_base + s.node;
        const aer::EventStream& stream = in.streams[s.node];
        if (s.pos < stream.size()) {
          const std::int64_t t0 = now_ns();
          Span send{tr, "net.client.send", op};
          s.pos += static_cast<std::size_t>(
              s.client->send_some(stream, s.pos, kChunk, send_options));
          s.t.send_s += secs(t0, now_ns());
        }
        if (s.pos < stream.size()) continue;
        const std::int64_t t0 = now_ns();
        {
          Span d{tr, "net.client.drain", op};
          summaries[s.node] = s.client->drain();
        }
        const std::int64_t end = now_ns();
        s.t.drain_ms = 1e3 * secs(t0, end);
        s.t.total_ms = 1e3 * secs(s.start_ns, end);
        if (tr) tr->envelope("gateway.session", s.start_ns, end, op, 1 + k);
        timing.push_back(s.t);
        s.client.reset();
        --live;
        open(s);
      }
    }
  } catch (const std::exception& e) {
    const std::string what = e.what();
    if (what.find("NACK") != std::string::npos) ++out.nacks;
    rep.fail("gateway: " + what);
  }
  out.wall_s = secs(start, now_ns());

  rep.attempted += kNodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (summaries[i] != in.expected[i]) {
      rep.fail("gateway: " + in.names[i] +
               " SUMMARY differs from batch run_scenario");
    }
  }
  return out;
}

std::string socket_path(const Options& o) { return o.work_dir + "/gw.sock"; }

void end_to_end(const Options& o, const Inputs& in, Report& rep) {
  constexpr std::size_t kMaxPasses = 256;
  std::vector<SessionTiming> timing;
  std::vector<double> setup;
  preallocate(timing, kNodes);
  preallocate(setup, kNodes * kMaxPasses);
  PassLog log{kMaxPasses, kNodes};
  RssMeter rss;
  rss.start();
  GatewayThread gateway{socket_path(o)};
  CpuRotation rotation;
  rep.note("cpus_rotated", std::to_string(rotation.cpus()));
  double window = 0.0;
  const Deadline hard_stop{o.seconds * 4.0};
  while (log.passes() == 0 ||
         (window < o.seconds && !hard_stop.passed() && !log.full())) {
    const std::uint64_t failed_before = rep.failed;
    timing.clear();
    gateway.pin(rotation.next());
    const PassResult p = fleet_pass(socket_path(o), in, nullptr, 0, timing,
                                    rep);
    window += p.wall_s;
    for (const auto& t : timing) {
      log.add_op(t.total_ms);
      setup.push_back(t.setup_s);
    }
    log.end_pass(static_cast<double>(in.events) / p.wall_s);
    if (rep.failed != failed_before) break;
  }
  const double peak_rss_mib = rss.peak_growth_mib();
  if (const std::string e = gateway.stop(); !e.empty()) {
    rep.fail("gateway server: " + e);
  }
  report_fastest(log, window, rep);
  rep.metric("peak_rss_mb", peak_rss_mib, "MiB");
  rep.metric("setup_s", quantile(setup, 0.1), "s");
}

/// The gateway's per-session server work, re-timed on this thread through
/// the same public calls on the run's inputs.
struct Retimed {
  std::vector<double> load_us, build_us, session_us;
  double encode_s{0.0};
  double decode_s{0.0};
  double work_s{0.0};  ///< everything above, summed over one pass of nodes
};

Retimed retime_server_work(const Inputs& in, Tracer& tr, Report& rep) {
  Retimed out;
  for (std::size_t i = 0; i < kNodes; ++i) {
    Span node{&tr, "gateway.retime", 9'000'000 + i};
    core::ScenarioConfig sc;
    std::int64_t t0 = now_ns();
    {
      Span s{&tr, "core.config.load"};
      std::istringstream is{in.configs[i]};
      sc = core::load_scenario(is);
    }
    std::int64_t t1 = now_ns();
    out.load_us.push_back(1e6 * secs(t0, t1));
    std::unique_ptr<core::Session> session;
    {
      Span s{&tr, "core.session.build"};
      session = std::make_unique<core::Session>(sc);
    }
    t0 = now_ns();
    out.build_us.push_back(1e6 * secs(t1, t0));
    session.reset();
    t0 = now_ns();
    core::RunResult r;
    {
      Span s{&tr, "core.run_scenario"};
      r = core::run_scenario(sc, in.streams[i]);
    }
    t1 = now_ns();
    out.session_us.push_back(1e6 * secs(t0, t1));
    ++rep.attempted;
    if (core::run_summary_text(r) != in.expected[i]) {
      rep.fail("gateway: re-timed run_scenario differs for " + in.names[i]);
    }
    const aer::EventStream& stream = in.streams[i];
    std::vector<std::vector<std::uint8_t>> frames;
    t0 = now_ns();
    {
      Span s{&tr, "net.wire.encode"};
      for (std::size_t pos = 0; pos < stream.size(); pos += kChunk) {
        const std::size_t n = std::min(kChunk, stream.size() - pos);
        frames.push_back(net::encode_frame(net::MsgType::kData, 1,
                                           net::encode_data(stream, pos, n)));
      }
    }
    t1 = now_ns();
    out.encode_s += secs(t0, t1);
    std::size_t decoded = 0;
    {
      Span s{&tr, "net.wire.decode"};
      net::Decoder dec;
      for (const auto& f : frames) {
        dec.feed(f);
        decoded += net::decode_data(dec.next()->payload).size();
      }
    }
    out.decode_s += secs(t1, now_ns());
    if (decoded != stream.size()) {
      rep.fail("gateway: wire round trip lost events");
    }
  }
  double sum = out.encode_s + out.decode_s;
  for (const double v : out.load_us) sum += 1e-6 * v;
  for (const double v : out.build_us) sum += 1e-6 * v;
  for (const double v : out.session_us) sum += 1e-6 * v;
  out.work_s = sum;
  return out;
}

void traced(const Options& o, const Inputs& in, Report& rep) {
  GatewayThread gateway{socket_path(o)};
  CpuRotation rotation;
  std::vector<SessionTiming> untimed;
  const auto untraced_pass = [&] {
    untimed.clear();
    return fleet_pass(socket_path(o), in, nullptr, 0, untimed, rep).wall_s;
  };
  // Untraced and traced passes alternate (U T U ... T U), so drift over
  // the run weighs on both sides of the tracing-overhead comparison alike.
  // Each traced pass shares its CPU with the untraced pass after it.
  Tracer tr;
  gateway.pin(rotation.next());
  std::vector<double> untraced{untraced_pass()};
  std::vector<SessionTiming> timing;
  std::vector<double> traced_wall;
  std::uint64_t nacks = 0;
  const Deadline alt_end{0.7 * o.seconds};
  while (traced_wall.size() < 2 || !alt_end.passed()) {
    gateway.pin(rotation.next());
    tr.start_window();
    const auto p = fleet_pass(socket_path(o), in, &tr,
                              kNodes * (traced_wall.size() + 1), timing, rep);
    tr.stop_window();
    traced_wall.push_back(p.wall_s);
    nacks += p.nacks;
    untraced.push_back(untraced_pass());
  }
  if (const std::string e = gateway.stop(); !e.empty()) {
    rep.fail("gateway server: " + e);
  }
  tr.start_window();
  const Retimed rt = retime_server_work(in, tr, rep);
  tr.stop_window();

  std::vector<double> connect, hello, drain;
  double client_s = 0.0;
  double send_s = 0.0;
  for (const auto& t : timing) {
    connect.push_back(t.connect_ms);
    hello.push_back(t.hello_ms);
    drain.push_back(t.drain_ms);
    send_s += t.send_s;
    client_s += 1e-3 * (t.connect_ms + t.hello_ms + t.drain_ms) + t.send_s;
  }
  const auto n = static_cast<double>(traced_wall.size());
  const auto acc = tr.account();
  const double overhead_frac = median(traced_wall) / median(untraced) - 1.0;
  std::cout << "\n[gateway_fleet] traced run: " << traced_wall.size()
            << " traced passes between " << untraced.size() << " untraced, "
            << kNodes << " sessions each, then one re-timed pass of the "
               "server-side calls\n";
  print_accounting(std::cout, acc, overhead_frac);

  rep.metric("net.client.connect_ms", median(connect), "ms");
  rep.metric("net.client.hello_ms", median(hello), "ms");
  rep.metric("net.client.send_s", send_s / n, "s");
  rep.metric("net.client.drain_ms_p50", quantile(drain, 0.5), "ms");
  rep.metric("net.client.drain_ms_p90", quantile(drain, 0.9), "ms");
  rep.metric("core.config.load_us", median(rt.load_us), "us");
  rep.metric("core.session.build_us", median(rt.build_us), "us");
  rep.metric("core.run_scenario.session_us", median(rt.session_us), "us");
  const auto events = static_cast<double>(in.events);
  rep.metric("net.wire.encode_ns_per_event", 1e9 * rt.encode_s / events, "ns");
  rep.metric("net.wire.decode_ns_per_event", 1e9 * rt.decode_s / events, "ns");
  rep.metric("net.transport_residual_frac", 1.0 - rt.work_s / (client_s / n),
             "fraction");
  rep.metric("core.config.roundtrip_mismatches",
             static_cast<double>(in.roundtrip_mismatches), "count");
  rep.metric("net.sessions", static_cast<double>(timing.size()) / n, "count");
  rep.metric("net.nacks", static_cast<double>(nacks), "count");
  rep.metric("trace.residual_frac", acc.residual_s / acc.wall_s, "fraction");
  rep.metric("trace.overhead_frac", overhead_frac, "fraction");
  tr.write_chrome_json(o.out_dir + "/trace-gateway_fleet-seed" +
                           std::to_string(o.seed) + ".json",
                       "perfbench gateway_fleet");
}

}  // namespace

Report run_gateway_fleet(const Options& options) {
  Report rep;
  const Inputs in = make_inputs(runtime::derive_seed(options.seed, 3), rep);
  rep.note("threads", "2 (client + gateway server, sharing one CPU)");
  rep.note("sessions_per_pass", std::to_string(kNodes));
  rep.note("live_connections", std::to_string(kLive));
  rep.note("events_per_pass", std::to_string(in.events));
  if (options.trace) {
    traced(options, in, rep);
  } else {
    end_to_end(options, in, rep);
  }
  return rep;
}

}  // namespace perfbench
