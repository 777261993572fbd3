// aetr-serve — service-mode harness over the incremental core::Session.
//
//   aetr-serve gen --out FILE [--events N] [--rate-hz R] [--seed S]
//              [--addr-range A]
//       Generate a deterministic Poisson stream: AEDAT 2.0 when FILE ends
//       in .aedat, the line-oriented aer trace format otherwise.
//       `--out /dev/stdout` pipes the stream into `run --in -`.
//
//   aetr-serve run --in FILE|- [--config FILE] [--out-dir DIR]
//              [--snapshot FILE] [--snapshot-interval-sec S] [--resume]
//              [--no-history] [--pace-us N] [--pace-every N]
//              [--stats-json FILE]
//   aetr-serve run [--config FILE] --dump-config
//       Ingest a stream — an .aedat file, a trace file, a FIFO, or stdin
//       ('-') — through the gateway's core::IngestPump into a Session:
//       advance simulated time under backpressure, checkpoint the full
//       simulator state to --snapshot every --snapshot-interval-sec (0 =
//       off, the default, or 1e-12 .. 9.22e6 s) of *simulated* time
//       (atomically: tmp + rename, so a kill never leaves a torn blob),
//       and on end-of-stream or SIGTERM/SIGINT drain gracefully: finish()
//       the session and write the run summary.
//
//       With --resume the session first restores the last snapshot and
//       skips the events it already consumed, continuing byte-identically
//       to a run that was never interrupted — the `serve-kill-resume` row
//       of tests/determinism.py SIGKILLs a paced run mid-stream and diffs
//       the resumed summary against an uninterrupted one.
//
//       summary.txt under --out-dir holds only deterministic counters (no
//       wall-clock data), so `diff -r` across runs is meaningful.
//       --stats-json lands wall-clock ingest/snapshot timings and peak RSS
//       outside the out-dir, where they cannot perturb that diff.
//
//       --dump-config prints the effective scenario (defaults overlaid
//       with --config) with every key and exits without reading --in; it
//       is the way to list every config key. A --config file with an
//       unknown key or bad value exits 2 with a did-you-mean hint.
//
//   aetr-serve listen (--uds PATH | --tcp [--port P]) [--config FILE]
//              [--out-dir DIR] [--snapshot-dir DIR]
//              [--snapshot-interval-sec S] [--resume] [--credit-window N]
//              [--max-sessions N] [--exit-after-sessions N]
//              [--port-file FILE] [--no-history]
//       The multi-session gateway (docs/SERVICE.md "Socket transport"):
//       hosts one core::Session per connection over the framed wire
//       protocol, each with its own periodic snapshots under
//       --snapshot-dir and a per-session summary-<name>.txt under
//       --out-dir, fed through `run`'s pump; a HELLO may not change
//       telemetry.* or session.max_buffered_events. SIGTERM/SIGINT drains
//       every live session before exit;
//       --resume restores <name>.snap at HELLO so a SIGKILLed gateway
//       continues byte-identically.
//
//   aetr-serve send --in FILE --name NAME (--uds PATH | --host H --port P)
//              [--config FILE] [--chunk N] [--pace-us N] [--pace-every N]
//              [--snapshot-every N]
//       Stream a stream file into a gateway session and print the drained
//       summary on stdout. Against a resumed gateway the HELLO_ACK's
//       events_fed skips what the session already consumed.
//
//   aetr-serve bridge (--uds PATH | --host H --port P) [--fleet FILE]
//              [--nodes N] [--events-per-node N] [--concurrency C]
//              [--chunk N] [--out-dir DIR]
//       Fleet bridge: stream every node of an aetr::fleet config as a live
//       gateway session (round-robin interleaved DATA), writing each
//       node's summary under --out-dir.
//
// Exit codes: 0 = completed (including a graceful signal drain), 2 = usage
// error (for `run`, also a --config file that does not load), 3 = runtime
// failure.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "aer/aedat.hpp"
#include "aer/event.hpp"
#include "aer/trace.hpp"
#include "core/config_io.hpp"
#include "core/ingest.hpp"
#include "core/session.hpp"
#include "core/summary.hpp"
#include "fleet/fleet_io.hpp"
#include "gen/sources.hpp"
#include "net/client.hpp"
#include "net/fleet_bridge.hpp"
#include "net/server.hpp"
#include "util/artifacts.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(std::ostream& os) {
  os << "usage:\n"
        "  aetr-serve gen --out FILE [--events N] [--rate-hz R] [--seed S]"
        " [--addr-range A]\n"
        "  aetr-serve run --in FILE|- [--config FILE] [--out-dir DIR]\n"
        "             [--snapshot FILE] [--snapshot-interval-sec S]"
        " [--resume]\n"
        "             [--no-history] [--pace-us N] [--pace-every N]"
        " [--stats-json FILE]\n"
        "  aetr-serve run [--config FILE] --dump-config\n"
        "  aetr-serve listen (--uds PATH | --tcp [--port P])"
        " [--config FILE]\n"
        "             [--out-dir DIR] [--snapshot-dir DIR]"
        " [--snapshot-interval-sec S]\n"
        "             [--resume] [--credit-window N] [--max-sessions N]\n"
        "             [--exit-after-sessions N] [--port-file FILE]"
        " [--no-history]\n"
        "  aetr-serve send --in FILE --name NAME"
        " (--uds PATH | --host H --port P)\n"
        "             [--config FILE] [--chunk N] [--pace-us N]"
        " [--pace-every N]\n"
        "             [--snapshot-every N]\n"
        "  aetr-serve bridge (--uds PATH | --host H --port P)"
        " [--fleet FILE]\n"
        "             [--nodes N] [--events-per-node N] [--concurrency C]"
        " [--chunk N]\n"
        "             [--out-dir DIR]\n";
  return &os == &std::cerr ? 2 : 0;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end) return false;
  out = v;
  return true;
}

bool parse_f64(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end) return false;
  out = v;
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double wall_sec(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

// ---------------------------------------------------------------------------
// gen

int cmd_gen(int argc, char** argv) {
  std::string out;
  std::uint64_t events = 100000;
  std::uint64_t seed = 1;
  std::uint64_t addr_range = 256;
  double rate_hz = 50e3;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    if (a == "--out" && has_next) {
      out = argv[++i];
    } else if (a == "--events" && has_next) {
      if (!parse_u64(argv[++i], events)) return usage(std::cerr);
    } else if (a == "--seed" && has_next) {
      if (!parse_u64(argv[++i], seed)) return usage(std::cerr);
    } else if (a == "--addr-range" && has_next) {
      if (!parse_u64(argv[++i], addr_range) || addr_range == 0 ||
          addr_range > 0xffff) {
        return usage(std::cerr);
      }
    } else if (a == "--rate-hz" && has_next) {
      if (!parse_f64(argv[++i], rate_hz) || rate_hz <= 0.0) {
        return usage(std::cerr);
      }
    } else {
      std::cerr << "aetr-serve gen: unknown argument " << a << '\n';
      return usage(std::cerr);
    }
  }
  if (out.empty()) {
    std::cerr << "aetr-serve gen: --out is required\n";
    return usage(std::cerr);
  }
  aetr::gen::PoissonSource source{rate_hz,
                                  static_cast<std::uint16_t>(addr_range),
                                  seed};
  const aetr::aer::EventStream stream =
      aetr::gen::take(source, static_cast<std::size_t>(events));
  if (ends_with(out, ".aedat")) {
    aetr::aer::save_aedat(out, stream);
  } else {
    aetr::aer::save_trace(out, stream);
  }
  // Status goes to stderr so `--out /dev/stdout` can pipe into `run --in -`.
  std::cerr << "aetr-serve: wrote " << stream.size() << " events to " << out
            << '\n';
  return 0;
}

// ---------------------------------------------------------------------------
// run

constexpr const char* kIntervalRange =
    "--snapshot-interval-sec must be 0 (off) or from 1e-12 to 9.22e6 s";

struct RunArgs {
  std::string in;
  std::string config;
  bool show_config = false;
  std::string out_dir;
  std::string snapshot;
  std::string stats_json;
  double snapshot_interval_sec = 0.0;  // 0: periodic snapshots off
  bool resume = false;
  bool keep_history = true;
  std::uint64_t pace_us = 0;
  std::uint64_t pace_every = 1000;
};

long max_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

int cmd_run(const RunArgs& args,
            const aetr::core::ScenarioConfig& scenario) {
  aetr::core::Session session{scenario};
  if (!args.keep_history) session.set_keep_history(false);

  const auto t0 = std::chrono::steady_clock::now();
  double restore_sec = 0.0;
  std::uint64_t to_skip = 0;
  if (args.resume) {
    const auto blob = aetr::net::read_blob(args.snapshot);
    const auto r0 = std::chrono::steady_clock::now();
    session.restore(blob);
    restore_sec = wall_sec(r0);
    // Everything the snapshot already consumed (submitted or still in the
    // session's buffer) replays from the blob, not from the stream.
    to_skip = session.events_fed();
    std::cerr << "aetr-serve: resumed at " << session.position().count_ps()
              << " ps, skipping " << to_skip << " already-fed events\n";
  }

  std::uint64_t snapshots = 0;
  double snapshot_sec = 0.0;
  const auto write_snapshot = [&] {
    const auto s0 = std::chrono::steady_clock::now();
    aetr::net::write_blob_atomic(args.snapshot, session.snapshot());
    snapshot_sec += wall_sec(s0);
    ++snapshots;
    return true;
  };
  aetr::core::IngestPump pump{
      session, args.snapshot.empty() ? 0.0 : args.snapshot_interval_sec,
      write_snapshot};

  // A trace file, FIFO or stdin is parsed a line at a time and each event
  // pushed once parsed, never held over a further blocking read; an .aedat
  // file (a binary format) is loaded whole.
  std::ifstream file;
  std::optional<aetr::aer::TraceReader> trace;
  aetr::aer::EventStream loaded;
  if (ends_with(args.in, ".aedat")) {
    loaded = aetr::aer::load_aedat(args.in);
  } else {
    if (args.in != "-") file.open(args.in);
    if (args.in != "-" && !file) {
      throw std::runtime_error("aetr-serve: cannot open " + args.in);
    }
    trace.emplace(args.in == "-" ? std::cin : file);
  }
  std::size_t at = 0;
  std::uint64_t ingested = 0;
  while (g_stop == 0) {
    const std::optional<aetr::aer::Event> ev =
        trace ? trace->next()
              : at < loaded.size() ? std::optional{loaded[at++]} : std::nullopt;
    if (!ev) break;
    if (to_skip > 0) {
      --to_skip;
      continue;
    }
    if (pump.push({&*ev, 1}) == 0) {
      throw std::runtime_error("aetr-serve: input event " +
                               std::to_string(session.events_fed() + 1) +
                               " is earlier than the one before it");
    }
    if (++ingested % args.pace_every == 0 && args.pace_us > 0) {
      usleep(static_cast<useconds_t>(args.pace_us));
    }
  }
  const double ingest_sec = wall_sec(t0);
  const bool drained_by_signal = g_stop != 0;

  // Graceful drain: end-of-stream and SIGTERM land in the same place —
  // run the buffered remainder to completion and write the summary.
  const aetr::core::RunResult result = session.finish();
  const std::string out_dir = aetr::util::artifact_dir(
      args.out_dir.empty() ? "results/serve" : args.out_dir);
  aetr::core::write_run_summary_file(out_dir + "/summary.txt", result);

  if (!args.stats_json.empty()) {
    std::ofstream js{args.stats_json, std::ios::trunc};
    if (!js) {
      throw std::runtime_error("aetr-serve: cannot open " + args.stats_json);
    }
    js << "{\n"
       << "  \"ingested_events\": " << ingested << ",\n"
       << "  \"ingest_sec\": " << ingest_sec << ",\n"
       << "  \"events_per_sec\": "
       << (ingest_sec > 0.0 ? static_cast<double>(ingested) / ingest_sec
                            : 0.0)
       << ",\n"
       << "  \"snapshots\": " << snapshots << ",\n"
       << "  \"snapshot_sec_total\": " << snapshot_sec << ",\n"
       << "  \"snapshot_sec_mean\": "
       << (snapshots > 0 ? snapshot_sec / static_cast<double>(snapshots)
                         : 0.0)
       << ",\n"
       << "  \"restore_sec\": " << restore_sec << ",\n"
       << "  \"max_rss_kb\": " << max_rss_kb() << ",\n"
       << "  \"drained_by_signal\": " << (drained_by_signal ? "true" : "false")
       << "\n}\n";
  }

  std::cout << "aetr-serve: " << (drained_by_signal ? "drained" : "completed")
            << " after " << ingested << " events, " << snapshots
            << " snapshots; summary in " << out_dir << "/summary.txt\n";
  return 0;
}

// ---------------------------------------------------------------------------
// listen

aetr::net::Server* g_server = nullptr;

void on_listen_signal(int) {
  // atomic store + pipe write: both async-signal-safe.
  if (g_server != nullptr) g_server->request_stop();
}

aetr::aer::EventStream load_stream(const std::string& path) {
  return ends_with(path, ".aedat") ? aetr::aer::load_aedat(path)
                                   : aetr::aer::load_trace(path);
}

int cmd_listen(int argc, char** argv) {
  aetr::net::ServerOptions options;
  std::string config;
  std::string port_file;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    std::uint64_t u = 0;
    if (a == "--uds" && has_next) {
      options.uds_path = argv[++i];
    } else if (a == "--tcp") {
      options.tcp = true;
    } else if (a == "--port" && has_next) {
      if (!parse_u64(argv[++i], u) || u > 65535) return usage(std::cerr);
      options.tcp = true;
      options.tcp_port = static_cast<int>(u);
    } else if (a == "--port-file" && has_next) {
      port_file = argv[++i];
    } else if (a == "--config" && has_next) {
      config = argv[++i];
    } else if (a == "--out-dir" && has_next) {
      options.gateway.out_dir = argv[++i];
    } else if (a == "--snapshot-dir" && has_next) {
      options.gateway.snapshot_dir = argv[++i];
    } else if (a == "--snapshot-interval-sec" && has_next) {
      if (!parse_f64(argv[++i], options.gateway.snapshot_interval_sec) ||
          !aetr::core::snapshot_interval(
              options.gateway.snapshot_interval_sec)) {
        std::cerr << "aetr-serve listen: " << kIntervalRange << '\n';
        return usage(std::cerr);
      }
    } else if (a == "--resume") {
      options.gateway.resume = true;
    } else if (a == "--no-history") {
      options.gateway.keep_history = false;
    } else if (a == "--credit-window" && has_next) {
      if (!parse_u64(argv[++i], options.gateway.credit_window) ||
          options.gateway.credit_window == 0) {
        return usage(std::cerr);
      }
    } else if (a == "--max-sessions" && has_next) {
      if (!parse_u64(argv[++i], u) || u == 0) return usage(std::cerr);
      options.max_connections = static_cast<std::size_t>(u);
    } else if (a == "--exit-after-sessions" && has_next) {
      if (!parse_u64(argv[++i], u)) return usage(std::cerr);
      options.exit_after_sessions = static_cast<std::size_t>(u);
    } else {
      std::cerr << "aetr-serve listen: unknown argument " << a << '\n';
      return usage(std::cerr);
    }
  }
  if (!options.tcp && options.uds_path.empty()) {
    std::cerr << "aetr-serve listen: need --uds and/or --tcp\n";
    return usage(std::cerr);
  }
  if (!config.empty()) {
    options.gateway.default_scenario = aetr::core::load_scenario_file(config);
  }
  if (!options.gateway.out_dir.empty()) {
    options.gateway.out_dir =
        aetr::util::artifact_dir(options.gateway.out_dir);
  }
  if (!options.gateway.snapshot_dir.empty()) {
    options.gateway.snapshot_dir =
        aetr::util::artifact_dir(options.gateway.snapshot_dir);
  }

  aetr::net::Server server{std::move(options)};
  if (!port_file.empty()) {
    std::ofstream pf{port_file, std::ios::trunc};
    pf << server.tcp_port() << '\n';
    if (!pf) {
      std::cerr << "aetr-serve listen: cannot write " << port_file << '\n';
      return 3;
    }
  }
  g_server = &server;
  std::signal(SIGTERM, on_listen_signal);
  std::signal(SIGINT, on_listen_signal);
  std::cerr << "aetr-serve: listening"
            << (server.tcp_port() != 0
                    ? " tcp 127.0.0.1:" + std::to_string(server.tcp_port())
                    : std::string{})
            << '\n';
  server.run();
  g_server = nullptr;
  std::cout << "aetr-serve: gateway drained after "
            << server.sessions_completed() << " sessions\n";
  return 0;
}

// ---------------------------------------------------------------------------
// send

int cmd_send(int argc, char** argv) {
  std::string in;
  std::string name;
  std::string uds;
  std::string host = "127.0.0.1";
  std::string config;
  int port = 0;
  aetr::net::SendOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    std::uint64_t u = 0;
    if (a == "--in" && has_next) {
      in = argv[++i];
    } else if (a == "--name" && has_next) {
      name = argv[++i];
    } else if (a == "--uds" && has_next) {
      uds = argv[++i];
    } else if (a == "--host" && has_next) {
      host = argv[++i];
    } else if (a == "--port" && has_next) {
      if (!parse_u64(argv[++i], u) || u == 0 || u > 65535) {
        return usage(std::cerr);
      }
      port = static_cast<int>(u);
    } else if (a == "--config" && has_next) {
      config = argv[++i];
    } else if (a == "--chunk" && has_next) {
      if (!parse_u64(argv[++i], u) || u == 0) return usage(std::cerr);
      options.chunk = static_cast<std::size_t>(u);
    } else if (a == "--pace-us" && has_next) {
      if (!parse_u64(argv[++i], options.pace_us)) return usage(std::cerr);
    } else if (a == "--pace-every" && has_next) {
      if (!parse_u64(argv[++i], options.pace_every) ||
          options.pace_every == 0) {
        return usage(std::cerr);
      }
    } else if (a == "--snapshot-every" && has_next) {
      if (!parse_u64(argv[++i], options.snapshot_every)) {
        return usage(std::cerr);
      }
    } else {
      std::cerr << "aetr-serve send: unknown argument " << a << '\n';
      return usage(std::cerr);
    }
  }
  if (in.empty() || name.empty() || (uds.empty() && port == 0)) {
    std::cerr << "aetr-serve send: need --in, --name and a destination\n";
    return usage(std::cerr);
  }
  std::string config_text;
  if (!config.empty()) {
    config_text =
        aetr::core::dump_scenario(aetr::core::load_scenario_file(config));
  }
  const aetr::aer::EventStream stream = load_stream(in);

  aetr::net::Client client = uds.empty()
                                 ? aetr::net::Client::connect_tcp(host, port)
                                 : aetr::net::Client::connect_uds(uds);
  const aetr::net::HelloAck ack = client.hello(name, config_text);
  const auto skip =
      std::min(static_cast<std::size_t>(ack.events_fed), stream.size());
  if (skip > 0) {
    std::cerr << "aetr-serve send: session already consumed " << skip
              << " events, skipping\n";
  }
  const std::uint64_t sent = client.send_events(stream, skip, options);
  const std::string summary = client.drain();
  std::cerr << "aetr-serve send: streamed " << sent << " events\n";
  std::cout << summary;
  return 0;
}

// ---------------------------------------------------------------------------
// bridge

int cmd_bridge(int argc, char** argv) {
  std::string uds;
  std::string host = "127.0.0.1";
  std::string fleet_file;
  std::string out_dir;
  int port = 0;
  bool have_nodes = false;
  bool have_events = false;
  std::uint64_t nodes = 0;
  std::uint64_t events_per_node = 0;
  aetr::net::BridgeOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_next = i + 1 < argc;
    std::uint64_t u = 0;
    if (a == "--uds" && has_next) {
      uds = argv[++i];
    } else if (a == "--host" && has_next) {
      host = argv[++i];
    } else if (a == "--port" && has_next) {
      if (!parse_u64(argv[++i], u) || u == 0 || u > 65535) {
        return usage(std::cerr);
      }
      port = static_cast<int>(u);
    } else if (a == "--fleet" && has_next) {
      fleet_file = argv[++i];
    } else if (a == "--nodes" && has_next) {
      if (!parse_u64(argv[++i], nodes) || nodes == 0) return usage(std::cerr);
      have_nodes = true;
    } else if (a == "--events-per-node" && has_next) {
      if (!parse_u64(argv[++i], events_per_node) || events_per_node == 0) {
        return usage(std::cerr);
      }
      have_events = true;
    } else if (a == "--concurrency" && has_next) {
      if (!parse_u64(argv[++i], u) || u == 0) return usage(std::cerr);
      options.concurrency = static_cast<std::size_t>(u);
    } else if (a == "--chunk" && has_next) {
      if (!parse_u64(argv[++i], u) || u == 0) return usage(std::cerr);
      options.chunk = static_cast<std::size_t>(u);
    } else if (a == "--out-dir" && has_next) {
      out_dir = argv[++i];
    } else {
      std::cerr << "aetr-serve bridge: unknown argument " << a << '\n';
      return usage(std::cerr);
    }
  }
  if (uds.empty() && port == 0) {
    std::cerr << "aetr-serve bridge: need --uds or --host/--port\n";
    return usage(std::cerr);
  }
  aetr::fleet::FleetConfig fleet;
  if (!fleet_file.empty()) {
    fleet = aetr::fleet::load_fleet_file(fleet_file);
  } else {
    fleet.nodes = 4;
    fleet.events_per_node = 500;
  }
  if (have_nodes) fleet.nodes = static_cast<std::size_t>(nodes);
  if (have_events) {
    fleet.events_per_node = static_cast<std::size_t>(events_per_node);
  }

  aetr::net::BridgeEndpoint endpoint;
  endpoint.uds_path = uds;
  endpoint.tcp_host = host;
  endpoint.tcp_port = port;
  const aetr::net::BridgeResult result =
      aetr::net::run_fleet_bridge(fleet, endpoint, options);

  if (!out_dir.empty()) {
    const std::string dir = aetr::util::artifact_dir(out_dir);
    for (std::size_t i = 0; i < result.summaries.size(); ++i) {
      const std::string path =
          dir + "/summary-" + options.name_prefix + std::to_string(i) + ".txt";
      std::ofstream os{path, std::ios::trunc};
      if (!os) throw std::runtime_error("aetr-serve: cannot open " + path);
      os << result.summaries[i];
    }
  }
  std::cout << "aetr-serve bridge: " << result.sessions << " sessions, "
            << result.events_streamed << " events streamed\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") return usage(std::cout);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  try {
    if (cmd == "gen") return cmd_gen(argc - 2, argv + 2);
    if (cmd == "listen") return cmd_listen(argc - 2, argv + 2);
    if (cmd == "send") return cmd_send(argc - 2, argv + 2);
    if (cmd == "bridge") return cmd_bridge(argc - 2, argv + 2);
    if (cmd == "run") {
      RunArgs args;
      for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_next = i + 1 < argc;
        if (a == "--in" && has_next) {
          args.in = argv[++i];
        } else if (a == "--config" && has_next) {
          args.config = argv[++i];
        } else if (a == "--dump-config") {
          args.show_config = true;
        } else if (a == "--out-dir" && has_next) {
          args.out_dir = argv[++i];
        } else if (a == "--snapshot" && has_next) {
          args.snapshot = argv[++i];
        } else if (a == "--snapshot-interval-sec" && has_next) {
          if (!parse_f64(argv[++i], args.snapshot_interval_sec) ||
              !aetr::core::snapshot_interval(args.snapshot_interval_sec)) {
            std::cerr << "aetr-serve run: " << kIntervalRange << '\n';
            return usage(std::cerr);
          }
        } else if (a == "--stats-json" && has_next) {
          args.stats_json = argv[++i];
        } else if (a == "--resume") {
          args.resume = true;
        } else if (a == "--no-history") {
          args.keep_history = false;
        } else if (a == "--pace-us" && has_next) {
          if (!parse_u64(argv[++i], args.pace_us)) return usage(std::cerr);
        } else if (a == "--pace-every" && has_next) {
          if (!parse_u64(argv[++i], args.pace_every) || args.pace_every == 0) {
            return usage(std::cerr);
          }
        } else {
          std::cerr << "aetr-serve run: unknown argument " << a << '\n';
          return usage(std::cerr);
        }
      }
      aetr::core::ScenarioConfig scenario;
      if (!args.config.empty()) {
        try {
          scenario = aetr::core::load_scenario_file(args.config);
        } catch (const std::exception& e) {
          std::cerr << "aetr-serve run: " << e.what() << '\n';
          return 2;
        }
      }
      if (args.show_config) {
        std::cout << aetr::core::dump_scenario(scenario);
        return 0;
      }
      if (args.in.empty()) {
        std::cerr << "aetr-serve run: --in is required\n";
        return usage(std::cerr);
      }
      if (args.resume && args.snapshot.empty()) {
        std::cerr << "aetr-serve run: --resume requires --snapshot\n";
        return usage(std::cerr);
      }
      return cmd_run(args, scenario);
    }
  } catch (const std::exception& e) {
    std::cerr << "aetr-serve: " << e.what() << '\n';
    return 3;
  }
  std::cerr << "aetr-serve: unknown command " << cmd << '\n';
  return usage(std::cerr);
}
