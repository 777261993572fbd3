// stream_snapshot: one long-lived service session driven in-process
// through net::Connection::on_bytes (no sockets). 1,000,000 Poisson events
// at 100 kevt/s over 256 addresses (10 s simulated) in 512-event DATA
// frames, session.max_buffered_events = 4096, history off, and a snapshot
// every 0.04 s of simulated time. An op is one DATA frame, including any
// advance or snapshot it triggers.
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/session.hpp"
#include "core/summary.hpp"
#include "gen/sources.hpp"
#include "net/connection.hpp"
#include "net/wire.hpp"
#include "runtime/seed.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aetr;

constexpr std::size_t kEvents = 1'000'000;
constexpr std::size_t kChunk = 512;
constexpr double kRateHz = 100e3;
constexpr std::uint16_t kAddresses = 256;
// 12.8 % of frames snapshot, so the 90th-percentile frame lies inside the
// snapshot frames instead of where they meet the backpressure-advance
// frames (README.md, "End-to-end metrics").
constexpr double kSnapshotSec = 0.04;
const char* const kName = "stream";

using Bytes = std::vector<std::uint8_t>;

struct Inputs {
  aer::EventStream events;
  std::string config_text;
  Bytes hello;
  std::vector<Bytes> data;
  Bytes drain;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  gen::PoissonSource src{kRateHz, kAddresses, seed};
  in.events = gen::take(src, kEvents);
  core::ScenarioConfig sc;
  sc.session.max_buffered_events = 4096;
  in.config_text = core::dump_scenario(sc);
  net::Hello hello;
  hello.session_name = kName;
  hello.config_text = in.config_text;
  in.hello =
      net::encode_frame(net::MsgType::kHello, 0, net::encode_hello(hello));
  for (std::size_t pos = 0; pos < in.events.size(); pos += kChunk) {
    const std::size_t n = std::min(kChunk, in.events.size() - pos);
    in.data.push_back(net::encode_frame(net::MsgType::kData, 0,
                                        net::encode_data(in.events, pos, n)));
  }
  in.drain = net::encode_frame(net::MsgType::kDrain, 0, {});
  return in;
}

core::ScenarioConfig scenario_of(const Inputs& in) {
  std::istringstream is{in.config_text};
  return core::load_scenario(is);
}

net::GatewayConfig gateway_config(const Options& o, const Inputs& in) {
  net::GatewayConfig gw;
  gw.default_scenario = scenario_of(in);
  gw.snapshot_dir = o.work_dir;
  gw.snapshot_interval_sec = kSnapshotSec;
  gw.keep_history = false;
  return gw;
}

std::string snapshot_path(const Options& o) {
  return o.work_dir + "/" + kName + ".snap";
}

std::string parked_path(const Options& o) {
  return o.work_dir + "/" + kName + "-last.snap";
}

/// Move a freshly written snapshot aside, outside the timed op, so the
/// next write_blob_atomic never renames over an existing file. Renaming
/// over (or truncating) a file makes ext4 start writeback at once; files
/// that are only ever created and unlinked stay in the page cache, so the
/// timed writes cost what they would on tmpfs and put no disk I/O into
/// the measurement. The parked copy is the last snapshot the gate restores.
void park_snapshot(const Options& o) {
  const std::string snap = snapshot_path(o);
  if (::access(snap.c_str(), F_OK) != 0) return;
  const std::string parked = parked_path(o);
  ::unlink(parked.c_str());
  if (::rename(snap.c_str(), parked.c_str()) != 0) {
    throw std::runtime_error("stream: cannot park " + snap);
  }
}

bool is_type(const Bytes& frame, net::MsgType t) {
  return frame.size() > 4 && frame[4] == static_cast<std::uint8_t>(t);
}

struct PassResult {
  std::string summary;  ///< "" when the pass failed
  double wall_s{0.0};
};

/// The stream through a real Connection, logged as one pass of `log`.
PassResult connection_pass(const Options& o, const net::GatewayConfig& gw,
                           const Inputs& in, PassLog& log, Report& rep) {
  std::vector<Bytes> replies;
  net::Connection conn{gw, 1,
                       [&replies](const Bytes& b) { replies.push_back(b); }};
  PassResult out;
  const std::int64_t start = now_ns();
  conn.on_bytes(in.hello);
  if (replies.size() != 1 || !is_type(replies[0], net::MsgType::kHelloAck)) {
    rep.fail("stream: HELLO was not acknowledged", in.data.size());
    rep.attempted += in.data.size();
    log.end_pass(0.0);
    return out;
  }
  for (const Bytes& frame : in.data) {
    replies.clear();
    const std::int64_t t0 = now_ns();
    const bool open = conn.on_bytes(frame);
    log.add_op(1e3 * secs(t0, now_ns()));
    park_snapshot(o);
    ++rep.attempted;
    if (!open || replies.size() != 1 ||
        !is_type(replies[0], net::MsgType::kCredit)) {
      rep.fail("stream: DATA frame not credited: " + conn.error());
    }
  }
  replies.clear();
  conn.on_bytes(in.drain);
  out.wall_s = secs(start, now_ns());
  log.end_pass(static_cast<double>(in.events.size()) / out.wall_s);
  net::Decoder dec;
  for (const Bytes& b : replies) dec.feed(b);
  while (auto f = dec.next()) {
    if (f->type == net::MsgType::kSummary) {
      out.summary = net::decode_summary(f->payload).text;
    }
  }
  if (out.summary.empty() || conn.state() != net::Connection::State::kDone) {
    rep.fail("stream: no SUMMARY after DRAIN");
  }
  return out;
}

/// Correctness gate: a fresh Session restored from the last snapshot blob
/// and fed the remaining events must reproduce the SUMMARY exactly.
core::RunResult resume_from_last_snapshot(const Options& o, const Inputs& in,
                                          const std::string& summary,
                                          Report& rep) {
  core::Session s{scenario_of(in)};
  s.set_keep_history(false);
  s.restore(net::read_blob(parked_path(o)));
  for (auto i = static_cast<std::size_t>(s.events_fed());
       i < in.events.size(); ++i) {
    const aer::Event& ev = in.events[i];
    while (!s.feed(ev)) s.advance_to(ev.time);
  }
  core::RunResult r = s.finish();
  if (core::run_summary_text(r) != summary) {
    rep.fail("stream: SUMMARY differs from the snapshot-resumed session");
  }
  if (r.events_in != in.events.size()) {
    rep.fail("stream: events_in " + std::to_string(r.events_in) +
             " != events sent");
  }
  return r;
}

void end_to_end(const Options& o, const Inputs& in, Report& rep) {
  const net::GatewayConfig gw = gateway_config(o, in);
  constexpr std::size_t kMaxPasses = 32;
  constexpr std::size_t kHandshakesPerCpu = 25;
  CpuRotation rotation;
  rep.note("cpus_rotated", std::to_string(rotation.cpus()));
  std::vector<double> setup;
  preallocate(setup, kHandshakesPerCpu * rotation.cpus() * (kMaxPasses + 1));
  PassLog log{kMaxPasses, in.data.size()};
  RssMeter rss;
  rss.start();

  // setup_s: fresh Connection + HELLO -> HELLO_ACK, in a batch on every CPU
  // before every pass and after the last one, reported as the 10th
  // percentile (README.md, "End-to-end metrics").
  const auto handshakes = [&] {
    for (std::size_t cpu = 0; cpu < rotation.cpus(); ++cpu) {
      rotation.next();
      for (std::size_t k = 0; k < kHandshakesPerCpu; ++k) {
        std::size_t acks = 0;
        net::Connection c{gw, 1, [&acks](const Bytes& b) {
                            acks += is_type(b, net::MsgType::kHelloAck) ? 1 : 0;
                          }};
        const std::int64_t t0 = now_ns();
        c.on_bytes(in.hello);
        setup.push_back(secs(t0, now_ns()));
        if (acks != 1) rep.fail("stream: handshake not acknowledged");
      }
    }
  };

  std::string reference;
  double window = 0.0;
  const Deadline hard_stop{o.seconds * 4.0};
  while (log.passes() == 0 ||
         (window < o.seconds && !hard_stop.passed() && !log.full())) {
    rotation.next();
    handshakes();
    const PassResult p = connection_pass(o, gw, in, log, rep);
    window += p.wall_s;
    if (reference.empty()) {
      reference = p.summary;
      rep.sim.add(resume_from_last_snapshot(o, in, p.summary, rep));
    } else if (p.summary != reference) {
      rep.fail("stream: SUMMARY differs between passes");
    } else {
      resume_from_last_snapshot(o, in, p.summary, rep);
    }
  }
  handshakes();
  const double peak_rss_mib = rss.peak_growth_mib();
  report_fastest(log, window, rep);
  rep.metric("peak_rss_mb", peak_rss_mib, "MiB");
  rep.metric("setup_s", quantile(setup, 0.1), "s");
}

struct TracedPassResult {
  std::string summary;
  double wall_s{0.0};
  std::uint64_t refusals{0};
  std::uint64_t advance_calls{0};
  double snapshot_ms_max{0.0};
  double snapshot_bytes_max{0.0};
  double finish_ms{0.0};
  double summary_ms{0.0};
  sim::Scheduler::Stats scheduler;
  std::uint64_t caviar_violations{0};
};

/// The Connection's HELLO / DATA / DRAIN handling rebuilt from the public
/// calls it makes, one span per call, so each layer's time is visible.
TracedPassResult traced_pass(const Options& o, const Inputs& in, Tracer& tr,
                             std::uint64_t op_base) {
  TracedPassResult out;
  const std::int64_t start = now_ns();
  net::Decoder decoder;
  std::unique_ptr<core::Session> session;
  {
    Span hello_span{&tr, "stream.hello", op_base};
    net::Hello hello;
    {
      Span d{&tr, "net.wire.decode"};
      decoder.feed(in.hello);
      hello = net::decode_hello(decoder.next()->payload);
    }
    core::ScenarioConfig sc;
    {
      Span c{&tr, "core.config.load"};
      std::istringstream is{hello.config_text};
      sc = core::load_scenario(is);
    }
    {
      Span b{&tr, "core.session.build"};
      session = std::make_unique<core::Session>(sc);
      session->set_keep_history(false);
    }
  }
  const Time interval = Time::sec(kSnapshotSec);
  Time next_snapshot = interval;
  const std::string path = snapshot_path(o);

  const auto advance = [&](Time t) {
    Span a{&tr, "core.session.advance"};
    session->advance_to(t);
    ++out.advance_calls;
  };
  for (std::size_t k = 0; k < in.data.size(); ++k) {
    Span frame_span{&tr, "stream.frame", op_base + 1 + k};
    aer::EventStream events;
    {
      Span d{&tr, "net.wire.decode"};
      decoder.feed(in.data[k]);
      events = net::decode_data(decoder.next()->payload);
    }
    std::uint32_t feed = tr.begin("core.session.feed", 0);
    for (const aer::Event& ev : events) {
      while (!session->feed(ev)) {
        tr.end(feed);
        ++out.refusals;
        advance(ev.time);
        feed = tr.begin("core.session.feed", 0);
      }
      if (ev.time >= next_snapshot) {
        tr.end(feed);
        advance(next_snapshot);
        std::vector<std::uint8_t> blob;
        const std::int64_t t0 = now_ns();
        {
          Span s{&tr, "core.session.snapshot"};
          blob = session->snapshot();
        }
        out.snapshot_ms_max =
            std::max(out.snapshot_ms_max, 1e3 * secs(t0, now_ns()));
        out.snapshot_bytes_max =
            std::max(out.snapshot_bytes_max, static_cast<double>(blob.size()));
        {
          Span w{&tr, "net.snapshot_write"};
          net::write_blob_atomic(path, blob);
        }
        park_snapshot(o);
        while (next_snapshot <= ev.time) next_snapshot += interval;
        feed = tr.begin("core.session.feed", 0);
      }
    }
    tr.end(feed);
  }
  {
    Span drain_span{&tr, "stream.drain", op_base + 1 + in.data.size()};
    core::RunResult r;
    std::int64_t t0 = now_ns();
    {
      Span f{&tr, "core.session.finish"};
      r = session->finish();
    }
    out.finish_ms = 1e3 * secs(t0, now_ns());
    t0 = now_ns();
    {
      Span s{&tr, "core.summary"};
      out.summary = core::run_summary_text(r);
    }
    out.summary_ms = 1e3 * secs(t0, now_ns());
    out.caviar_violations = r.caviar_violations;
  }
  out.scheduler = session->scheduler().stats();
  out.wall_s = secs(start, now_ns());
  return out;
}

void traced(const Options& o, const Inputs& in, Report& rep) {
  const net::GatewayConfig gw = gateway_config(o, in);
  PassLog untimed{64, in.data.size()};
  std::string reference;
  // Untraced and traced passes alternate (U T U ... T U), so drift over
  // the run weighs on both sides of the tracing-overhead comparison alike.
  const auto untraced_pass = [&] {
    const PassResult p = connection_pass(o, gw, in, untimed, rep);
    if (reference.empty()) {
      reference = p.summary;
      rep.sim.add(resume_from_last_snapshot(o, in, p.summary, rep));
    } else if (p.summary != reference) {
      rep.fail("stream: SUMMARY differs between passes");
    }
    return p.wall_s;
  };
  // Each traced pass shares its CPU with the untraced pass after it.
  Tracer tr;
  CpuRotation rotation;
  rotation.next();
  std::vector<double> untraced{untraced_pass()};
  std::vector<TracedPassResult> passes;
  const Deadline alt_end{0.5 * o.seconds};
  while (passes.empty() || !alt_end.passed()) {
    rotation.next();
    tr.start_window();
    passes.push_back(traced_pass(o, in, tr, 1'000'000 * (passes.size() + 1)));
    tr.stop_window();
    rep.attempted += in.data.size();
    if (passes.back().summary != reference) {
      rep.fail("stream: traced SUMMARY differs from the Connection's");
    }
    untraced.push_back(untraced_pass());
  }

  std::vector<double> traced_wall;
  for (const auto& p : passes) traced_wall.push_back(p.wall_s);
  const auto n = static_cast<double>(passes.size());
  const TracedPassResult& last = passes.back();
  const auto acc = tr.account();
  const double overhead_frac = median(traced_wall) / median(untraced) - 1.0;
  std::cout << "\n[stream_snapshot] traced run: " << passes.size()
            << " traced passes between " << untraced.size()
            << " untraced, " << in.data.size() << " frames each\n";
  print_accounting(std::cout, acc, overhead_frac);

  rep.metric("net.wire.decode_s", tr.total_s("net.wire.decode") / n, "s");
  rep.metric("core.session.feed_s", tr.total_s("core.session.feed") / n, "s");
  rep.metric("core.session.refusals", static_cast<double>(last.refusals),
             "count");
  rep.metric("core.session.advance_s",
             tr.total_s("core.session.advance") / n, "s");
  rep.metric("core.session.advance_calls",
             static_cast<double>(last.advance_calls), "count");
  rep.metric("sim.scheduler.scheduled_per_event",
             static_cast<double>(last.scheduler.scheduled) /
                 static_cast<double>(in.events.size()),
             "count");
  rep.metric("sim.scheduler.heap_dispatches",
             static_cast<double>(last.scheduler.heap_dispatches), "count");
  rep.metric("sim.scheduler.cascaded",
             static_cast<double>(last.scheduler.cascaded), "count");
  rep.metric("core.session.snapshot_s",
             tr.total_s("core.session.snapshot") / n, "s");
  double snap_max = 0.0;
  for (const auto& p : passes) snap_max = std::max(snap_max, p.snapshot_ms_max);
  rep.metric("core.session.snapshot_ms_max", snap_max, "ms");
  rep.metric("core.session.snapshot_bytes_max", last.snapshot_bytes_max,
             "bytes");
  rep.metric("net.snapshot_write_s", tr.total_s("net.snapshot_write") / n, "s");
  rep.metric("aer.caviar_violations",
             static_cast<double>(last.caviar_violations), "count");
  std::vector<double> finish_ms, summary_ms;
  for (const auto& p : passes) {
    finish_ms.push_back(p.finish_ms);
    summary_ms.push_back(p.summary_ms);
  }
  rep.metric("core.session.finish_ms", median(finish_ms), "ms");
  rep.metric("core.summary_ms", median(summary_ms), "ms");
  rep.metric("trace.residual_frac", acc.residual_s / acc.wall_s, "fraction");
  rep.metric("trace.overhead_frac", overhead_frac, "fraction");
  tr.write_chrome_json(o.out_dir + "/trace-stream_snapshot-seed" +
                           std::to_string(o.seed) + ".json",
                       "perfbench stream_snapshot");
}

}  // namespace

Report run_stream_snapshot(const Options& options) {
  Report rep;
  const Inputs in = make_inputs(runtime::derive_seed(options.seed, 2));
  rep.input_digest = digest_events(in.events);
  rep.note("threads", "1");
  rep.note("events_per_pass", std::to_string(in.events.size()));
  rep.note("frames_per_pass", std::to_string(in.data.size()));
  if (options.trace) {
    traced(options, in, rep);
  } else {
    end_to_end(options, in, rep);
  }
  return rep;
}

}  // namespace perfbench
