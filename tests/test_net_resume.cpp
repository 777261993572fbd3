// Socket-path crash recovery: SIGKILL the gateway process mid-stream with
// two active sessions, restart it with resume enabled, reconnect, and
// finish — both final summaries must be byte-identical to uninterrupted
// batch runs of the same streams.
//
// The gateway runs in a fork()ed child so SIGKILL really destroys the
// process (threads would survive an in-process simulation of this). fork()
// happens before any thread exists in the test binary, so this file keeps
// to plain fork/exec-free children calling Server::run().
//
// Snapshot interval 0.005 s: on these streams the periodic snapshot grid
// falls on quiescent points, so the snapshotting run — and therefore the
// killed-and-resumed run — equals the no-snapshot batch run exactly (the
// same schedule-is-part-of-the-run contract docs/SERVICE.md documents; a
// finer grid may legally perturb results and is deliberately not used
// here).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "core/summary.hpp"
#include "gen/sources.hpp"
#include "net/client.hpp"
#include "net/connection.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"

namespace {

using namespace aetr;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "aetrrezXXXXXX").string();
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

// Fork a gateway child. exit_after_sessions == 0 runs until killed.
pid_t spawn_gateway(const TempDir& tmp, bool resume,
                    std::size_t exit_after_sessions) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error{"fork failed"};
  if (pid == 0) {
    try {
      net::ServerOptions options;
      options.uds_path = (tmp.path / "gw.sock").string();
      options.gateway.snapshot_dir = tmp.path.string();
      options.gateway.snapshot_interval_sec = 0.005;
      options.gateway.resume = resume;
      options.exit_after_sessions = exit_after_sessions;
      net::Server server{std::move(options)};
      server.run();
      ::_exit(0);
    } catch (...) {
      ::_exit(1);
    }
  }
  return pid;
}

net::Client connect_retry(const std::string& path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return net::Client::connect_uds(path);
    } catch (const std::runtime_error&) {
      if (attempt > 200) throw;
      ::usleep(10'000);
    }
  }
}

TEST(NetResume, SigkillWithTwoActiveSessionsResumesByteIdentically) {
  const auto stream_a = poisson_stream(3000, 11, 50e3);
  const auto stream_b = poisson_stream(2500, 22, 80e3);
  TempDir tmp;
  const auto sock = tmp.str("gw.sock");

  // Phase 1: stream most of both sessions, interleaved, then SIGKILL the
  // gateway with both sessions live. Credit accounting guarantees that
  // everything send_some() returned as sent has been ingested server-side
  // (the CREDIT reply comes back only after the pump ran), so the periodic
  // snapshots up to that point are on disk when the process dies.
  const pid_t first = spawn_gateway(tmp, /*resume=*/false, 0);
  {
    auto a = connect_retry(sock);
    auto b = connect_retry(sock);
    ASSERT_EQ(a.hello("alpha", "").events_fed, 0u);
    ASSERT_EQ(b.hello("beta", "").events_fed, 0u);
    net::SendOptions chunked;
    chunked.chunk = 128;
    std::size_t pos_a = 0;
    std::size_t pos_b = 0;
    while (pos_a < 2900 || pos_b < 2400) {
      if (pos_a < 2900) pos_a += a.send_some(stream_a, pos_a, 128, chunked);
      if (pos_b < 2400) pos_b += b.send_some(stream_b, pos_b, 128, chunked);
    }
  }  // clients close; sessions stay live (no DRAIN/BYE) — abandoned mid-run
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first, &status, 0), first);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_TRUE(fs::exists(tmp.str("alpha.snap")));
  ASSERT_TRUE(fs::exists(tmp.str("beta.snap")));

  // Phase 2: restart with resume, reconnect, skip what the snapshot
  // already holds, finish both sessions.
  const pid_t second = spawn_gateway(tmp, /*resume=*/true, 2);
  std::string summary_a;
  std::string summary_b;
  {
    auto a = connect_retry(sock);
    auto b = connect_retry(sock);
    const auto ack_a = a.hello("alpha", "");
    const auto ack_b = b.hello("beta", "");
    // The snapshot can only hold events the client already sent — resuming
    // never asks the client to rewind past its own progress.
    ASSERT_GT(ack_a.events_fed, 0u);
    ASSERT_LE(ack_a.events_fed, 2900u);
    ASSERT_GT(ack_b.events_fed, 0u);
    ASSERT_LE(ack_b.events_fed, 2400u);
    a.send_events(stream_a, ack_a.events_fed);
    b.send_events(stream_b, ack_b.events_fed);
    summary_a = a.drain();
    summary_b = b.drain();
  }
  ASSERT_EQ(::waitpid(second, &status, 0), second);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // The acceptance gate: resumed-over-sockets == uninterrupted batch.
  const auto batch_a = core::run_summary_text(
      core::run_scenario(core::ScenarioConfig{}, stream_a));
  const auto batch_b = core::run_summary_text(
      core::run_scenario(core::ScenarioConfig{}, stream_b));
  EXPECT_EQ(summary_a, batch_a);
  EXPECT_EQ(summary_b, batch_b);
}

TEST(NetResume, ResumeRejectsConfigMismatch) {
  // A client reconnecting to a snapshot taken under a different scenario
  // must be NACKed, not silently continued under the wrong physics.
  const auto stream = poisson_stream(2000, 11, 50e3);
  TempDir tmp;
  const auto sock = tmp.str("gw.sock");

  const pid_t first = spawn_gateway(tmp, /*resume=*/false, 0);
  {
    auto c = connect_retry(sock);
    (void)c.hello("alpha", "");
    net::SendOptions chunked;
    chunked.chunk = 128;
    std::size_t pos = 0;
    while (pos < 1900) pos += c.send_some(stream, pos, 128, chunked);
  }
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first, &status, 0), first);
  ASSERT_TRUE(fs::exists(tmp.str("alpha.snap")));

  const pid_t second = spawn_gateway(tmp, /*resume=*/true, 1);
  {
    auto c = connect_retry(sock);
    core::ScenarioConfig other;
    other.sender.min_gap = Time::ns(500);
    EXPECT_THROW((void)c.hello("alpha", core::dump_scenario(other)),
                 std::runtime_error);
  }
  ASSERT_EQ(::waitpid(second, &status, 0), second);
}

// --- in-process: failures that must NACK, never throw out of on_bytes ------

/// One Connection driven in-process, its replies decoded.
struct InProcess {
  std::vector<net::Frame> replies;
  net::Connection conn;

  explicit InProcess(const net::GatewayConfig& gw)
      : conn{gw, 1, [this](const std::vector<std::uint8_t>& b) {
               net::Decoder d;
               d.feed(b);
               while (auto f = d.next()) replies.push_back(*f);
             }} {}

  bool push(net::MsgType type, const std::vector<std::uint8_t>& payload) {
    return conn.on_bytes(net::encode_frame(type, 0, payload));
  }
  bool hello() {
    net::Hello h;
    h.session_name = "alpha";
    return push(net::MsgType::kHello, net::encode_hello(h));
  }
  [[nodiscard]] std::string nack() const {
    return replies.back().type == net::MsgType::kNack
               ? net::decode_nack(replies.back().payload).reason
               : std::string{};
  }
};

TEST(NetResume, ResumedSessionNacksAnEventOlderThanItsLast) {
  // The restored session remembers its last event; DATA going back before
  // it gets the ordinary non-monotonic NACK, not an exception out of the
  // session's own ordering check.
  const auto stream = poisson_stream(400, 11, 50e3);
  TempDir tmp;
  net::GatewayConfig gw;
  gw.snapshot_dir = tmp.path.string();
  {
    InProcess first{gw};
    ASSERT_TRUE(first.hello());
    ASSERT_TRUE(first.push(net::MsgType::kData,
                           net::encode_data(stream, 0, stream.size())));
    ASSERT_TRUE(first.push(net::MsgType::kSnapshotReq, {}));
    ASSERT_EQ(first.replies.back().type, net::MsgType::kSnapshotAck);
  }
  gw.resume = true;
  InProcess second{gw};
  ASSERT_TRUE(second.hello());
  EXPECT_EQ(net::decode_hello_ack(second.replies.back().payload).events_fed,
            stream.size());
  const aer::EventStream older{
      {aer::Event{1, stream.back().time - Time::ps(1)}}};
  bool open = true;
  EXPECT_NO_THROW(open = second.push(net::MsgType::kData,
                                     net::encode_data(older, 0, 1)));
  EXPECT_FALSE(open);
  EXPECT_EQ(second.nack(), "non-monotonic DATA timestamp");
  EXPECT_EQ(second.conn.events_ingested(), 0u);
}

TEST(NetResume, UnwritableSnapshotIsNacked) {
  // A snapshot the gateway cannot write NACKs the session that asked for
  // it, whether by SNAPSHOT_REQ or on the periodic schedule.
  const auto stream = poisson_stream(200, 11, 50e3);
  TempDir tmp;
  net::GatewayConfig gw;
  gw.snapshot_dir = tmp.str("missing");
  {
    InProcess req{gw};
    ASSERT_TRUE(req.hello());
    bool open = true;
    EXPECT_NO_THROW(open = req.push(net::MsgType::kSnapshotReq, {}));
    EXPECT_FALSE(open);
    EXPECT_EQ(req.conn.state(), net::Connection::State::kError);
    EXPECT_NE(req.nack().find("snapshot failed: net: cannot open"),
              std::string::npos)
        << req.nack();
  }
  gw.snapshot_interval_sec = 0.001;
  InProcess periodic{gw};
  ASSERT_TRUE(periodic.hello());
  bool open = true;
  EXPECT_NO_THROW(open = periodic.push(
                      net::MsgType::kData,
                      net::encode_data(stream, 0, stream.size())));
  EXPECT_FALSE(open);
  EXPECT_NE(periodic.nack().find("snapshot failed: net: cannot open"),
            std::string::npos)
      << periodic.nack();
}

TEST(NetResume, FailedBlobWriteKeepsThePreviousSnapshot) {
  // A blob under 1 KiB sits in the stream's buffer until close, so only
  // the flush at close can report a full disk; that failure must throw,
  // drop the temp file and leave the previous snapshot as it was.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  TempDir tmp;
  const std::string path = tmp.str("s.snap");
  // read_blob checks the snapshot header, so the kept blob starts with one.
  std::vector<std::uint8_t> good = core::Session{{}}.snapshot();
  good.resize(100);
  net::write_blob_atomic(path, good);
  fs::create_symlink("/dev/full", path + ".tmp");
  const std::vector<std::uint8_t> bigger(500, 0xA5);
  EXPECT_THROW(net::write_blob_atomic(path, bigger), std::runtime_error);
  // Not the link renamed over it: reading /dev/full would never end.
  ASSERT_TRUE(fs::is_regular_file(fs::symlink_status(path)));
  EXPECT_EQ(net::read_blob(path), good);
  EXPECT_FALSE(fs::exists(fs::symlink_status(path + ".tmp")));
}

TEST(NetResume, ResumeFromADeviceIsNackedPromptly) {
  // A snapshot path that names a device never reaches its end; the resume
  // refuses it by name at HELLO instead of reading until memory runs out.
  if (!fs::exists("/dev/zero")) GTEST_SKIP() << "no /dev/zero";
  TempDir tmp;
  net::GatewayConfig gw;
  gw.snapshot_dir = tmp.path.string();
  gw.resume = true;
  const std::string snap = tmp.str("alpha.snap");
  fs::create_symlink("/dev/zero", snap);
  InProcess c{gw};
  bool open = true;
  EXPECT_NO_THROW(open = c.hello());
  EXPECT_FALSE(open);
  EXPECT_EQ(c.conn.state(), net::Connection::State::kError);
  EXPECT_EQ(c.nack(), "resume failed: net: not a regular file: " + snap);
  EXPECT_THROW((void)net::read_blob("/dev/zero"), std::runtime_error);
}

TEST(NetResume, HugeSparseSnapshotIsRefusedByItsHeader) {
  // A 64 GiB sparse file reads as zeros: read_blob checks the snapshot
  // header before it sizes anything by the file, so the refusal names the
  // file at once instead of allocating 64 GiB (or failing to).
  TempDir tmp;
  const std::string path = tmp.str("alpha.snap");
  { std::ofstream touch{path}; }
  fs::resize_file(path, std::uintmax_t{64} << 30);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)net::read_blob(path);
    FAIL() << "read_blob accepted a sparse file of zeros";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()},
              "net: " + path + ": not a session snapshot");
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds{5});

  // The gateway's resume refuses it the same way, by name.
  net::GatewayConfig gw;
  gw.snapshot_dir = tmp.path.string();
  gw.resume = true;
  InProcess c{gw};
  EXPECT_FALSE(c.hello());
  EXPECT_EQ(c.nack(),
            "resume failed: net: " + path + ": not a session snapshot");
}

TEST(NetResume, OlderSnapshotVersionIsRefusedByName) {
  TempDir tmp;
  const std::string path = tmp.str("old.snap");
  std::vector<std::uint8_t> blob = core::Session{{}}.snapshot();
  blob[8] = static_cast<std::uint8_t>(core::Session::kSnapshotVersion - 1);
  net::write_blob_atomic(path, blob);
  try {
    (void)net::read_blob(path);
    FAIL() << "read_blob accepted an older snapshot version";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()},
              "net: " + path + ": snapshot version " +
                  std::to_string(core::Session::kSnapshotVersion - 1) +
                  " != supported " +
                  std::to_string(core::Session::kSnapshotVersion));
  }
}

TEST(NetResume, SnapshotIntervalOutOfRangeIsNackedAtHello) {
  // A programmatic interval that rounds to 0 ps (or overflows the
  // picosecond clock) is refused by the ingest pump at HELLO instead of
  // spinning on the first snapshot instant.
  TempDir tmp;
  net::GatewayConfig gw;
  gw.snapshot_dir = tmp.path.string();
  for (const double sec : {1e-13, -1.0, 1e7}) {
    SCOPED_TRACE(sec);
    gw.snapshot_interval_sec = sec;
    InProcess c{gw};
    EXPECT_FALSE(c.hello());
    EXPECT_EQ(c.conn.state(), net::Connection::State::kError);
    EXPECT_NE(c.nack().find("bad snapshot interval: "), std::string::npos)
        << c.nack();
  }
  gw.snapshot_interval_sec = 1e-12;
  InProcess c{gw};
  EXPECT_TRUE(c.hello());
}

TEST(NetResume, UnwritableSummaryIsNacked) {
  // DRAIN finishes the session; a summary file the gateway cannot write
  // NACKs it instead of throwing out of on_bytes.
  const auto stream = poisson_stream(200, 11, 50e3);
  TempDir tmp;
  net::GatewayConfig gw;
  gw.out_dir = tmp.str("missing");
  InProcess c{gw};
  ASSERT_TRUE(c.hello());
  ASSERT_TRUE(c.push(net::MsgType::kData,
                     net::encode_data(stream, 0, stream.size())));
  bool open = true;
  EXPECT_NO_THROW(open = c.push(net::MsgType::kDrain, {}));
  EXPECT_FALSE(open);
  EXPECT_EQ(c.conn.state(), net::Connection::State::kError);
  EXPECT_NE(c.nack().find("summary write failed: summary: cannot open"),
            std::string::npos)
      << c.nack();
}

}  // namespace
