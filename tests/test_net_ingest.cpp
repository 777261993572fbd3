// The gateway's DATA ingest path pinned against the per-event pump it
// replaced. Connection::handle_data decodes a frame in place and pushes it
// through core::IngestPump, which hands the session runs of events
// (Session::feed_run) cut at the buffer's free room and at the next
// snapshot instant. The reference below is the per-event
// loop it replaced — feed; on backpressure advance_to the event's time and
// retry; once an event reaches the next grid instant advance to it and
// snapshot — driven on a bare Session. The snapshot file the Connection
// leaves after every frame (none before the reference's first blob), every
// CREDIT grant, events_ingested() and the final SUMMARY must equal the
// reference byte for byte. Last, the same stream split across on_bytes()
// calls at any byte, which switches the decoder between frames parsed in
// the caller's bytes and frames completed in its own buffer, must leave
// what whole frames leave after every call.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "core/summary.hpp"
#include "gen/sources.hpp"
#include "net/connection.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace aetr;
namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;

constexpr double kIntervalSec = 0.001;

struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "aetringXXXXXX").string();
    char* made = ::mkdtemp(tmpl.data());
    if (made == nullptr) throw std::runtime_error{"mkdtemp failed"};
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// The per-event DATA pump, as the gateway ran it before runs.
struct ReferencePump {
  core::Session session;
  Time interval;
  Time next_snapshot;
  std::vector<Bytes> blobs;
  std::uint64_t ingested{0};
  Time last_time{Time::zero()};
  bool have_last_time{false};

  ReferencePump(const core::ScenarioConfig& scenario, bool keep_history)
      : session{scenario},
        interval{Time::sec(kIntervalSec)},
        next_snapshot{interval} {
    if (!keep_history) session.set_keep_history(false);
  }

  /// False where the gateway NACKs a non-monotonic timestamp.
  bool frame(const aer::EventStream& events) {
    for (const aer::Event& ev : events) {
      if (have_last_time && ev.time < last_time) return false;
      last_time = ev.time;
      have_last_time = true;
      while (!session.feed(ev)) session.advance_to(ev.time);
      ++ingested;
      if (ev.time >= next_snapshot) {
        session.advance_to(next_snapshot);
        blobs.push_back(session.snapshot());
        while (next_snapshot <= ev.time) next_snapshot += interval;
      }
    }
    return true;
  }
};

/// A Connection with periodic snapshots, its replies decoded.
struct Gateway {
  TempDir dir;
  net::GatewayConfig config;
  std::vector<net::Frame> replies;
  std::unique_ptr<net::Connection> conn;

  /// With `resume_from`, the session restores that blob at HELLO.
  Gateway(const core::ScenarioConfig& scenario, bool keep_history,
          const Bytes* resume_from = nullptr) {
    config.default_scenario = scenario;
    config.snapshot_dir = dir.path.string();
    config.snapshot_interval_sec = kIntervalSec;
    config.keep_history = keep_history;
    config.credit_window = 1u << 20;
    if (resume_from != nullptr) {
      net::write_blob_atomic((dir.path / "ingest.snap").string(),
                             *resume_from);
      config.resume = true;
    }
    conn = std::make_unique<net::Connection>(
        config, 1, [this](const Bytes& b) {
          net::Decoder d;
          d.feed(b);
          while (auto f = d.next()) replies.push_back(*f);
        });
    net::Hello hello;
    hello.session_name = "ingest";
    push(net::MsgType::kHello, net::encode_hello(hello));
  }

  bool push(net::MsgType type, const Bytes& payload) {
    return conn->on_bytes(net::encode_frame(type, 0, payload));
  }

  [[nodiscard]] bool has_snapshot_file() const {
    return fs::exists(dir.path / "ingest.snap");
  }

  [[nodiscard]] Bytes snapshot_file() const {
    return net::read_blob((dir.path / "ingest.snap").string());
  }

  /// The file must hold the reference's latest blob, and be absent before
  /// its first one.
  void expect_snapshot(const std::vector<Bytes>& ref_blobs,
                       std::size_t frame) const {
    if (ref_blobs.empty()) {
      EXPECT_FALSE(has_snapshot_file()) << "frame " << frame;
    } else {
      ASSERT_TRUE(has_snapshot_file()) << "frame " << frame;
      EXPECT_EQ(snapshot_file(), ref_blobs.back()) << "frame " << frame;
    }
  }
};

aer::EventStream poisson(std::size_t n, std::uint64_t seed, double rate_hz) {
  gen::PoissonSource source{rate_hz, 256, seed};
  return gen::take(source, n);
}

/// Snapshot instants the reference crossed: in all, and in the frame that
/// crossed the most.
struct Crossed {
  std::size_t total{0};
  std::size_t most_in_a_frame{0};
};

/// Stream `events` in `chunk`-event DATA frames (plus one zero-event frame
/// after the third) through both paths; compare after every frame and at
/// the end. `disorder_at` (< events.size()) moves that event back in time,
/// so its frame must be NACKed identically.
void expect_same_ingest(const core::ScenarioConfig& scenario,
                        aer::EventStream events, std::size_t chunk,
                        bool keep_history, Crossed& crossed,
                        std::size_t disorder_at = SIZE_MAX) {
  if (disorder_at < events.size()) {
    events[disorder_at].time = events[disorder_at - 1].time - Time::ns(1);
  }
  ReferencePump ref{scenario, keep_history};
  Gateway gw{scenario, keep_history};
  ASSERT_EQ(gw.replies.size(), 1u);
  ASSERT_EQ(gw.replies[0].type, net::MsgType::kHelloAck);

  std::size_t frames = 0;
  for (std::size_t pos = 0; pos < events.size(); pos += chunk, ++frames) {
    if (frames == 3) {
      ASSERT_TRUE(gw.push(net::MsgType::kData,
                          net::encode_data(events, pos, 0)));
      ASSERT_EQ(gw.replies.back().type, net::MsgType::kCredit);
      EXPECT_EQ(net::decode_credit(gw.replies.back().payload).grant, 0u);
    }
    const std::size_t n = std::min(chunk, events.size() - pos);
    const aer::EventStream frame(
        events.begin() + static_cast<std::ptrdiff_t>(pos),
        events.begin() + static_cast<std::ptrdiff_t>(pos + n));
    const std::size_t blobs_before = ref.blobs.size();
    const bool ref_ok = ref.frame(frame);
    const bool open =
        gw.push(net::MsgType::kData, net::encode_data(events, pos, n));
    ASSERT_EQ(open, ref_ok) << "frame " << frames;
    EXPECT_EQ(gw.conn->events_ingested(), ref.ingested) << "frame " << frames;
    crossed.total = ref.blobs.size();
    crossed.most_in_a_frame =
        std::max(crossed.most_in_a_frame, ref.blobs.size() - blobs_before);
    gw.expect_snapshot(ref.blobs, frames);
    if (!ref_ok) {
      ASSERT_EQ(gw.replies.back().type, net::MsgType::kNack);
      EXPECT_EQ(net::decode_nack(gw.replies.back().payload).reason,
                "non-monotonic DATA timestamp");
      ASSERT_FALSE(ref.blobs.empty());
      return;
    }
    ASSERT_EQ(gw.replies.back().type, net::MsgType::kCredit);
    EXPECT_EQ(net::decode_credit(gw.replies.back().payload).grant, n);
  }
  ASSERT_GE(disorder_at, events.size()) << "the disordered frame was accepted";

  EXPECT_FALSE(gw.push(net::MsgType::kDrain, {}));
  ASSERT_EQ(gw.conn->state(), net::Connection::State::kDone);
  EXPECT_EQ(gw.conn->summary_text(),
            core::run_summary_text(ref.session.finish()));
}

core::ScenarioConfig with_cap(std::size_t cap) {
  core::ScenarioConfig scenario;
  scenario.session.max_buffered_events = cap;
  return scenario;
}

TEST(NetIngest, RunFeedMatchesPerEventPumpAtEveryBufferCap) {
  // 512-event frames at 100 kevt/s span ~5 ms: each crosses about five
  // 1 ms snapshot instants, and a 64-event cap backpressures mid-run.
  const auto events = poisson(6000, 3, 100e3);
  for (const std::size_t cap : {std::size_t{64}, std::size_t{4096},
                                std::size_t{1} << 20}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    Crossed crossed;
    expect_same_ingest(with_cap(cap), events, 512, /*keep_history=*/false,
                       crossed);
    EXPECT_GE(crossed.most_in_a_frame, 4u);
  }
  Crossed crossed;
  expect_same_ingest(with_cap(64), events, 512, /*keep_history=*/true,
                     crossed);
  EXPECT_GE(crossed.most_in_a_frame, 4u);
}

TEST(NetIngest, FramesShorterThanTheIntervalPinEveryInstant) {
  // 24-event frames at 100 kevt/s span ~0.24 ms: each crosses at most one
  // 1 ms instant, so the file after every frame pins each instant the
  // pump takes, and a pump that adds or skips one reads a different blob
  // (or a file where none may be yet) at that frame.
  const auto events = poisson(3000, 7, 100e3);
  for (const std::size_t cap : {std::size_t{16}, std::size_t{4096}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    Crossed crossed;
    expect_same_ingest(with_cap(cap), events, 24, /*keep_history=*/false,
                       crossed);
    EXPECT_EQ(crossed.most_in_a_frame, 1u);
    EXPECT_GE(crossed.total, 25u);
  }
}

TEST(NetIngest, EventsTiedAtSnapshotInstants) {
  // Bursts of equal timestamps sitting exactly on the snapshot grid, just
  // before it and just after it; a 4-event cap makes the buffer fill in
  // the middle of a tie.
  const Time grid = Time::sec(kIntervalSec);
  aer::EventStream events;
  std::uint16_t address = 0;
  for (std::int64_t k = 1; k <= 40; ++k) {
    const Time at = grid * k;
    for (const Time t : {at - Time::us(3), at, at, at, at + Time::us(2),
                         at + Time::us(2)}) {
      events.push_back(aer::Event{address, t});
      address = static_cast<std::uint16_t>((address + 37) % 1024);
    }
  }
  for (const std::size_t cap : {std::size_t{4}, std::size_t{4096}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    Crossed crossed;
    expect_same_ingest(with_cap(cap), events, 32, /*keep_history=*/false,
                       crossed);
    EXPECT_GE(crossed.most_in_a_frame, 4u);
  }
}

TEST(NetIngest, NonMonotonicEventMidFrameIsNackedAfterTheSamePrefix) {
  const auto events = poisson(3000, 5, 100e3);
  for (const std::size_t cap : {std::size_t{64}, std::size_t{4096}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    Crossed crossed;
    expect_same_ingest(with_cap(cap), events, 512, /*keep_history=*/false,
                       crossed, /*disorder_at=*/4 * 512 + 300);
  }
}

TEST(NetIngest, EventPastTheLatestTimeIsNackedAfterThePrefix) {
  // The wire carries any int64 time; the session takes none past
  // aer::kLatestEventTime, so the gateway ingests the prefix before it
  // and NACKs, without an exception leaving on_bytes().
  const Time latest = aer::kLatestEventTime;
  Gateway gw{core::ScenarioConfig{}, /*keep_history=*/false};
  const aer::EventStream frame{
      {1, Time::us(5)}, {2, latest}, {3, latest + Time::ps(1)}};
  bool open = true;
  EXPECT_NO_THROW(open = gw.push(net::MsgType::kData,
                                 net::encode_data(frame, 0, frame.size())));
  EXPECT_FALSE(open);
  ASSERT_EQ(gw.replies.back().type, net::MsgType::kNack);
  EXPECT_EQ(net::decode_nack(gw.replies.back().payload).reason,
            "DATA timestamp out of range");
  EXPECT_EQ(gw.conn->events_ingested(), 2u);
}

TEST(NetIngest, RunFeedMatchesWithFaultsAndMetricsGrid) {
  // Metrics grid and handshake watchdog both wind down in the idle gaps of
  // a sparse stream and are revived by the next frame's events: a run
  // must revive them in the order per-event feeding does.
  core::ScenarioConfig scenario = with_cap(64);
  scenario.faults.aer.drop_req_prob = 0.02;
  scenario.telemetry.metrics = true;
  scenario.telemetry.metrics_window = Time::us(500);
  const auto events = poisson(2500, 9, 20e3);
  Crossed crossed;
  expect_same_ingest(scenario, events, 512, /*keep_history=*/false, crossed);
  EXPECT_GE(crossed.most_in_a_frame, 4u);
}

TEST(NetIngest, ResumedSessionMatchesTheUninterruptedPump) {
  // A session restored from a snapshot taken between two grid instants
  // picks the cadence up at the next instant after its position. Frames
  // of 32 events (~0.3 ms) cross at most one 1 ms instant, so the
  // snapshot file after every frame pins each instant the resumed pump
  // takes, or skips, against the uninterrupted reference; the SUMMARY
  // must match too.
  const auto events = poisson(6000, 3, 100e3);
  const std::size_t split = 2550;
  const std::size_t frame = 32;
  const Time interval = Time::sec(kIntervalSec);
  for (const auto& [cap, keep_history] : {std::pair{std::size_t{64}, false},
                                         std::pair{std::size_t{4096}, true}}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    ReferencePump ref{with_cap(cap), keep_history};
    ASSERT_TRUE(ref.frame(aer::EventStream(
        events.begin(), events.begin() + static_cast<std::ptrdiff_t>(split))));
    const Bytes resume_blob = ref.session.snapshot();
    ASSERT_NE(ref.session.position() % interval, Time::zero());
    ASSERT_LT(ref.session.position(), ref.next_snapshot);
    ASSERT_GT(ref.session.position(), ref.next_snapshot - interval);

    Gateway gw{with_cap(cap), keep_history, &resume_blob};
    ASSERT_EQ(gw.replies.size(), 1u);
    ASSERT_EQ(gw.replies[0].type, net::MsgType::kHelloAck);
    ASSERT_EQ(net::decode_hello_ack(gw.replies[0].payload).events_fed, split);
    const std::size_t blobs_at_resume = ref.blobs.size();
    Bytes expected = resume_blob;
    for (std::size_t pos = split; pos < events.size(); pos += frame) {
      const std::size_t n = std::min(frame, events.size() - pos);
      const std::size_t blobs_before = ref.blobs.size();
      ASSERT_TRUE(ref.frame(aer::EventStream(
          events.begin() + static_cast<std::ptrdiff_t>(pos),
          events.begin() + static_cast<std::ptrdiff_t>(pos + n))));
      ASSERT_TRUE(
          gw.push(net::MsgType::kData, net::encode_data(events, pos, n)));
      ASSERT_EQ(gw.replies.back().type, net::MsgType::kCredit);
      if (ref.blobs.size() > blobs_before) expected = ref.blobs.back();
      ASSERT_EQ(gw.snapshot_file(), expected) << "event " << pos;
    }
    EXPECT_GT(ref.blobs.size(), blobs_at_resume + 10);
    EXPECT_FALSE(gw.push(net::MsgType::kDrain, {}));
    ASSERT_EQ(gw.conn->state(), net::Connection::State::kDone);
    EXPECT_EQ(gw.conn->summary_text(),
              core::run_summary_text(ref.session.finish()));
  }
}

/// What a Connection shows after some on_bytes() calls: its snapshot file
/// (nullopt while there is none), events_ingested(), the replies sent so
/// far, and whether it is still open.
struct Shown {
  std::optional<Bytes> file;
  std::uint64_t ingested{0};
  std::size_t replies{0};
  bool open{true};
  bool operator==(const Shown&) const = default;
};

/// A snapshotting Connection that keeps its replies' raw bytes and sends
/// itself nothing until deliver() hands it bytes.
struct Delivered {
  TempDir dir;
  std::vector<Bytes> replies;
  std::unique_ptr<net::Connection> conn;
  bool open{true};

  explicit Delivered(const core::ScenarioConfig& scenario) {
    net::GatewayConfig config;
    config.default_scenario = scenario;
    config.snapshot_dir = dir.path.string();
    config.snapshot_interval_sec = kIntervalSec;
    config.keep_history = false;
    conn = std::make_unique<net::Connection>(
        config, 1, [this](const Bytes& b) { replies.push_back(b); });
  }

  void deliver(const Bytes& stream, std::size_t from, std::size_t to) {
    open = conn->on_bytes(stream.data() + from, to - from);
  }

  [[nodiscard]] Shown shown() const {
    Shown s;
    const fs::path snap = dir.path / "split.snap";
    if (fs::exists(snap)) s.file = net::read_blob(snap.string());
    s.ingested = conn->events_ingested();
    s.replies = replies.size();
    s.open = open;
    return s;
  }
};

/// HELLO, `events` in `chunk`-event DATA frames, DRAIN: the byte stream
/// and the offset where each frame ends.
struct Stream {
  Bytes bytes;
  std::vector<std::size_t> frame_ends;

  void add(const Bytes& frame) {
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    frame_ends.push_back(bytes.size());
  }

  Stream(const aer::EventStream& events, std::size_t chunk) {
    net::Hello hello;
    hello.session_name = "split";
    add(net::encode_frame(net::MsgType::kHello, 0, net::encode_hello(hello)));
    for (std::size_t pos = 0; pos < events.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, events.size() - pos);
      add(net::encode_frame(net::MsgType::kData, 0,
                            net::encode_data(events, pos, n)));
    }
    add(net::encode_frame(net::MsgType::kDrain, 0, {}));
  }

  /// Whole frames in the first `offset` bytes.
  [[nodiscard]] std::size_t frames_in(std::size_t offset) const {
    return static_cast<std::size_t>(
        std::upper_bound(frame_ends.begin(), frame_ends.end(), offset) -
        frame_ends.begin());
  }
};

/// The stream one frame per on_bytes() call: what the Connection shows
/// after each count of whole frames (index 0: nothing delivered yet), its
/// replies and its summary.
struct WholeFrames {
  std::vector<Shown> after;
  std::vector<Bytes> replies;
  std::string summary;

  WholeFrames(const core::ScenarioConfig& scenario, const Stream& stream) {
    Delivered d{scenario};
    after.push_back(d.shown());
    std::size_t from = 0;
    for (const std::size_t end : stream.frame_ends) {
      d.deliver(stream.bytes, from, end);
      from = end;
      after.push_back(d.shown());
    }
    replies = d.replies;
    summary = d.conn->summary_text();
  }
};

/// Delivers `stream` in on_bytes() calls that end at `cuts` (ascending,
/// the last at the stream's end). After every call the Connection must
/// show what the whole-frame delivery showed once as many whole frames had
/// arrived; at the end it must have sent the same replies (CREDIT grants,
/// NACK text, SUMMARY) and hold the same summary.
void expect_same_as_whole_frames(const core::ScenarioConfig& scenario,
                                 const Stream& stream, const WholeFrames& ref,
                                 const std::vector<std::size_t>& cuts,
                                 const std::string& delivery) {
  SCOPED_TRACE(delivery);
  ASSERT_EQ(cuts.back(), stream.bytes.size());
  Delivered d{scenario};
  std::size_t from = 0;
  for (std::size_t call = 0; call < cuts.size(); ++call) {
    d.deliver(stream.bytes, from, cuts[call]);
    from = cuts[call];
    const std::size_t frames = stream.frames_in(from);
    ASSERT_EQ(d.shown(), ref.after[frames])
        << "call " << call << " ends at byte " << from << ", after "
        << frames << " whole frames";
  }
  EXPECT_EQ(d.replies, ref.replies);
  EXPECT_EQ(d.conn->summary_text(), ref.summary);
}

/// Every delivery of the split-delivery test over one stream.
void expect_every_split(const core::ScenarioConfig& scenario,
                        const aer::EventStream& events, std::size_t chunk,
                        std::size_t pair_at) {
  const Stream stream{events, chunk};
  const WholeFrames ref{scenario, stream};
  const std::size_t size = stream.bytes.size();
  // The pair takes a snapshot or is NACKed; other frames snapshot too.
  EXPECT_TRUE(ref.after[pair_at].file != ref.after[pair_at + 2].file ||
              !ref.after[pair_at + 2].open);
  std::size_t snapshots = 0;
  for (std::size_t f = 1; f < ref.after.size(); ++f) {
    if (ref.after[f].file != ref.after[f - 1].file) ++snapshots;
  }
  EXPECT_GE(snapshots, 3u);

  expect_same_as_whole_frames(scenario, stream, ref, stream.frame_ends,
                              "one frame per call");
  expect_same_as_whole_frames(scenario, stream, ref, {size},
                              "all frames in one call");

  // Frames `pair_at` and `pair_at + 1` in two calls, cut at every offset
  // from before the pair's first byte to after its last; every other
  // frame in a call of its own.
  const std::size_t pair_begin = stream.frame_ends[pair_at - 1];
  const std::size_t pair_end = stream.frame_ends[pair_at + 1];
  for (std::size_t cut = pair_begin; cut <= pair_end; ++cut) {
    std::vector<std::size_t> cuts;
    for (const std::size_t end : stream.frame_ends) {
      if (end == stream.frame_ends[pair_at]) {
        cuts.push_back(cut);
      } else {
        cuts.push_back(end);
      }
    }
    expect_same_as_whole_frames(scenario, stream, ref, cuts,
                                "pair cut at byte " + std::to_string(cut));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Seeded random calls: a third of them one byte long, a third up to 16
  // bytes, a third up to three frames.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256StarStar rng{seed};
    const std::size_t frame_bytes = stream.frame_ends[1] - stream.frame_ends[0];
    std::vector<std::size_t> cuts;
    for (std::size_t at = 0; at < size;) {
      std::size_t len = 1;
      switch (rng.uniform_int(3)) {
        case 0: break;
        case 1: len = 1 + rng.uniform_int(16); break;
        default: len = 1 + rng.uniform_int(3 * frame_bytes); break;
      }
      at = std::min(size, at + len);
      cuts.push_back(at);
    }
    expect_same_as_whole_frames(scenario, stream, ref, cuts,
                                "random calls, seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetIngest, ByteSplitDeliveryMatchesWholeFrames) {
  // 16-event frames (180 bytes) at 100 kevt/s span ~0.16 ms against 1 ms
  // snapshots and a 64-event buffer, so the calls that complete a frame
  // take snapshots and advances. The frame pair cut at every offset holds
  // a snapshot instant.
  const core::ScenarioConfig scenario = with_cap(64);
  aer::EventStream events = poisson(640, 13, 100e3);
  expect_every_split(scenario, events, 16, /*pair_at=*/12);
  if (HasFatalFailure()) return;

  // Mid-stream, one event of frame 21 (frame 0 is the HELLO) goes back in
  // time: every delivery NACKs it after the same prefix, and the bytes
  // after that frame change nothing.
  events[20 * 16 + 5].time = events[20 * 16 + 4].time - Time::ns(1);
  const Stream stream{events, 16};
  const WholeFrames ref{scenario, stream};
  ASSERT_FALSE(ref.after.back().open);
  ASSERT_EQ(ref.replies.back()[4],
            static_cast<std::uint8_t>(net::MsgType::kNack));
  net::Decoder nack;
  nack.feed(ref.replies.back());
  EXPECT_EQ(net::decode_nack(nack.next()->payload).reason,
            "non-monotonic DATA timestamp");
  expect_every_split(scenario, events, 16, /*pair_at=*/20);
}

}  // namespace
