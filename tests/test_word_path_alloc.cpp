// Proves the per-word delivery path is allocation-free now that the word
// callbacks (frontend::AerFrontEnd::WordFn, i2s::I2sMaster::WordFn) are
// util::InplaceFunction instead of std::function: the captures the library
// actually installs — a component `this` pointer, or the scenario runner's
// two-reference MCU+harvest closure — must store inline, and assigning plus
// dispatching them must never touch the global allocator. Then the whole
// run: a streaming session with history off reaches a steady state where
// no spike allocates, on the event-driven reference path (the oracle every
// ineligible config runs) and on the analytic engine alike. And the
// gateway's side of it: a warm net::Connection takes a DATA frame that
// neither advances nor snapshots, and replies CREDIT, without allocating.
// Global operator new/delete are replaced in this binary with counting
// versions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "aer/event.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "frontend/aer_frontend.hpp"
#include "gen/sources.hpp"
#include "i2s/i2s.hpp"
#include "net/connection.hpp"
#include "net/wire.hpp"
#include "util/time.hpp"

namespace {
std::uint64_t g_allocs = 0;  // test binary is single-threaded
}

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) & ~(a - 1);  // aligned_alloc contract
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aetr {
namespace {

using WordFn = frontend::AerFrontEnd::WordFn;

// The two WordFn types must stay interchangeable (core wires the frontend's
// words into the I2S master's consumer contract).
static_assert(
    std::is_same_v<frontend::AerFrontEnd::WordFn, i2s::I2sMaster::WordFn>);

struct FakeSink {
  std::uint64_t words{0};
  std::uint64_t last_addr{0};
  Time last_at{Time::zero()};
  void on_word(aer::AetrWord w, Time t) {
    ++words;
    last_addr = w.address();
    last_at = t;
  }
};

struct FakeHarvester {
  Time latest{Time::zero()};
  void harvest(Time t) { latest = t; }
};

// The library's real capture shapes must be inline-storable by construction:
// the interface installs a bare `this` (core/interface.cpp), the scenario
// runner a two-reference MCU+harvest closure (core/scenario.cpp).
static_assert(WordFn::stores_inline<
              decltype([p = static_cast<FakeSink*>(nullptr)](
                           aer::AetrWord w, Time t) { p->on_word(w, t); })>());
static_assert(WordFn::stores_inline<
              decltype([p = static_cast<FakeSink*>(nullptr),
                        h = static_cast<FakeHarvester*>(nullptr)](
                           aer::AetrWord w, Time t) {
                p->on_word(w, t);
                h->harvest(t);
              })>());

TEST(WordPathAlloc, InstallAndDispatchAreAllocationFree) {
  FakeSink sink;
  FakeHarvester harvester;
  WordFn fn;
  const std::uint64_t before = g_allocs;
  // Re-install every round (components are re-wired between runs) and push
  // a batch of words through: the steady-state word path must stay off the
  // allocator entirely — install included.
  for (int round = 0; round < 10; ++round) {
    fn = [&sink, &harvester](aer::AetrWord w, Time t) {
      sink.on_word(w, t);
      harvester.harvest(t);
    };
    ASSERT_TRUE(static_cast<bool>(fn));
    for (std::uint32_t i = 0; i < 1024; ++i) {
      fn(aer::AetrWord::make(static_cast<std::uint16_t>(i & 0x3FF), i),
         Time::ns(130.0 * (i + 1)));
    }
  }
  EXPECT_EQ(g_allocs, before) << "per-word path touched the allocator";
  EXPECT_EQ(sink.words, 10u * 1024u);
  EXPECT_EQ(sink.last_addr, 1023u & 0x3FFu);
  EXPECT_EQ(harvester.latest, Time::ns(130.0 * 1024));
}

TEST(WordPathAlloc, MoveTransfersTheInlineCallable) {
  FakeSink sink;
  WordFn a = [&sink](aer::AetrWord w, Time t) { sink.on_word(w, t); };
  const std::uint64_t before = g_allocs;
  WordFn b = std::move(a);  // the on_word(std::move(fn)) handoff
  ASSERT_TRUE(static_cast<bool>(b));
  b(aer::AetrWord::make(7, 1), Time::ns(1.0));
  EXPECT_EQ(g_allocs, before) << "moving an inline WordFn allocated";
  EXPECT_EQ(sink.words, 1u);
  EXPECT_EQ(sink.last_addr, 7u);
}

/// Allocations of one streaming run over `n` periodic events (every FIFO
/// batch alike), history off, fed through the backpressure pump.
std::uint64_t run_allocations(bool fast, std::size_t n) {
  const core::DesOracleScope oracle{!fast};
  core::ScenarioConfig scenario;
  scenario.session.max_buffered_events = 256;
  gen::RegularSource source{Time::us(5), 256};
  const aer::EventStream events = gen::take(source, n);
  const std::uint64_t before = g_allocs;
  {
    core::Session s{scenario};
    s.set_keep_history(false);
    for (const aer::Event& ev : events) {
      while (!s.feed(ev)) s.advance_to(ev.time);
    }
    const core::RunResult r = s.finish();
    EXPECT_EQ(r.words_out, n);
  }
  return g_allocs - before;
}

TEST(WordPathAlloc, WholeRunAllocatesNothingPerSpike) {
  for (const bool fast : {false, true}) {
    const std::uint64_t once = run_allocations(fast, 20000);
    const std::uint64_t twice = run_allocations(fast, 40000);
    EXPECT_EQ(once, twice) << (fast ? "analytic engine"
                                    : "event-driven reference path")
                           << ": 20000 events allocated " << once
                           << " times, 40000 events " << twice;
  }
}

TEST(WordPathAlloc, QuietDataFramesAllocateNothingInAWarmConnection) {
  // 512-event frames against a 4096-event buffer: the frames after each
  // eight find the buffer full and advance, the other seven only parse,
  // decode, append and reply. The first eight frames grow the buffers.
  constexpr std::size_t kFrame = 512;
  constexpr std::size_t kPerFill = 4096 / kFrame;
  constexpr std::size_t kFrames = 96;
  core::ScenarioConfig scenario;
  scenario.session.max_buffered_events = kFrame * kPerFill;
  gen::PoissonSource source{100e3, 256, 11};
  const aer::EventStream events = gen::take(source, kFrame * kFrames);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t k = 0; k < kFrames; ++k) {
    frames.push_back(net::encode_frame(
        net::MsgType::kData, 0, net::encode_data(events, k * kFrame, kFrame)));
  }
  net::Hello hello;
  hello.session_name = "alloc";
  const auto hello_frame =
      net::encode_frame(net::MsgType::kHello, 0, net::encode_hello(hello));

  net::GatewayConfig gateway;
  gateway.default_scenario = scenario;
  gateway.keep_history = false;
  // The sink reads each reply where it lies: a CREDIT's grant is the u64
  // after the 12-byte header.
  std::uint64_t credits = 0;
  std::uint64_t granted = 0;
  net::Connection conn{
      gateway, 1, [&](const std::vector<std::uint8_t>& reply) {
        if (reply[4] != static_cast<std::uint8_t>(net::MsgType::kCredit)) {
          return;
        }
        ++credits;
        for (std::size_t i = 0; i < 8; ++i) {
          granted |= std::uint64_t{reply[net::kHeaderSize + i]} << (8 * i);
        }
      }};
  ASSERT_TRUE(conn.on_bytes(hello_frame));
  std::size_t quiet = 0;
  for (std::size_t k = 0; k < kFrames; ++k) {
    granted = 0;
    const std::uint64_t before = g_allocs;
    ASSERT_TRUE(conn.on_bytes(frames[k])) << conn.error();
    const std::uint64_t allocs = g_allocs - before;
    ASSERT_EQ(credits, k + 1);
    EXPECT_EQ(granted, kFrame) << "frame " << k;
    if (k >= kPerFill && k % kPerFill != 0) {
      EXPECT_EQ(allocs, 0u) << "quiet frame " << k << " allocated";
      ++quiet;
    }
  }
  EXPECT_EQ(conn.events_ingested(), kFrame * kFrames);
  EXPECT_EQ(quiet, kFrames - kPerFill - (kFrames / kPerFill - 1));
}

}  // namespace
}  // namespace aetr
