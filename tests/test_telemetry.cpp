// Tests for the telemetry subsystem: registry snapshot determinism, span
// nesting/ordering, the disabled path being a zero-allocation no-op, and
// Chrome-trace JSON well-formedness for a full pipeline run.
//
// Global operator new/delete are replaced with counting versions (the
// test_scheduler_alloc.cpp pattern) so the no-op claims are provable.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "aer/event.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "telemetry/telemetry.hpp"
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
// The nothrow forms must be replaced too: libstdc++'s
// get_temporary_buffer (std::stable_sort) allocates through them, and a
// default nothrow-new paired with our free() is an ASan
// alloc-dealloc-mismatch.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
// Out of line: inlined into a new-expression's cleanup, GCC sees free()
// applied to operator new's result and flags a mismatch
// (-Wmismatched-new-delete), though this file's operator new is malloc.
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aetr::telemetry {
namespace {

using namespace time_literals;

// --- a minimal JSON well-formedness parser ---------------------------------
// Validates the full RFC-8259 grammar shape (objects, arrays, strings with
// escapes, numbers, literals); no DOM, just accept/reject. Enough to prove
// the exported trace loads in any real JSON parser.

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_{text} {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (peek() != ':') return false;
      ++pos_;
      ws();
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string{"\"\\/bfnrt"}.find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters are illegal inside strings
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  void ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  const std::string& s_;
  std::size_t pos_{0};
};

std::string slurp(const std::string& path) {
  std::ifstream f{path};
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// --- MetricsRegistry --------------------------------------------------------

TEST(Metrics, SnapshotGridIsDeterministic) {
  const auto drive = [](MetricsRegistry& reg) {
    std::uint64_t counter = 0;
    double gauge = 0.0;
    reg.probe("block.counter",
              [&counter](Time) { return static_cast<double>(counter); });
    reg.probe("block.gauge", [&gauge](Time) { return gauge; });
    for (int i = 0; i < 5; ++i) {
      counter += static_cast<std::uint64_t>(i) * 7u;
      gauge = 0.125 * i;
      reg.snapshot(Time::ms(static_cast<double>(i)));
    }
  };
  MetricsRegistry a;
  MetricsRegistry b;
  drive(a);
  drive(b);
  ASSERT_EQ(a.snapshots().size(), 5u);
  ASSERT_EQ(a.names(), b.names());
  for (std::size_t i = 0; i < a.snapshots().size(); ++i) {
    EXPECT_EQ(a.snapshots()[i].at, b.snapshots()[i].at);
    EXPECT_EQ(a.snapshots()[i].values, b.snapshots()[i].values);
  }
  const std::string pa = testing::TempDir() + "aetr_metrics_a.csv";
  const std::string pb = testing::TempDir() + "aetr_metrics_b.csv";
  a.write_csv(pa);
  b.write_csv(pb);
  EXPECT_EQ(slurp(pa), slurp(pb));  // byte-identical, not just equal values
  std::remove(pa.c_str());
  std::remove(pb.c_str());
}

TEST(Metrics, DuplicateProbeReplacesSampler) {
  MetricsRegistry reg;
  reg.probe("x", [](Time) { return 1.0; });
  reg.probe("x", [](Time) { return 2.0; });  // re-wire, same column
  reg.snapshot(Time::zero());
  ASSERT_EQ(reg.names().size(), 1u);
  EXPECT_DOUBLE_EQ(reg.last("x"), 2.0);
}

TEST(Metrics, LogHistogramRoundTripsThroughCsv) {
  MetricsRegistry reg;
  LogHistogram* h = reg.log_histogram("isi", 1e-6, 1.0, 4);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(reg.log_histogram("isi", 1e-6, 1.0, 4), h);  // get-or-create
  h->add(1e-3);
  h->add(1e-3);
  h->add(0.5);
  const std::string path = testing::TempDir() + "aetr_metrics_hist.csv";
  reg.write_csv(path);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("#histogram,bin_lo,bin_hi,count"), std::string::npos);
  EXPECT_NE(text.find("isi,"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Metrics, HistogramsAccessorKeepsRegistrationOrder) {
  MetricsRegistry reg;
  LogHistogram* b = reg.log_histogram("b", 1e-6, 1.0, 4);
  LogHistogram* a = reg.log_histogram("a", 1e-6, 1.0, 4);
  LogHistogram* c = reg.log_histogram("c", 1e-3, 10.0, 8);
  ASSERT_EQ(reg.histograms().size(), 3u);
  EXPECT_EQ(reg.histograms()[0].first, "b");  // registration, not name, order
  EXPECT_EQ(reg.histograms()[1].first, "a");
  EXPECT_EQ(reg.histograms()[2].first, "c");
  // Deque storage: earlier pointers stay valid across later registrations.
  EXPECT_EQ(&reg.histograms()[0].second, b);
  EXPECT_EQ(&reg.histograms()[1].second, a);
  EXPECT_EQ(&reg.histograms()[2].second, c);
  b->add(1e-3);
  EXPECT_EQ(reg.histograms()[0].second.total(), 1.0);
  // Histograms are not snapshot columns: the grid is unaffected.
  reg.snapshot(Time::zero());
  EXPECT_TRUE(reg.snapshots().back().values.empty());
  EXPECT_TRUE(reg.names().empty());
}

TEST(Metrics, SnapshotGridEdgeCases) {
  MetricsRegistry reg;
  // Empty registry: last() is 0, a snapshot is an empty (but counted) row.
  EXPECT_DOUBLE_EQ(reg.last("missing"), 0.0);
  reg.snapshot(Time::ms(1.0));
  ASSERT_EQ(reg.snapshots().size(), 1u);
  EXPECT_TRUE(reg.snapshots()[0].values.empty());
  EXPECT_DOUBLE_EQ(reg.last("missing"), 0.0);
  // A probe registered after a snapshot has no column in that row yet:
  // last() must answer 0, not read past the short row.
  reg.probe("late", [](Time) { return 42.0; });
  EXPECT_DOUBLE_EQ(reg.last("late"), 0.0);
  reg.snapshot(Time::ms(2.0));
  EXPECT_DOUBLE_EQ(reg.last("late"), 42.0);
  ASSERT_EQ(reg.snapshots()[0].values.size(), 0u);
  ASSERT_EQ(reg.snapshots()[1].values.size(), 1u);
  // The CSV keeps every row; the pre-registration row is just narrower.
  const std::string path = testing::TempDir() + "aetr_metrics_edge.csv";
  reg.write_csv(path);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("time_ms,late\n"), std::string::npos);
  EXPECT_NE(text.find("\n1\n"), std::string::npos);
  EXPECT_NE(text.find("\n2,42\n"), std::string::npos);
  std::remove(path.c_str());
}

// --- TraceSession -----------------------------------------------------------

TEST(Trace, SpanNestingAndOrderingSurviveExport) {
  TraceSession trace;
  const auto t = trace.track("block");
  trace.begin(t, "outer", 10_ns);
  trace.begin(t, "inner", 20_ns);
  trace.instant(t, "tick", 25_ns);
  trace.end(t, "inner", 30_ns);
  trace.end(t, "outer", 40_ns);
  ASSERT_EQ(trace.events().size(), 5u);

  const std::string path = testing::TempDir() + "aetr_trace_nest.json";
  trace.write_chrome_json(path);
  const std::string text = slurp(path);
  EXPECT_TRUE(JsonParser{text}.valid()) << text;
  // Chrome pairs B/E per tid by nesting order: the export must keep
  // outer-B, inner-B, instant, inner-E, outer-E in timestamp order.
  const auto outer_b = text.find("\"name\":\"outer\",\"cat\":\"block\",\"ph\":\"B\"");
  const auto inner_b = text.find("\"name\":\"inner\",\"cat\":\"block\",\"ph\":\"B\"");
  const auto inner_e = text.find("\"name\":\"inner\",\"cat\":\"block\",\"ph\":\"E\"");
  const auto outer_e = text.find("\"name\":\"outer\",\"cat\":\"block\",\"ph\":\"E\"");
  ASSERT_NE(outer_b, std::string::npos);
  ASSERT_NE(inner_b, std::string::npos);
  ASSERT_NE(inner_e, std::string::npos);
  ASSERT_NE(outer_e, std::string::npos);
  EXPECT_LT(outer_b, inner_b);
  EXPECT_LT(inner_b, inner_e);
  EXPECT_LT(inner_e, outer_e);
  std::remove(path.c_str());
}

TEST(Trace, SameTimestampEventsKeepRecordOrder) {
  TraceSession trace;
  const auto t = trace.track("block");
  trace.instant(t, "first", 5_ns);
  trace.instant(t, "second", 5_ns);
  trace.instant(t, "third", 5_ns);
  const std::string path = testing::TempDir() + "aetr_trace_stable.csv";
  trace.write_csv(path);
  const std::string text = slurp(path);
  EXPECT_LT(text.find("first"), text.find("second"));
  EXPECT_LT(text.find("second"), text.find("third"));
  std::remove(path.c_str());
}

TEST(Trace, RaiiSpanClosesOnDestructionAndIsIdempotent) {
  SessionOptions so;
  so.trace = true;
  TelemetrySession session{so};
  Time now = 1_ns;
  session.set_clock([&now] { return now; });
  {
    Span outer{&session, "harness", "run"};
    now = 5_ns;
    Span inner{&session, "harness", "phase"};
    now = 7_ns;
    inner.close();
    inner.close();  // idempotent
    now = 9_ns;
  }
  if (!compiled_in()) {
    EXPECT_TRUE(session.trace().events().empty());
    return;
  }
  const auto& ev = session.trace().events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].phase, TraceSession::Phase::kBegin);
  EXPECT_EQ(ev[0].ts, 1_ns);
  EXPECT_EQ(ev[1].phase, TraceSession::Phase::kBegin);
  EXPECT_EQ(ev[1].ts, 5_ns);
  EXPECT_EQ(ev[2].phase, TraceSession::Phase::kEnd);
  EXPECT_EQ(ev[2].ts, 7_ns);
  EXPECT_EQ(ev[3].phase, TraceSession::Phase::kEnd);
  EXPECT_EQ(ev[3].ts, 9_ns);
}

TEST(Trace, ChromeExportNamesTheProcess) {
  TraceSession trace;
  const auto t = trace.track("block");
  trace.instant(t, "tick", 5_ns);
  const std::string path = testing::TempDir() + "aetr_trace_proc.json";
  trace.write_chrome_json(path);
  const std::string text = slurp(path);
  EXPECT_TRUE(JsonParser{text}.valid()) << text;
  // Perfetto renders the process row as "(pid 1)" without these.
  const auto proc = text.find(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"aetr\"}}");
  ASSERT_NE(proc, std::string::npos);
  EXPECT_NE(text.find("\"name\":\"process_sort_index\""), std::string::npos);
  // Process metadata precedes the per-track thread_name lanes.
  const auto lane = text.find("\"name\":\"thread_name\"");
  ASSERT_NE(lane, std::string::npos);
  EXPECT_LT(proc, lane);
  std::remove(path.c_str());
}

TEST(Trace, EventCapDropsAreCountedNotSilent) {
  TraceSession trace{4};
  const auto t = trace.track("block");
  for (int i = 0; i < 10; ++i) trace.instant(t, "e", Time::ns(i));
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  const std::string path = testing::TempDir() + "aetr_trace_cap.json";
  trace.write_chrome_json(path);
  const std::string text = slurp(path);
  EXPECT_TRUE(JsonParser{text}.valid());
  EXPECT_NE(text.find("\"dropped_events\":6"), std::string::npos);
  std::remove(path.c_str());
}

// --- disabled path ----------------------------------------------------------

TEST(Disabled, EmissionThroughNullSessionIsAllocationFree) {
  BlockTelemetry tel{nullptr, "block"};
  EXPECT_FALSE(tel.tracing());
  EXPECT_EQ(tel.metrics(), nullptr);
  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 1000; ++i) {
    tel.begin("span", Time::ns(i), {{"k", 1.0}});
    tel.instant("point", Time::ns(i), {{"a", 2.0}, {"b", 3.0}});
    tel.counter("gauge", Time::ns(i), static_cast<double>(i));
    tel.end("span", Time::ns(i + 1));
  }
  EXPECT_EQ(g_allocs, before) << "disabled telemetry emission allocated";
}

TEST(Disabled, RuntimeDisabledSessionRecordsNothingAndNeverAllocates) {
  SessionOptions so;  // trace = metrics = false
  TelemetrySession session{so};
  EXPECT_FALSE(session.trace_on());
  EXPECT_FALSE(session.metrics_on());
  BlockTelemetry tel{&session, "block"};
  EXPECT_FALSE(tel.tracing());
  EXPECT_EQ(tel.metrics(), nullptr);
  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 1000; ++i) {
    tel.complete("w", Time::ns(i), Time::ns(i + 1));
    Span s{&session, "harness", "nested"};
  }
  EXPECT_EQ(g_allocs, before);
  EXPECT_TRUE(session.trace().events().empty());
}

#if !AETR_TELEMETRY
TEST(Disabled, CompiledOutSessionIsInertEvenWhenEnabled) {
  SessionOptions so;
  so.trace = true;
  so.metrics = true;
  TelemetrySession session{so};
  EXPECT_FALSE(compiled_in());
  EXPECT_FALSE(session.trace_on());
  EXPECT_FALSE(session.metrics_on());
  BlockTelemetry tel{&session, "block"};
  EXPECT_FALSE(tel.tracing());
  EXPECT_EQ(tel.metrics(), nullptr);
  tel.instant("x", Time::zero());
  EXPECT_TRUE(session.trace().events().empty());
}
#endif

// --- full-pipeline integration ---------------------------------------------

core::ScenarioConfig traced_scenario(const std::string& tag) {
  SessionOptions so;
  so.trace = true;
  so.metrics = true;
  so.metrics_window = Time::ms(0.5);
  so.trace_json_path = testing::TempDir() + "aetr_run_" + tag + ".json";
  so.trace_csv_path = testing::TempDir() + "aetr_run_" + tag + "_trace.csv";
  so.metrics_csv_path = testing::TempDir() + "aetr_run_" + tag + "_metrics.csv";
  core::ScenarioConfig sc;
  sc.interface.fifo.batch_threshold = 32;  // several drains within the stream
  sc.telemetry = so;
  return sc;
}

aer::EventStream pipeline_stream() {
  gen::PoissonSource src{50e3, 128, 7, Time::us(1.0)};
  return gen::take(src, 400);
}

TEST(Integration, RunStreamTraceCoversEveryPipelineStage) {
  if (!compiled_in()) GTEST_SKIP() << "built with AETR_TELEMETRY=0";
  const auto sc = traced_scenario("cover");
  const auto r = core::run_scenario(sc, pipeline_stream());
  EXPECT_GT(r.events_in, 0u);

  const std::string text = slurp(sc.telemetry.trace_json_path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonParser{text}.valid()) << "trace JSON must parse";
  // One named Perfetto lane per pipeline block, plus the harness lane.
  for (const char* track :
       {"frontend", "fifo", "clockgen", "i2s", "mcu", "runner"}) {
    EXPECT_NE(
        text.find("\"args\":{\"name\":\"" + std::string{track} + "\"}"),
        std::string::npos)
        << "missing thread_name lane for " << track;
  }
  // Spans from each stage of the dataflow.
  EXPECT_NE(text.find("\"name\":\"capture\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"occupancy\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"level\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"drain\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"batch_start\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"run_scenario\""), std::string::npos);

  // Metrics CSV: probes from every block on the snapshot grid.
  const std::string metrics = slurp(sc.telemetry.metrics_csv_path);
  for (const char* col :
       {"frontend.events", "fifo.occupancy", "clockgen.captures",
        "i2s.words_sent", "mcu.words", "power.avg_w"}) {
    EXPECT_NE(metrics.find(col), std::string::npos) << "missing " << col;
  }
  std::remove(sc.telemetry.trace_json_path.c_str());
  std::remove(sc.telemetry.trace_csv_path.c_str());
  std::remove(sc.telemetry.metrics_csv_path.c_str());
}

TEST(Integration, IdenticalRunsProduceByteIdenticalArtifacts) {
  if (!compiled_in()) GTEST_SKIP() << "built with AETR_TELEMETRY=0";
  const auto events = pipeline_stream();
  const auto sc_a = traced_scenario("det_a");
  const auto sc_b = traced_scenario("det_b");
  (void)core::run_scenario(sc_a, events);
  (void)core::run_scenario(sc_b, events);
  EXPECT_EQ(slurp(sc_a.telemetry.trace_json_path),
            slurp(sc_b.telemetry.trace_json_path));
  EXPECT_EQ(slurp(sc_a.telemetry.trace_csv_path),
            slurp(sc_b.telemetry.trace_csv_path));
  EXPECT_EQ(slurp(sc_a.telemetry.metrics_csv_path),
            slurp(sc_b.telemetry.metrics_csv_path));
  for (const auto* o : {&sc_a, &sc_b}) {
    std::remove(o->telemetry.trace_json_path.c_str());
    std::remove(o->telemetry.trace_csv_path.c_str());
    std::remove(o->telemetry.metrics_csv_path.c_str());
  }
}

TEST(Integration, FaultProbesAgreeWithRunResultCounters) {
  if (!compiled_in()) GTEST_SKIP() << "built with AETR_TELEMETRY=0";
  core::ScenarioConfig sc;
  sc.interface.fifo.batch_threshold = 32;
  sc.telemetry.metrics = true;
  sc.telemetry.metrics_window = Time::ms(0.5);
  // An active fault plan (like telemetry itself) forces the fast path to
  // fall back to the reference event-driven run; the fault.* probes and
  // RunResult::faults read the same injector counters, so whatever path
  // executed they can never disagree.
  sc.faults = fault::scaled_plan(0.05, 99);  // the quick faults-figure level
  ASSERT_TRUE(sc.faults.any());
  core::Session run{sc};
  run.feed_all(pipeline_stream());
  const auto r = run.finish();
  ASSERT_GT(r.faults.injected_total(), 0u) << "fault plan injected nothing";
  TelemetrySession* session = run.telemetry_session();
  ASSERT_NE(session, nullptr);
  ASSERT_FALSE(session->metrics().snapshots().empty());
  const auto& m = session->metrics();
  EXPECT_EQ(m.last("fault.injected"),
            static_cast<double>(r.faults.injected_total()));
  EXPECT_EQ(m.last("fault.recovered"),
            static_cast<double>(r.faults.recovered_total()));
  EXPECT_EQ(m.last("fault.watchdog_resyncs"),
            static_cast<double>(r.faults.watchdog_resyncs));
  EXPECT_EQ(m.last("fault.crc_rejected_words"),
            static_cast<double>(r.faults.crc_rejected_words));
}

TEST(Integration, TelemetryDoesNotChangeRunResults) {
  core::ScenarioConfig plain_sc;
  plain_sc.interface.fifo.batch_threshold = 32;
  const auto events = pipeline_stream();
  const auto plain = core::run_scenario(plain_sc, events);
  const auto sc = traced_scenario("invariant");
  const auto traced = core::run_scenario(sc, events);
  // Telemetry must be a pure observer: every simulation observable is
  // bit-identical with and without it.
  EXPECT_EQ(traced.sim_end, plain.sim_end);
  EXPECT_EQ(traced.words_out, plain.words_out);
  EXPECT_EQ(traced.batches, plain.batches);
  EXPECT_EQ(traced.handshakes, plain.handshakes);
  EXPECT_EQ(traced.average_power_w, plain.average_power_w);
  EXPECT_EQ(traced.error.weighted_rel_error(), plain.error.weighted_rel_error());
  std::remove(sc.telemetry.trace_json_path.c_str());
  std::remove(sc.telemetry.trace_csv_path.c_str());
  std::remove(sc.telemetry.metrics_csv_path.c_str());
}

}  // namespace
}  // namespace aetr::telemetry
