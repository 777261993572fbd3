// Bit-exactness of the idle-skip fast path (core/fast_path.hpp): every
// RunResult field must be byte-identical on the analytic engine and on the
// event-driven oracle (core::DesOracleScope), across rates that exercise
// the shutdown ladder, FIFO overflow, both overflow policies,
// metastability, drain timeouts, and the no-MCU/no-flush corners. Also
// covers the fault-plan eligibility rule: a plan whose probabilities are all zero
// must not force the reference path. The sweep cases diff every figure's
// artifacts, quick and full grids, between the two engines.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "buffer/fifo.hpp"
#include "core/fast_path.hpp"
#include "core/scenario.hpp"
#include "core/session.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "opt/optimizer.hpp"
#include "sweeps/figures.hpp"
#include "telemetry/telemetry.hpp"

namespace aetr::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Compare every observable RunResult field bit-exactly.
void expect_identical(const RunResult& f, const RunResult& r) {
  EXPECT_EQ(f.events_in, r.events_in);
  EXPECT_EQ(f.words_out, r.words_out);
  EXPECT_EQ(f.fifo_overflows, r.fifo_overflows);
  EXPECT_EQ(f.batches, r.batches);
  EXPECT_EQ(f.handshakes, r.handshakes);
  EXPECT_EQ(f.caviar_violations, r.caviar_violations);
  EXPECT_EQ(f.protocol_violations, r.protocol_violations);
  EXPECT_EQ(f.sim_end, r.sim_end);
  EXPECT_EQ(bits(f.average_power_w), bits(r.average_power_w));
  EXPECT_EQ(f.activity.osc_awake, r.activity.osc_awake);
  EXPECT_EQ(f.activity.sampling_cycles, r.activity.sampling_cycles);
  EXPECT_EQ(f.activity.wakeups, r.activity.wakeups);
  EXPECT_EQ(f.activity.window, r.activity.window);
  EXPECT_EQ(f.activity.fifo_writes, r.activity.fifo_writes);
  EXPECT_EQ(f.activity.fifo_reads, r.activity.fifo_reads);
  EXPECT_EQ(f.activity.i2s_bits, r.activity.i2s_bits);
  EXPECT_EQ(f.activity.events, r.activity.events);
  EXPECT_EQ(bits(f.error.abs_err_sec), bits(r.error.abs_err_sec));
  EXPECT_EQ(f.error.events, r.error.events);
  EXPECT_EQ(f.error.saturated, r.error.saturated);
  ASSERT_EQ(f.records.size(), r.records.size());
  for (std::size_t i = 0; i < f.records.size(); ++i) {
    EXPECT_EQ(f.records[i].word.raw(), r.records[i].word.raw()) << i;
    EXPECT_EQ(f.records[i].sample_edge, r.records[i].sample_edge) << i;
    EXPECT_EQ(f.records[i].request.time, r.records[i].request.time) << i;
    EXPECT_EQ(f.records[i].request.address, r.records[i].request.address) << i;
  }
  ASSERT_EQ(f.decoded.size(), r.decoded.size());
  for (std::size_t i = 0; i < f.decoded.size(); ++i) {
    EXPECT_EQ(f.decoded[i].reconstructed_time,
              r.decoded[i].reconstructed_time) << i;
    EXPECT_EQ(f.decoded[i].address, r.decoded[i].address) << i;
  }
  ASSERT_EQ(f.delivery_latency_sec.size(), r.delivery_latency_sec.size());
  for (std::size_t i = 0; i < f.delivery_latency_sec.size(); ++i) {
    EXPECT_EQ(bits(f.delivery_latency_sec[i]),
              bits(r.delivery_latency_sec[i])) << i;
  }
}

/// Run on the analytic engine (`fast`) or on the event-driven oracle.
RunResult run_with(const ScenarioConfig& sc, const aer::EventStream& events,
                   bool fast) {
  const DesOracleScope oracle{!fast};
  return run_scenario(sc, events);
}

TEST(FastPathScenario, BitIdenticalAcrossRatesAndCorners) {
  for (const double rate : {500.0, 5e4, 8e5}) {
    for (const unsigned variant : {0u, 1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "rate=" << rate
                                      << " variant=" << variant);
      ScenarioConfig base;
      base.interface.fifo.batch_threshold = variant >= 2 ? 16u : 64u;
      if (variant >= 2) base.interface.fifo.capacity_words = 24;
      if (variant == 3) {
        base.interface.fifo.overflow_policy =
            buffer::OverflowPolicy::kDropOldest;
        base.final_flush = false;
        base.attach_mcu = false;
      }
      base.interface.front_end.metastability_prob =
          (variant & 1u) != 0 ? 0.01 : 0.0;
      base.cooldown = Time::ms(2.0);
      gen::PoissonSource src{rate, 64, 42};
      const auto events = gen::take(src, 1500);

      ASSERT_TRUE(fast_path_eligible(base));
      expect_identical(run_with(base, events, true),
                       run_with(base, events, false));
    }
  }
}

// A drain timeout runs on the engine too: each deadline is the interface's
// shared transition, merged with the word pops. Timeouts of 1 ns (due
// inside the handshake that armed it), exactly one I2S word time (due with
// the first pop of a drain the same push started), 50 us, 5 ms, and 750
// Tmin (about 50 us), which falls on the sampling-edge lattice, so a
// deadline can be due at a later sample edge; a small FIFO that
// overflows, and a threshold so high that deadlines start every drain,
// with drains until empty or of one batch (whose size a deadline tied
// with a push decides).
TEST(FastPathScenario, DrainTimeoutBitIdentical) {
  const ScenarioConfig defaults;
  const Time word_time = defaults.interface.i2s.sck.period() *
                         static_cast<Time::Rep>(
                             defaults.interface.i2s.word_bits);
  const Time tmin = Session{defaults}.interface().tick_unit();
  for (const Time timeout : {Time::ns(1), word_time, Time::us(50.0),
                             Time::ms(5.0), tmin * 750}) {
    for (const double rate : {500.0, 5e4, 8e5}) {
      for (const unsigned fifo : {0u, 1u, 2u}) {
        SCOPED_TRACE(testing::Message()
                     << "timeout=" << timeout.count_ps() << "ps rate=" << rate
                     << " fifo=" << fifo);
        ScenarioConfig sc;
        sc.interface.drain_timeout = timeout;
        sc.interface.fifo.batch_threshold = fifo == 0 ? 16u : 1024u;
        if (fifo == 0) sc.interface.fifo.capacity_words = 24;
        if (fifo == 2) sc.interface.i2s.drain_until_empty = false;
        sc.cooldown = Time::ms(2.0);
        gen::PoissonSource src{rate, 64, 17};
        const auto events = gen::take(src, 1500);

        ASSERT_TRUE(fast_path_eligible(sc));
        const RunResult fast = run_with(sc, events, true);
        expect_identical(fast, run_with(sc, events, false));
        EXPECT_GT(fast.batches, 0u);
      }
    }
  }
}

TEST(FastPathScenario, EmptyStreamBitIdentical) {
  ScenarioConfig sc;
  sc.cooldown = Time::sec(0.5);
  expect_identical(run_with(sc, {}, true), run_with(sc, {}, false));
}

TEST(FastPathScenario, ZeroProbabilityFaultPlanStaysOnFastPath) {
  // A plan with sites configured but every probability zero injects
  // nothing; FaultPlan::any() is probability-based, so it must not force
  // the reference path...
  fault::FaultPlan zero;
  zero.aer.drop_req_prob = 0.0;
  zero.aer.addr_bit_flip_prob = 0.0;
  zero.fifo.cell_bit_flip_prob = 0.0;
  ASSERT_FALSE(zero.any());

  ScenarioConfig with_zero_plan;
  with_zero_plan.faults = zero;
  ASSERT_TRUE(fast_path_eligible(with_zero_plan));

  // ...and its fast-forward run must be byte-identical to the fault-free
  // fast-forward baseline (and to both reference runs).
  gen::PoissonSource src{5e4, 64, 7};
  const auto events = gen::take(src, 1200);
  ScenarioConfig fault_free;
  const auto baseline = run_with(fault_free, events, true);
  expect_identical(run_with(with_zero_plan, events, true), baseline);
  expect_identical(run_with(with_zero_plan, events, false), baseline);
}

TEST(FastPathScenario, ActiveFaultPlanFallsBackToReference) {
  fault::FaultPlan plan = fault::scaled_plan(0.5, 99);
  ScenarioConfig sc;
  sc.faults = plan;
  EXPECT_FALSE(fast_path_eligible(sc));
  // Neither a drain timeout nor telemetry disqualifies.
  ScenarioConfig timed;
  timed.interface.drain_timeout = Time::us(50.0);
  EXPECT_TRUE(fast_path_eligible(timed));
  ScenarioConfig traced;
  traced.telemetry.trace = true;
  traced.telemetry.metrics = true;
  EXPECT_TRUE(fast_path_eligible(traced));
}

// A traced and sampled run with no fault plan runs the analytic engine,
// with or without a drain timeout: the scheduler dispatches nothing from
// start to end.
TEST(FastPathScenario, ObservedRunDispatchesNoSchedulerEvent) {
  for (const Time timeout : {Time::zero(), Time::us(50.0)}) {
    SCOPED_TRACE(testing::Message() << "drain_timeout=" << timeout.count_ps());
    ScenarioConfig sc;
    sc.interface.drain_timeout = timeout;
    sc.telemetry.trace = true;
    sc.telemetry.metrics = true;
    sc.telemetry.metrics_window = Time::us(200.0);
    gen::PoissonSource src{5e4, 64, 5};
    Session session{sc};
    session.feed_all(gen::take(src, 2000));
    const RunResult r = session.finish();
    EXPECT_EQ(session.scheduler().processed(), 0u);
    EXPECT_EQ(r.events_in, 2000u);
    if (telemetry::compiled_in()) {
      const telemetry::TelemetrySession* tel = session.telemetry_session();
      ASSERT_NE(tel, nullptr);
      EXPECT_FALSE(tel->trace().events().empty());
      EXPECT_GT(tel->metrics().snapshots().size(), 100u);
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream f{path};
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(FastPathSweeps, FigureCsvsByteIdenticalOnVsOff) {
  // Every figure `aetr-sweep all` runs writes the same files, byte for
  // byte, on the analytic engine and on the event-driven oracle, on the
  // quick and on the full grids.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "aetr_fastpath_sweeps";
  fs::remove_all(dir);
  for (const bool quick : {true, false}) {
    for (const auto& fig : sweeps::figures()) {
      SCOPED_TRACE(std::string{fig.name} + (quick ? " --quick" : ""));
      const fs::path grid_dir = dir / (quick ? "quick" : "full") / fig.name;
      const fs::path on_dir = grid_dir / "on";
      const fs::path off_dir = grid_dir / "off";
      sweeps::FigureOptions on;
      on.jobs = 4;
      on.quick = quick;
      on.out_dir = on_dir.string();
      sweeps::FigureOptions off = on;
      off.out_dir = off_dir.string();
      EXPECT_FALSE(slurp(fig.run(on).csv_path).empty());
      {
        const DesOracleScope oracle;
        (void)fig.run(off);
      }
      const auto count = [](const fs::path& d) {
        return std::distance(fs::directory_iterator{d},
                             fs::directory_iterator{});
      };
      EXPECT_EQ(count(on_dir), count(off_dir));
      for (const auto& f : fs::directory_iterator{on_dir}) {
        const auto name = f.path().filename();
        EXPECT_EQ(slurp(f.path().string()), slurp((off_dir / name).string()))
            << name;
      }
    }
  }
  fs::remove_all(dir);
}

TEST(FastPathSweeps, TelemetryByteIdenticalOnVsOff) {
  // The figures that take per-job telemetry write the same trace JSON,
  // trace CSV and metrics CSV, byte for byte, on the analytic engine and
  // on the event-driven oracle.
  if (!telemetry::compiled_in()) GTEST_SKIP() << "built with AETR_TELEMETRY=0";
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "aetr_fastpath_telemetry";
  fs::remove_all(dir);
  for (const char* name : {"fig8", "ablation-agreement"}) {
    SCOPED_TRACE(name);
    const sweeps::FigureDef* fig = sweeps::find_figure(name);
    ASSERT_NE(fig, nullptr);
    sweeps::FigureOptions on;
    on.jobs = 4;
    on.quick = true;
    on.trace = true;
    on.metrics = true;
    on.out_dir = (dir / name / "on").string();
    sweeps::FigureOptions off = on;
    off.out_dir = (dir / name / "off").string();
    (void)fig->run(on);
    {
      const DesOracleScope oracle;
      (void)fig->run(off);
    }
    std::size_t files = 0;
    std::size_t metrics = 0;
    for (const auto& f : fs::directory_iterator{on.out_dir}) {
      const auto file = f.path().filename();
      ++files;
      if (file.string().ends_with("_metrics.csv")) ++metrics;
      EXPECT_EQ(slurp(f.path().string()),
                slurp((fs::path{off.out_dir} / file).string()))
          << file;
    }
    EXPECT_GT(metrics, 0u);
    EXPECT_EQ(files, static_cast<std::size_t>(std::distance(
                         fs::directory_iterator{off.out_dir},
                         fs::directory_iterator{})));
  }
  fs::remove_all(dir);
}

TEST(FastPathSweeps, QuickOptArtifactsByteIdenticalOnVsOff) {
  const auto dir =
      std::filesystem::temp_directory_path() / "aetr_fastpath_opt";
  std::filesystem::remove_all(dir);
  opt::OptOptions options;
  options.jobs = 1;
  options.budget = 8;
  options.workload.n_events = 600;
  const auto space = opt::SearchSpace::default_space();

  const ScenarioConfig base;
  options.out_dir = (dir / "on").string();
  const auto on = opt::optimize(space, base, options);

  options.out_dir = (dir / "off").string();
  const auto off = [&] {
    const DesOracleScope oracle;
    return opt::optimize(space, base, options);
  }();

  ASSERT_EQ(on.artifacts.size(), off.artifacts.size());
  for (std::size_t i = 0; i < on.artifacts.size(); ++i) {
    EXPECT_EQ(slurp(on.artifacts[i]), slurp(off.artifacts[i]))
        << on.artifacts[i] << " vs " << off.artifacts[i];
    EXPECT_FALSE(slurp(on.artifacts[i]).empty()) << on.artifacts[i];
  }
  EXPECT_EQ(on.hypervolume, off.hypervolume);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace aetr::core
