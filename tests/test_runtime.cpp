// aetr::runtime — deterministic parallel sweep runtime.
//
// The load-bearing property is the determinism contract (runtime/sweep.hpp):
// a sweep's output is a pure function of (grid, root seed, job function),
// bit-identical for any thread count. The tests drive it from both ends:
// unit-level (seed derivation, grid decoding, pool stealing, collector
// ordering) and end-to-end (a fig6-slice sweep and the real figure
// definitions compared byte-for-byte across --jobs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/error.hpp"
#include "runtime/seed.hpp"
#include "runtime/sink.hpp"
#include "runtime/sweep.hpp"
#include "runtime/sweep_grid.hpp"
#include "runtime/thread_pool.hpp"
#include "sweeps/figures.hpp"

using namespace aetr;
using runtime::derive_seed;
using runtime::SweepGrid;

// --- seed derivation -------------------------------------------------------

TEST(RuntimeSeed, StableAcrossCallsAndDocumentedValues) {
  // The derivation is part of the determinism contract: these values must
  // never change, or previously published sweeps stop being reproducible.
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_EQ(derive_seed(1234, 7), derive_seed(1234, 7));
  static_assert(derive_seed(1, 0) == derive_seed(1, 0));
  // Golden values pin the algorithm itself (two-round splitmix64).
  constexpr std::uint64_t g0 = derive_seed(1234, 0);
  constexpr std::uint64_t g1 = derive_seed(1234, 1);
  EXPECT_EQ(g0, derive_seed(1234, 0));
  EXPECT_NE(g0, g1);
}

TEST(RuntimeSeed, NoCollisionsOverTypicalGrids) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {1ull, 42ull, 1234ull}) {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      seen.insert(derive_seed(root, i));
    }
  }
  EXPECT_EQ(seen.size(), 3u * 4096u);
}

TEST(RuntimeSeed, AsymmetricInRootAndIndex) {
  // Regression: a symmetric combiner made derive(r, i) == derive(i, r) and
  // derive(r, r) a constant shared by every sweep.
  EXPECT_NE(derive_seed(1, 42), derive_seed(42, 1));
  EXPECT_NE(derive_seed(5, 5), derive_seed(7, 7));
}

TEST(RuntimeSeed, IndependentOfJobCountAndOrder) {
  // Seeds depend on the index only — shuffling execution order or changing
  // the worker count cannot change them (they are computed, not drawn).
  std::vector<std::uint64_t> forward, backward;
  for (std::uint64_t i = 0; i < 64; ++i) forward.push_back(derive_seed(7, i));
  for (std::uint64_t i = 64; i-- > 0;) backward.push_back(derive_seed(7, i));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(forward[i], backward[63 - i]);
  }
}

TEST(RuntimeSeed, SubstreamsAreCollisionFreeAcrossFleetNodeIds) {
  // The fleet gives every node several independent streams
  // (events / faults / heterogeneity). Across 10k node ids and all three
  // streams — plus the per-node roots themselves — nothing may collide.
  using runtime::derive_substream_seed;
  constexpr std::uint64_t kRoot = 0xF1EE7u;
  constexpr std::uint64_t kNodes = 10'000;
  std::set<std::uint64_t> seen;
  for (std::uint64_t node = 0; node < kNodes; ++node) {
    seen.insert(derive_seed(kRoot, node));
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      seen.insert(derive_substream_seed(kRoot, node, stream));
    }
  }
  EXPECT_EQ(seen.size(), kNodes * 4);
}

TEST(RuntimeSeed, SubstreamDerivationIsNestedDeriveSeed) {
  // The documented definition: substream s of node i is
  // derive_seed(derive_seed(root, i), s) — a node's stream set depends only
  // on its own derived root, never on the fleet-level layout.
  using runtime::derive_substream_seed;
  static_assert(derive_substream_seed(9, 4, 2) ==
                derive_seed(derive_seed(9, 4), 2));
  for (std::uint64_t node : {0ull, 1ull, 63ull, 1023ull}) {
    for (std::uint64_t stream : {0ull, 1ull, 2ull}) {
      EXPECT_EQ(derive_substream_seed(42, node, stream),
                derive_seed(derive_seed(42, node), stream));
    }
  }
}

// --- grid --------------------------------------------------------------------

TEST(SweepGrid, RowMajorDecode) {
  SweepGrid grid;
  grid.axis("theta", {16, 32, 64}).axis("rate", {1e3, 1e4});
  ASSERT_EQ(grid.size(), 6u);
  // First axis slowest: (16,1e3) (16,1e4) (32,1e3) ...
  EXPECT_EQ(grid.point(0).at("theta"), 16);
  EXPECT_EQ(grid.point(0).at("rate"), 1e3);
  EXPECT_EQ(grid.point(1).at("theta"), 16);
  EXPECT_EQ(grid.point(1).at("rate"), 1e4);
  EXPECT_EQ(grid.point(2).at("theta"), 32);
  EXPECT_EQ(grid.point(5).at("theta"), 64);
  EXPECT_EQ(grid.point(5).at("rate"), 1e4);
  EXPECT_EQ(grid.point(4).ordinal("theta"), 2u);
  EXPECT_EQ(grid.point(4).ordinal("rate"), 0u);
  EXPECT_EQ(grid.point(3).tag(), "theta=32,rate=10000");
}

TEST(SweepGrid, UnknownAxisThrows) {
  SweepGrid grid;
  grid.axis("rate", {1.0});
  EXPECT_THROW((void)grid.point(0).at("theta"), std::out_of_range);
  EXPECT_THROW(grid.axis("empty", {}), std::invalid_argument);
}

TEST(SweepGrid, LogSpaceMatchesLegacyRateGrid) {
  // SweepGrid::log_space must reproduce the exact grid the fig6/fig8
  // benches hand-rolled: lo * exp(i * log(hi/lo)/(n-1)).
  const auto v = SweepGrid::log_space(100.0, 2e6, 27);
  ASSERT_EQ(v.size(), 27u);
  EXPECT_DOUBLE_EQ(v.front(), 100.0);
  EXPECT_NEAR(v.back(), 2e6, 2e6 * 1e-12);
  const double step = std::log(2e6 / 100.0) / 26.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_DOUBLE_EQ(v[i], 100.0 * std::exp(step * static_cast<double>(i)));
    if (i) {
      EXPECT_GT(v[i], v[i - 1]);
    }
  }
}

TEST(SweepGrid, LinSpaceEndpoints) {
  const auto v = SweepGrid::lin_space(0.0, 10.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 5.0);
  EXPECT_DOUBLE_EQ(v[4], 10.0);
}

TEST(SweepGrid, SinglePointAxesAreConstant) {
  // points == 1 pins the axis to lo; equal endpoints pin it regardless of
  // the point count. Both are legal degenerate axes, not errors: a sweep
  // definition that collapses one dimension should still run.
  EXPECT_EQ(SweepGrid::log_space(500.0, 2e6, 1),
            (std::vector<double>{500.0}));
  EXPECT_EQ(SweepGrid::lin_space(7.0, 7.0, 4),
            (std::vector<double>{7.0, 7.0, 7.0, 7.0}));
  const auto v = SweepGrid::log_space(1e3, 1e3, 3);
  ASSERT_EQ(v.size(), 3u);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 1e3);
}

TEST(SweepGrid, ZeroPointsAndInvalidSpansThrow) {
  EXPECT_THROW((void)SweepGrid::log_space(100.0, 2e6, 0),
               std::invalid_argument);
  EXPECT_THROW((void)SweepGrid::lin_space(0.0, 1.0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)SweepGrid::log_space(0.0, 1.0, 3),
               std::invalid_argument);  // log of a non-positive lo
  EXPECT_THROW((void)SweepGrid::log_space(10.0, 1.0, 3),
               std::invalid_argument);  // hi < lo
  // lin_space has no positivity constraint, so a reversed span is simply a
  // descending axis, not an error.
  EXPECT_EQ(SweepGrid::lin_space(10.0, 1.0, 3),
            (std::vector<double>{10.0, 5.5, 1.0}));
}

TEST(SweepGrid, ZeroTrialGridRunsNoJobs) {
  // A grid with no axes has size 0; run_sweep over it must complete
  // without ever invoking the job function.
  SweepGrid grid;
  EXPECT_EQ(grid.size(), 0u);
  std::atomic<int> calls{0};
  const auto report = runtime::run_sweep(grid, [&calls](
                                                   const runtime::JobContext&) {
    calls.fetch_add(1);
    return runtime::JobOutput{};
  });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE(report.outputs.empty());
  EXPECT_TRUE(report.metrics.empty());
}

// --- thread pool -----------------------------------------------------------

TEST(ThreadPool, RunsEverythingUnderSkewedDurations) {
  runtime::ThreadPool pool{4};
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&done, i] {
      // Skew: a few jobs are ~50x longer than the rest.
      std::this_thread::sleep_for(
          std::chrono::microseconds(i % 8 == 0 ? 2500 : 50));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(pool.first_exception(), nullptr);
}

TEST(ThreadPool, IdleWorkersStealFromALoadedDeque) {
  runtime::ThreadPool pool{2};
  // Both tasks go to worker 0. The owner pops LIFO, so it runs the waiter
  // first and blocks; only a steal by worker 1 (FIFO from the same deque)
  // can run the setter and release it. A gate task keeps whichever worker
  // runs it busy until both tasks are queued: without it, worker 0 could
  // pop the setter before the waiter is submitted, and nothing would be
  // stolen.
  std::mutex m;
  std::condition_variable cv;
  bool gate_running = false;
  bool queued = false;
  bool flag = false;
  pool.submit_to(0, [&] {
    std::unique_lock lock{m};
    gate_running = true;
    cv.notify_all();
    cv.wait(lock, [&] { return queued; });
  });
  {
    std::unique_lock lock{m};
    cv.wait(lock, [&] { return gate_running; });
  }
  pool.submit_to(0, [&] {
    std::lock_guard lock{m};
    flag = true;
    cv.notify_all();
  });
  pool.submit_to(0, [&] {
    std::unique_lock lock{m};
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return flag; });
  });
  {
    std::lock_guard lock{m};
    queued = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_TRUE(flag);
  EXPECT_GE(pool.steal_count(), 1u);
}

TEST(ThreadPool, CapturesTaskExceptions) {
  runtime::ThreadPool pool{2};
  pool.submit([] { throw std::runtime_error{"boom"}; });
  pool.wait_idle();
  ASSERT_NE(pool.first_exception(), nullptr);
  EXPECT_THROW(std::rethrow_exception(pool.first_exception()),
               std::runtime_error);
}

TEST(ThreadPool, CancelPendingDropsQueuedWork) {
  runtime::ThreadPool pool{1};
  std::atomic<int> ran{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
    ran.fetch_add(1);
  });
  // Ensure the blocker is running (not still queued) before piling work
  // behind it — otherwise cancel_pending could drop it too.
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.cancel_pending();
  release.store(true);
  pool.wait_idle();
  // Only the already-running task survived the cancellation.
  EXPECT_EQ(ran.load(), 1);
}

// --- collector + sinks -----------------------------------------------------

TEST(OrderedCollector, ReordersOutOfOrderArrivals) {
  std::ostringstream out;
  runtime::CsvSink sink{out};
  sink.begin({"i"});
  runtime::OrderedCollector collector{4, &sink};
  collector.add(2, {{"2"}});
  collector.add(3, {{"3"}});
  EXPECT_EQ(out.str(), "i\n");  // nothing flushed before index 0 lands
  collector.add(0, {{"0"}});
  EXPECT_EQ(out.str(), "i\n0\n");  // 0 flushes, 1 still missing
  collector.add(1, {{"1"}});
  sink.end();
  EXPECT_EQ(out.str(), "i\n0\n1\n2\n3\n");
  EXPECT_EQ(collector.done(), 4u);
}

namespace {

// Runs `n` single-row jobs through an OrderedCollector in the completion
// order given by `order` (a permutation of 0..n-1) and returns the CSV body.
std::string collect_in_order(std::size_t n,
                             const std::vector<std::size_t>& order) {
  std::ostringstream out;
  runtime::CsvSink sink{out};
  sink.begin({"i"});
  runtime::OrderedCollector collector{n, &sink};
  for (std::size_t idx : order) {
    collector.add(idx, {{std::to_string(idx)}});
  }
  sink.end();
  EXPECT_EQ(collector.done(), n);
  return out.str();
}

}  // namespace

TEST(OrderedCollector, AdversarialCompletionOrdersAtFleetSizes) {
  // Fleet node phases hand the collector completions in whatever order the
  // work-stealing pool finishes them. Whatever that order is, the flushed
  // rows must come out 0..n-1. Worst cases: strictly reverse (every row
  // buffers until the last arrival) and a deterministic pseudo-random shuffle.
  for (std::size_t n : {64u, 1024u}) {
    std::string expect = "i\n";
    for (std::size_t i = 0; i < n; ++i) expect += std::to_string(i) + "\n";

    std::vector<std::size_t> reverse(n);
    for (std::size_t i = 0; i < n; ++i) reverse[i] = n - 1 - i;
    EXPECT_EQ(collect_in_order(n, reverse), expect) << "reverse, n=" << n;

    // Deterministic shuffle via an LCG Fisher-Yates (no std::random_device;
    // the test must be reproducible byte-for-byte).
    std::vector<std::size_t> shuffled(n);
    for (std::size_t i = 0; i < n; ++i) shuffled[i] = i;
    std::uint64_t state = 0x9E3779B97F4A7C15ull ^ n;
    for (std::size_t i = n - 1; i > 0; --i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(shuffled[i], shuffled[(state >> 33) % (i + 1)]);
    }
    EXPECT_EQ(collect_in_order(n, shuffled), expect) << "shuffle, n=" << n;
  }
}

TEST(OrderedCollector, FlushesTheLongestReadyPrefixImmediately) {
  // Rows must stream out as soon as the prefix is contiguous — a collector
  // that buffers everything until done() == n would pass the tests above
  // but stall sinks that stream to disk mid-sweep.
  std::ostringstream out;
  runtime::CsvSink sink{out};
  sink.begin({"i"});
  runtime::OrderedCollector collector{6, &sink};
  collector.add(1, {{"1"}});
  collector.add(2, {{"2"}});
  EXPECT_EQ(out.str(), "i\n");  // hole at 0: nothing may flush
  collector.add(0, {{"0"}});
  EXPECT_EQ(out.str(), "i\n0\n1\n2\n");  // prefix 0..2 flushes at once
  collector.add(5, {{"5"}});
  EXPECT_EQ(out.str(), "i\n0\n1\n2\n");  // hole at 3 blocks 5
  collector.add(4, {{"4"}});
  collector.add(3, {{"3"}});
  sink.end();
  EXPECT_EQ(out.str(), "i\n0\n1\n2\n3\n4\n5\n");
  EXPECT_EQ(collector.done(), 6u);
}

TEST(Sinks, CsvEscaping) {
  std::ostringstream csv;
  {
    runtime::CsvSink cs{csv};
    cs.begin({"name", "value"});
    cs.row({"plain", "1"});
    cs.row({"with,comma", "quote\"inside"});
    cs.end();
  }
  EXPECT_EQ(csv.str(),
            "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n");
}

// --- run_sweep --------------------------------------------------------------

namespace {

// A fig6 slice as a raw runtime sweep: real simulation work with a
// rate x theta grid small enough for the sanitizer presets.
runtime::SweepReport fig6_slice(std::size_t jobs, std::ostream& csv) {
  SweepGrid grid;
  grid.axis("theta", {16, 64})
      .axis("rate", SweepGrid::log_space(1e3, 1e5, 5));
  runtime::SweepOptions opt;
  opt.jobs = jobs;
  opt.seed = 99;
  opt.header = {"theta", "rate", "err"};
  runtime::CsvSink sink{csv};
  return runtime::run_sweep(
      grid,
      [](const runtime::JobContext& ctx) {
        clockgen::ScheduleConfig cfg;
        cfg.theta_div = static_cast<std::uint32_t>(ctx.point.at("theta"));
        cfg.n_div = 8;
        analysis::SweepOptions so;
        so.n_events = 400;
        so.seed = ctx.seed;
        const auto stats =
            analysis::sweep_error(cfg, ctx.point.at("rate"), so);
        char rate[32], err[32];
        std::snprintf(rate, sizeof rate, "%.6g", ctx.point.at("rate"));
        std::snprintf(err, sizeof err, "%.17g",
                      stats.weighted_rel_error());
        runtime::JobOutput out;
        out.values = {stats.weighted_rel_error()};
        out.rows = {{ctx.point.tag(), rate, err}};
        return out;
      },
      opt, &sink);
}

}  // namespace

TEST(RunSweep, ParallelAndSerialAreBitIdentical) {
  std::ostringstream serial, parallel;
  const auto r1 = fig6_slice(1, serial);
  const auto r4 = fig6_slice(4, parallel);
  EXPECT_EQ(r1.threads, 1u);
  EXPECT_EQ(r4.threads, 4u);
  // The whole point of the runtime: same bytes whatever --jobs is.
  EXPECT_EQ(serial.str(), parallel.str());
  ASSERT_EQ(r1.outputs.size(), r4.outputs.size());
  for (std::size_t i = 0; i < r1.outputs.size(); ++i) {
    EXPECT_EQ(r1.outputs[i].values, r4.outputs[i].values) << "job " << i;
  }
}

TEST(RunSweep, SeedDerivationStableAcrossJobCounts) {
  for (const std::size_t jobs : {1u, 2u, 4u}) {
    std::ostringstream ignored;
    const auto r = fig6_slice(jobs, ignored);
    ASSERT_EQ(r.metrics.size(), 10u);
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      EXPECT_EQ(r.metrics[i].index, i);
      EXPECT_EQ(r.metrics[i].seed, derive_seed(99, i));
      EXPECT_GE(r.metrics[i].wall_sec, 0.0);
      EXPECT_FALSE(r.metrics[i].tag.empty());
    }
  }
}

TEST(RunSweep, ThrowingJobAbortsWithNamedGridPoint) {
  SweepGrid grid;
  grid.axis("x", {0, 1, 2, 3, 4, 5, 6, 7});
  runtime::SweepOptions opt;
  opt.jobs = 2;
  std::atomic<int> started{0};
  try {
    runtime::run_sweep(
        grid,
        [&](const runtime::JobContext& ctx) -> runtime::JobOutput {
          started.fetch_add(1);
          if (ctx.point.at("x") == 3.0) {
            throw std::runtime_error{"injected failure"};
          }
          return {};
        },
        opt);
    FAIL() << "expected SweepError";
  } catch (const runtime::SweepError& e) {
    EXPECT_EQ(e.job_index(), 3u);
    EXPECT_EQ(e.job_tag(), "x=3");
    EXPECT_NE(std::string{e.what()}.find("injected failure"),
              std::string::npos);
  }
  // No hang, and the pool is reusable afterwards.
  std::ostringstream ignored;
  EXPECT_NO_THROW(fig6_slice(2, ignored));
}

TEST(RunSweep, ProgressReportsEveryJob) {
  SweepGrid grid;
  grid.axis("x", SweepGrid::lin_space(0, 9, 10));
  runtime::SweepOptions opt;
  opt.jobs = 3;
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> last{0};
  opt.progress = [&](std::size_t done, std::size_t total) {
    calls.fetch_add(1);
    last.store(done);
    EXPECT_EQ(total, 10u);
  };
  runtime::run_sweep(grid, [](const runtime::JobContext&) {
    return runtime::JobOutput{};
  }, opt);
  EXPECT_EQ(calls.load(), 10u);
  EXPECT_EQ(last.load(), 10u);
}

// --- figure definitions end-to-end -----------------------------------------

namespace {

std::string slurp(const std::string& path) {
  std::ifstream f{path};
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

TEST(Figures, QuickFig6IsByteIdenticalAcrossJobCounts) {
  const auto dir = std::filesystem::temp_directory_path() / "aetr_rt_fig6";
  std::filesystem::remove_all(dir);
  sweeps::FigureOptions o1;
  o1.jobs = 1;
  o1.quick = true;
  o1.out_dir = (dir / "j1").string();
  auto r1 = sweeps::run_fig6(o1);
  sweeps::FigureOptions o4 = o1;
  o4.jobs = 4;
  o4.out_dir = (dir / "j4").string();
  auto r4 = sweeps::run_fig6(o4);

  EXPECT_EQ(slurp(r1.csv_path), slurp(r4.csv_path));
  EXPECT_EQ(slurp(r1.points_csv_path), slurp(r4.points_csv_path));
  EXPECT_FALSE(slurp(r1.csv_path).empty());
  EXPECT_EQ(r1.table.row_count(), r4.table.row_count());
  std::filesystem::remove_all(dir);
}

// Every file fig7 and fig8 write (fig7's rate profile included) is the
// same at jobs 1 and 4.
TEST(Figures, QuickFig7AndFig8AreByteIdenticalAcrossJobCounts) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "aetr_rt_fig78";
  fs::remove_all(dir);
  for (const auto run : {&sweeps::run_fig7, &sweeps::run_fig8}) {
    sweeps::FigureOptions o1;
    o1.jobs = 1;
    o1.quick = true;
    o1.out_dir = (dir / "j1").string();
    const auto r1 = run(o1);
    sweeps::FigureOptions o4 = o1;
    o4.jobs = 4;
    o4.out_dir = (dir / "j4").string();
    (void)run(o4);
    EXPECT_FALSE(slurp(r1.csv_path).empty()) << r1.csv_path;
    EXPECT_TRUE(r1.ok()) << r1.csv_path;
  }
  std::size_t files = 0;
  for (const auto& f : fs::directory_iterator{dir / "j1"}) {
    ++files;
    EXPECT_EQ(slurp(f.path().string()),
              slurp((dir / "j4" / f.path().filename()).string()))
        << f.path().filename();
  }
  EXPECT_EQ(files, 3u + 2u);  // fig7a, fig7b, fig7 points; fig8, points
  fs::remove_all(dir);
}

TEST(Figures, RegistryCoversCliSubcommands) {
  for (const char* name : {"fig2", "fig6", "fig7", "fig8"}) {
    EXPECT_NE(sweeps::find_figure(name), nullptr) << name;
  }
  EXPECT_NE(sweeps::find_figure("ablation-ndiv"), nullptr);
  EXPECT_NE(sweeps::find_figure("ablation-agreement"), nullptr);
  for (const char* name :
       {"ablation-adaptive", "ablation-buffer", "ablation-jitter",
        "ablation-mcu", "ablation-min-interspike", "ablation-width"}) {
    EXPECT_NE(sweeps::find_figure(name), nullptr) << name;
  }
  EXPECT_EQ(sweeps::find_figure("fig99"), nullptr);
}
