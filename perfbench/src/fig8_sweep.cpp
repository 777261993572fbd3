// fig8_sweep: the paper's headline path. The full Fig. 8 grid (4 theta
// settings x 13 rates, 412,800 events) through sweeps::run_fig8 at
// jobs = 1, CSVs written to the run's scratch directory. An op is one
// grid-point job (SweepReport::metrics).
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "gen/sources.hpp"
#include "sweeps/figures.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aetr;

// The Fig. 8 grid as sweeps/figures.cpp defines it, in job-index order
// (theta-major). theta = 0 is the no-division baseline.
const std::vector<double> kThetas{64, 32, 16, 0};
const std::vector<double> kRates{0,     10,    30,    100,   300,
                                 1e3,   3e3,   10e3,  30e3,  100e3,
                                 300e3, 550e3, 800e3};

double point_theta(std::size_t job) { return kThetas[job / kRates.size()]; }
double point_rate(std::size_t job) { return kRates[job % kRates.size()]; }

// One grid point rebuilt from public calls: the figure's interface config
// and LFSR stimulus, run through core::run_scenario. Its power must equal
// the sweep's value bit for bit; its RunResult supplies the simulated
// statistics the sweep itself does not return.
core::ScenarioConfig point_scenario(double theta, double rate) {
  core::ScenarioConfig sc;
  auto& clock = sc.interface.clock;
  clock.theta_div = theta != 0.0 ? static_cast<std::uint32_t>(theta) : 64u;
  clock.n_div = 8;
  clock.divide_enabled = theta != 0.0;
  clock.shutdown_enabled = theta != 0.0;
  sc.interface.front_end.keep_records = false;
  sc.interface.fifo.batch_threshold = 512;
  sc.cooldown = rate <= 0.0 ? Time::sec(2.0) : Time::ms(0.1);
  return sc;
}

aer::EventStream point_stream(double rate, std::uint64_t seed) {
  if (rate <= 0.0) return {};
  const auto n =
      static_cast<std::size_t>(std::clamp(rate * 0.5, 300.0, 20000.0));
  gen::LfsrRateSource src{rate, Frequency::mhz(30.0), 128,
                          static_cast<std::uint32_t>(seed),
                          static_cast<std::uint32_t>(seed >> 32)};
  return gen::take(src, n);
}

sweeps::FigureOptions figure_options(const Options& o, std::uint64_t seed,
                                     std::size_t jobs) {
  sweeps::FigureOptions fo;
  fo.jobs = jobs;
  fo.seed = seed;
  fo.out_dir = o.work_dir + "/fig8";
  return fo;
}

std::vector<double> series(const sweeps::FigureResult& r) {
  std::vector<double> v;
  for (const auto& out : r.report.outputs) {
    v.push_back(out.values.empty() ? -1.0 : out.values[0]);
  }
  return v;
}

/// Gate one sweep against the reference series; returns its job count.
/// Also deletes the sweep's CSVs: the next sweep then creates them afresh
/// instead of truncating them, which on ext4 would start disk writeback
/// inside the timed window.
std::size_t check_sweep(const sweeps::FigureResult& r,
                        const std::vector<double>& reference, Report& rep) {
  std::filesystem::remove(r.csv_path);
  std::filesystem::remove(r.points_csv_path);
  const std::size_t jobs = r.report.metrics.size();
  rep.attempted += jobs;
  if (!r.ok()) {
    rep.fail("fig8: a paper self-check failed", jobs);
    return jobs;
  }
  const auto got = series(r);
  if (got.size() != reference.size()) {
    rep.fail("fig8: grid size changed", jobs);
    return jobs;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != reference[i]) rep.fail("fig8: job " + std::to_string(i) +
                                         " differs from the cold sweep");
  }
  return jobs;
}

/// setup_s: the first sweep of a fresh process, in `reps` forked children
/// (forked before this process starts any thread). Returns the 10th
/// percentile: contention only ever slows a set-up down (README.md).
double cold_sweep_seconds(const Options& o, std::uint64_t seed, int reps,
                          Report& rep) {
  std::vector<double> walls;
  std::cout.flush();
  std::fflush(nullptr);
  for (int k = 0; k < reps; ++k) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("fig8: pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fig8: fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      ::close(fds[0]);
      int code = 0;
      try {
        auto fo = figure_options(o, seed, 1);
        fo.out_dir += "-cold" + std::to_string(k);
        const std::int64_t t0 = now_ns();
        const auto r = sweeps::run_fig8(fo);
        const double wall = secs(t0, now_ns());
        code = r.ok() ? 0 : 3;
        if (::write(fds[1], &wall, sizeof wall) != sizeof wall) code = 4;
      } catch (...) {
        code = 2;
      }
      ::close(fds[1]);
      ::_exit(code);
    }
    ::close(fds[1]);
    double wall = 0.0;
    const bool got = ::read(fds[0], &wall, sizeof wall) == sizeof wall;
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      rep.fail("fig8: cold sweep child failed");
      continue;
    }
    walls.push_back(wall);
  }
  return quantile(walls, 0.1);
}

/// run_fig8 inside a span (a null tracer records nothing).
sweeps::FigureResult sweep_in_span(Tracer* tr, const char* name,
                                   std::uint64_t op,
                                   const sweeps::FigureOptions& fo) {
  Span s{tr, name, op};
  return sweeps::run_fig8(fo);
}

struct Reference {
  std::vector<double> series;
  std::vector<std::uint64_t> seeds;
  std::uint64_t events_per_sweep{0};
};

/// The untimed first sweep plus the per-point rebuild: reference series,
/// simulated statistics and input digest.
Reference reference_sweep(const Options& o, std::uint64_t seed, Report& rep) {
  Reference ref;
  const auto r = sweeps::run_fig8(figure_options(o, seed, 1));
  ref.series = series(r);
  check_sweep(r, ref.series, rep);
  for (const auto& m : r.report.metrics) ref.seeds.push_back(m.seed);
  if (ref.series.size() != kThetas.size() * kRates.size()) {
    throw std::runtime_error("fig8: unexpected grid size");
  }
  std::uint64_t digest = kFnvOffset;
  for (std::size_t i = 0; i < ref.series.size(); ++i) {
    const auto stream = point_stream(point_rate(i), ref.seeds[i]);
    digest = digest_events(stream, digest);
    const auto res = core::run_scenario(
        point_scenario(point_theta(i), point_rate(i)), stream);
    rep.sim.add(res);
    ++rep.attempted;
    if (res.average_power_w != ref.series[i]) {
      rep.fail("fig8: rebuilt grid point " + std::to_string(i) +
               " disagrees with the sweep");
    }
  }
  ref.events_per_sweep = rep.sim.events_in;
  rep.input_digest = digest;
  return ref;
}

void end_to_end(const Options& o, std::uint64_t seed, Report& rep) {
  rep.metric("setup_s", cold_sweep_seconds(o, seed, 6, rep), "s");

  PassLog log{1024, kThetas.size() * kRates.size()};
  RssMeter rss;
  rss.start();
  const Reference ref = reference_sweep(o, seed, rep);

  // The sweep's pool thread inherits this thread's CPU, so each sweep runs
  // on one CPU, the next sweep on the next.
  CpuRotation rotation;
  rep.note("cpus_rotated", std::to_string(rotation.cpus()));
  std::size_t ops = 0;
  double window = 0.0;
  const Deadline hard_stop{o.seconds * 4.0};
  while (ops < 1000 ||
         (window < o.seconds && !hard_stop.passed() && !log.full())) {
    rotation.next();
    const std::int64_t t0 = now_ns();
    const auto r = sweeps::run_fig8(figure_options(o, seed, 1));
    const double wall = secs(t0, now_ns());
    window += wall;
    for (const auto& m : r.report.metrics) log.add_op(1e3 * m.wall_sec);
    log.end_pass(static_cast<double>(ref.events_per_sweep) / wall);
    ops += check_sweep(r, ref.series, rep);
  }
  const double peak_rss_mib = rss.peak_growth_mib();
  report_fastest(log, window, rep);
  rep.metric("peak_rss_mb", peak_rss_mib, "MiB");
}

void traced(const Options& o, std::uint64_t seed, Report& rep) {
  const Reference ref = reference_sweep(o, seed, rep);
  const auto sweep_fo = figure_options(o, seed, 1);

  // Untraced and traced sweeps alternate (U T U ... T U), so drift over the
  // run weighs on both sides of the tracing-overhead comparison alike.
  const auto untraced_sweep = [&] {
    const std::int64_t t0 = now_ns();
    const auto r = sweeps::run_fig8(sweep_fo);
    const double wall = secs(t0, now_ns());
    check_sweep(r, ref.series, rep);
    return wall;
  };
  Tracer tr;
  std::vector<double> untraced{untraced_sweep()};
  std::vector<double> traced_wall, busy, overhead, post;
  const Deadline alt_end{0.6 * o.seconds};
  while (traced_wall.size() < 3 || !alt_end.passed()) {
    tr.start_window();
    const std::int64_t t0 = now_ns();
    const auto r = sweep_in_span(&tr, "sweeps.run_fig8",
                                 traced_wall.size() + 1, sweep_fo);
    const double wall = secs(t0, now_ns());
    tr.stop_window();
    traced_wall.push_back(wall);
    busy.push_back(r.report.busy_sec());
    overhead.push_back(r.report.wall_sec - r.report.busy_sec());
    post.push_back(wall - r.report.wall_sec);
    check_sweep(r, ref.series, rep);
    untraced.push_back(untraced_sweep());
  }

  // Pool scaling at jobs = 2 (informational; the e2e run stays at 1).
  std::vector<double> j2_wall;
  const auto j2_fo = figure_options(o, seed, 2);
  const Deadline j2_end{0.15 * o.seconds};
  tr.start_window();
  while (j2_wall.size() < 3 || !j2_end.passed()) {
    const std::int64_t t0 = now_ns();
    const auto r = sweep_in_span(&tr, "sweeps.run_fig8.jobs2",
                                 1000 + j2_wall.size(), j2_fo);
    j2_wall.push_back(secs(t0, now_ns()));
    check_sweep(r, ref.series, rep);
  }

  // The grid rebuilt point by point: stimulus generation vs. simulation.
  const std::size_t n_jobs = ref.series.size();
  std::vector<double> sim_s(n_jobs, 0.0);
  std::vector<double> events(n_jobs, 0.0);
  double gen_s = 0.0;
  std::size_t passes = 0;
  const Deadline r_end{0.25 * o.seconds};
  while (passes < 1 || !r_end.passed()) {
    for (std::size_t i = 0; i < n_jobs; ++i) {
      const std::uint64_t op = 10000 * (passes + 1) + i;
      Span job{&tr, "fig8.job", op};
      aer::EventStream stream;
      std::int64_t t0 = now_ns();
      {
        Span g{&tr, "gen.lfsr_take"};
        stream = point_stream(point_rate(i), ref.seeds[i]);
      }
      gen_s += secs(t0, now_ns());
      t0 = now_ns();
      core::RunResult res;
      {
        Span s{&tr, "core.run_scenario"};
        res = core::run_scenario(
            point_scenario(point_theta(i), point_rate(i)), stream);
      }
      sim_s[i] += secs(t0, now_ns());
      events[i] += static_cast<double>(stream.size());
      ++rep.attempted;
      if (res.average_power_w != ref.series[i]) {
        rep.fail("fig8: rebuilt grid point differs from the sweep");
      }
    }
    ++passes;
  }
  tr.stop_window();

  double busy_ev = 0.0, busy_t = 0.0, nodiv = 0.0, all = 0.0;
  std::vector<double> idle_ms;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const double rate = point_rate(i);
    all += sim_s[i];
    if (point_theta(i) == 0.0) nodiv += sim_s[i];
    if (rate >= 30e3) {
      busy_t += sim_s[i];
      busy_ev += events[i];
    }
    if (rate >= 10.0 && rate <= 300.0) {
      idle_ms.push_back(1e3 * sim_s[i] / static_cast<double>(passes));
    }
  }

  const auto acc = tr.account();
  const double overhead_frac = median(traced_wall) / median(untraced) - 1.0;
  std::cout << "\n[fig8_sweep] traced run: " << traced_wall.size()
            << " traced sweeps at jobs=1 between " << untraced.size()
            << " untraced, " << j2_wall.size() << " at jobs=2, " << passes
            << " rebuild passes\n";
  print_accounting(std::cout, acc, overhead_frac);
  char line[200];
  std::snprintf(line, sizeof line,
                "inside sweeps.run_fig8 (SweepReport, median per sweep): "
                "jobs busy %.2f ms, pool overhead %.2f ms, post %.2f ms\n",
                1e3 * median(busy), 1e3 * median(overhead), 1e3 * median(post));
  std::cout << line;

  rep.metric("runtime.busy_s", median(busy), "s");
  rep.metric("runtime.overhead_s", median(overhead), "s");
  rep.metric("sweeps.fig8.post_s", median(post), "s");
  rep.metric("runtime.speedup_j2", median(traced_wall) / median(j2_wall), "x");
  rep.metric("core.run_scenario.ns_per_event", 1e9 * busy_t / busy_ev, "ns");
  rep.metric("core.run_scenario.idle_job_ms", median(idle_ms), "ms");
  rep.metric("core.run_scenario.nodiv_share", nodiv / all, "fraction");
  double all_events = 0.0;
  for (const double e : events) all_events += e;
  rep.metric("gen.lfsr.ns_per_event", 1e9 * gen_s / all_events, "ns");
  rep.metric("gen.lfsr.share", gen_s / (gen_s + all), "fraction");
  rep.metric("trace.residual_frac", acc.residual_s / acc.wall_s, "fraction");
  rep.metric("trace.overhead_frac", overhead_frac, "fraction");
  tr.write_chrome_json(o.out_dir + "/trace-fig8_sweep-seed" +
                           std::to_string(o.seed) + ".json",
                       "perfbench fig8_sweep");
}

}  // namespace

Report run_fig8_sweep(const Options& options) {
  Report rep;
  const std::uint64_t seed = runtime::derive_seed(options.seed, 8);
  rep.note("threads", options.trace ? "1 (2 in the jobs=2 phase)" : "1");
  rep.note("jobs", "1");
  rep.note("figure_seed", std::to_string(seed));
  if (options.trace) {
    traced(options, seed, rep);
  } else {
    end_to_end(options, seed, rep);
  }
  return rep;
}

}  // namespace perfbench
