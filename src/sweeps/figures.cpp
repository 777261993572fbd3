#include "sweeps/figures.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>
#include <utility>

#include "analysis/error.hpp"
#include "clockgen/schedule.hpp"
#include "cochlea/audio.hpp"
#include "cochlea/cochlea.hpp"
#include "core/scenario.hpp"
#include "gen/sources.hpp"
#include "obs/ledger.hpp"
#include "power/model.hpp"
#include "runtime/sink.hpp"
#include "sim/vcd.hpp"
#include "sweeps/common.hpp"
#include "telemetry/telemetry.hpp"
#include "util/artifacts.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace aetr::sweeps {

namespace {

using runtime::GridPoint;
using runtime::JobContext;
using runtime::JobOutput;
using runtime::SweepGrid;

using detail::fmt;
using detail::sweep_options;

Check make_check(std::string name, bool ok, std::string detail) {
  return Check{std::move(name), ok, std::move(detail)};
}

/// Per-job telemetry options with deterministic artifact names
/// (aetr_<figure>_j<NNN>_trace.json / _trace.csv / _metrics.csv). Jobs run
/// concurrently but each writes only its own files, and every recorded
/// timestamp is sim time, so the sweep's telemetry output is byte-identical
/// for any `jobs` value. Returns any() == false when neither flag is set.
telemetry::SessionOptions job_telemetry(const FigureOptions& opt,
                                        const char* figure,
                                        std::size_t job_index) {
  telemetry::SessionOptions so;
  so.trace = opt.trace;
  so.metrics = opt.metrics;
  if (!so.any()) return so;
  char stem[96];
  std::snprintf(stem, sizeof stem, "aetr_%s_j%03zu", figure, job_index);
  if (so.trace) {
    so.trace_json_path =
        util::artifact_path(std::string{stem} + "_trace.json", opt.out_dir);
    so.trace_csv_path =
        util::artifact_path(std::string{stem} + "_trace.csv", opt.out_dir);
  }
  if (so.metrics) {
    so.metrics_csv_path =
        util::artifact_path(std::string{stem} + "_metrics.csv", opt.out_dir);
  }
  return so;
}

// --- Fig. 6: average relative timestamp error vs. event rate ---------------

}  // namespace

FigureResult run_fig6(const FigureOptions& opt) {
  const std::vector<double> thetas{16, 32, 64};
  const std::size_t points = opt.quick ? 9 : 27;
  const std::size_t n_events = opt.quick ? 800 : 6000;

  SweepGrid grid;
  grid.axis("theta", thetas)
      .axis("rate", SweepGrid::log_space(100.0, 2e6, points));

  const auto job = [n_events](const JobContext& ctx) {
    clockgen::ScheduleConfig cfg;
    cfg.theta_div = static_cast<std::uint32_t>(ctx.point.at("theta"));
    cfg.n_div = 8;
    analysis::SweepOptions so;
    so.n_events = n_events;
    so.seed = ctx.seed;
    const double rate = ctx.point.at("rate");
    const auto stats = analysis::sweep_error(cfg, rate, so);
    JobOutput out;
    out.values = {stats.weighted_rel_error(), stats.frac_saturated()};
    out.rows = {{fmt("%g", ctx.point.at("theta")), fmt("%.6g", rate),
                 fmt("%.6g", stats.weighted_rel_error()),
                 fmt("%.6g", stats.frac_saturated())}};
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_fig6_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job, sweep_options(opt, 1234, {"theta", "rate", "err", "sat"}),
      &sink);

  const auto& rates = grid.axis_at(1).values;
  const auto err = [&](std::size_t t, std::size_t r) {
    return report.outputs[t * points + r].values[0];
  };
  const auto sat = [&](std::size_t t, std::size_t r) {
    return report.outputs[t * points + r].values[1];
  };

  clockgen::ScheduleConfig cfg64;
  cfg64.theta_div = 64;
  cfg64.n_div = 8;

  Table table{{"rate (evt/s)", "err theta=16", "err theta=32", "err theta=64",
               "region (theta=64)", "sat% (64)"}};
  for (std::size_t r = 0; r < points; ++r) {
    table.add_row({Table::num(rates[r], 4), Table::num(err(0, r), 3),
                   Table::num(err(1, r), 3), Table::num(err(2, r), 3),
                   analysis::to_string(analysis::classify_region(cfg64,
                                                                 rates[r])),
                   Table::num(100.0 * sat(2, r), 3)});
  }
  const std::string csv = util::artifact_path("aetr_fig6.csv", opt.out_dir);
  table.write_csv(csv);

  std::vector<Check> checks;
  if (!opt.quick) {
    const double bound64 = analysis::analytic_error_bound(64);
    // The paper quotes the bound "from 1 kevt/s to 550 kevt/s"; just above
    // the inactive boundary a residual saturated fraction still dominates,
    // so score the bound over the saturation-free part of the active region.
    double worst_active = 0.0;
    for (std::size_t r = 0; r < points; ++r) {
      if (analysis::classify_region(cfg64, rates[r]) ==
              analysis::Region::kActive &&
          sat(2, r) < 0.02) {
        worst_active = std::max(worst_active, err(2, r));
      }
    }
    checks.push_back(make_check(
        "active-region error below analytic bound (theta=64)",
        worst_active < bound64,
        fmt("%.4f", worst_active) + " vs bound " + fmt("%.4f", bound64)));

    const std::size_t near50k = static_cast<std::size_t>(
        std::min_element(rates.begin(), rates.end(),
                         [](double a, double b) {
                           return std::abs(a - 50e3) < std::abs(b - 50e3);
                         }) -
        rates.begin());
    const double accuracy = 1.0 - err(2, near50k);
    checks.push_back(make_check("accuracy near 50 kevt/s > 97% (theta=64)",
                                accuracy > 0.97,
                                fmt("%.2f", 100.0 * accuracy) + " %"));
  }

  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- Fig. 8: average interface power vs. event rate ------------------------

namespace {

core::InterfaceConfig fig8_config(std::uint32_t theta, bool divide) {
  core::InterfaceConfig cfg;
  cfg.clock.theta_div = theta;
  cfg.clock.n_div = 8;
  cfg.clock.divide_enabled = divide;
  cfg.clock.shutdown_enabled = divide;
  cfg.front_end.keep_records = false;  // long runs; no need for logs
  cfg.fifo.batch_threshold = 512;
  return cfg;
}

double fig8_measure_power(const core::InterfaceConfig& cfg, double rate_hz,
                          std::uint64_t seed,
                          const telemetry::SessionOptions& tel = {},
                          const std::string& ledger_stem = {}) {
  core::ScenarioConfig sc;
  sc.interface = cfg;
  sc.telemetry = tel;
  sc.energy_ledger = !ledger_stem.empty();
  core::RunResult r;
  if (rate_hz <= 0.0) {
    // "Absence of spikes": a long idle window, clock long shut down.
    sc.cooldown = Time::sec(2.0);
    r = core::run_scenario(sc, {});
  } else {
    // Enough events for a stable average, enough window to see shutdown.
    const auto n_events =
        static_cast<std::size_t>(std::clamp(rate_hz * 0.5, 300.0, 20000.0));
    gen::LfsrRateSource src{rate_hz, Frequency::mhz(30.0), 128,
                            static_cast<std::uint32_t>(seed),
                            static_cast<std::uint32_t>(seed >> 32)};
    sc.cooldown = Time::ms(0.1);
    r = core::run_scenario_totals(sc, src, n_events);
  }
  if (sc.energy_ledger) {
    obs::write_ledger_csv(r.ledger, ledger_stem + "_ledger.csv");
    obs::write_collapsed_stack(r.ledger, ledger_stem + "_stack.txt");
  }
  return r.average_power_w;
}

}  // namespace

FigureResult run_fig8(const FigureOptions& opt) {
  // theta = 0 encodes the paper's no-division baseline (theta_div = 64
  // hardware with the divider and shutdown disabled).
  const std::vector<double> thetas =
      opt.quick ? std::vector<double>{64, 0}
                : std::vector<double>{64, 32, 16, 0};
  // Rate 0 is the paper's "absence of spikes" anchor; the rest spans the
  // figure's 0.01-800 kevt/s axis.
  const std::vector<double> rates =
      opt.quick ? std::vector<double>{0, 10, 1e3, 100e3}
                : std::vector<double>{0,    10,    30,    100,   300,
                                      1e3,  3e3,   10e3,  30e3,  100e3,
                                      300e3, 550e3, 800e3};

  SweepGrid grid;
  grid.axis("theta", thetas).axis("rate", rates);

  const auto job = [&opt](const JobContext& ctx) {
    const auto theta = static_cast<std::uint32_t>(ctx.point.at("theta"));
    const double rate = ctx.point.at("rate");
    const auto cfg = fig8_config(theta ? theta : 64, theta != 0);
    std::string ledger_stem;
    if (opt.ledger) {
      char stem[96];
      std::snprintf(stem, sizeof stem, "aetr_fig8_j%03zu", ctx.index);
      ledger_stem = util::artifact_path(stem, opt.out_dir);
    }
    const double p =
        fig8_measure_power(cfg, rate, ctx.seed,
                           job_telemetry(opt, "fig8", ctx.index),
                           ledger_stem);
    JobOutput out;
    out.values = {p};
    out.rows = {{fmt("%g", ctx.point.at("theta")), fmt("%.6g", rate),
                 fmt("%.8g", p * 1e3)}};
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_fig8_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job, sweep_options(opt, 8, {"theta", "rate", "power_mw"}), &sink);

  const std::size_t n_rates = rates.size();
  const auto power = [&](std::size_t t, std::size_t r) {
    return report.outputs[t * n_rates + r].values[0];
  };
  const std::size_t naive_ord = thetas.size() - 1;  // theta = 0 is last

  // Eq. 1: E_spike estimated from the high-activity region (top rate).
  const power::PowerModel model;
  const double espike =
      power::estimate_espike_j(power(naive_ord, n_rates - 1),
                               model.calibration().static_w, rates.back());

  std::vector<std::string> header{"rate (evt/s)"};
  for (const double t : thetas) {
    header.push_back(t != 0 ? "P mW theta=" + fmt("%g", t) : "P mW no-div");
  }
  header.push_back("P mW ideal");
  Table table{header};
  for (std::size_t r = 0; r < n_rates; ++r) {
    std::vector<std::string> row{Table::num(rates[r], 4)};
    for (std::size_t t = 0; t < thetas.size(); ++t) {
      row.push_back(Table::num(power(t, r) * 1e3, 4));
    }
    row.push_back(Table::num(model.ideal_power_w(rates[r], espike) * 1e3, 4));
    table.add_row(std::move(row));
  }
  const std::string csv = util::artifact_path("aetr_fig8.csv", opt.out_dir);
  table.write_csv(csv);

  std::vector<Check> checks;
  if (!opt.quick) {
    const auto at_rate = [&](std::size_t t, double r) {
      for (std::size_t i = 0; i < n_rates; ++i) {
        if (rates[i] == r) return power(t, i);
      }
      return 0.0;
    };
    const double p550k = at_rate(0, 550e3);
    const double p_idle = at_rate(0, 0);
    const double span = p550k / p_idle;
    checks.push_back(make_check("E_spike estimate in 2-10 nJ",
                                espike > 2e-9 && espike < 10e-9,
                                fmt("%.2f", espike * 1e9) + " nJ"));
    checks.push_back(make_check("power at 550 kevt/s ~ 4.5 mW",
                                p550k > 3e-3 && p550k < 6e-3,
                                fmt("%.2f", p550k * 1e3) + " mW"));
    checks.push_back(make_check("power with no spikes ~ 50 uW",
                                p_idle > 20e-6 && p_idle < 100e-6,
                                fmt("%.1f", p_idle * 1e6) + " uW"));
    checks.push_back(make_check("proportionality span > 20x (paper: ~90x)",
                                span > 20.0, fmt("%.0f", span) + "x"));
    double best_saving = 0.0;
    double best_rate = 0.0;
    for (std::size_t i = 0; i < n_rates; ++i) {
      if (rates[i] < 1e3 || rates[i] > 300e3) continue;  // active region
      const double saving = 1.0 - power(0, i) / power(naive_ord, i);
      if (saving > best_saving) {
        best_saving = saving;
        best_rate = rates[i];
      }
    }
    checks.push_back(make_check(
        "max active-region saving > 30% (paper: up to 55%)",
        best_saving > 0.30,
        fmt("%.0f", 100.0 * best_saving) + " % at " + fmt("%.3g", best_rate) +
            " evt/s"));
    const double flatness = at_rate(naive_ord, 10) / at_rate(naive_ord, 550e3);
    checks.push_back(make_check("no-division baseline flat",
                                flatness > 0.7 && flatness < 1.3,
                                "P(10)/P(550k) = " + fmt("%.2f", flatness)));
  }

  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- Fig. 2: the divided sampling clock, Ndiv = 3, theta_div = 8 -----------

// A closed-form picture, not a sweep: no job runs, so the report is empty.
FigureResult run_fig2(const FigureOptions& opt) {
  clockgen::ScheduleConfig cfg;
  cfg.tmin = Time::ns(100.0);  // display unit; the shape is what Fig. 2 shows
  cfg.theta_div = 8;
  cfg.n_div = 3;
  const clockgen::SamplingSchedule schedule{cfg};
  const Time span = schedule.awake_span();
  const auto edges = schedule.enumerate_edges(span);

  // The waveform, with an explicit low phase (50 % duty) per cycle.
  {
    sim::VcdWriter vcd{util::artifact_path("aetr_fig2.vcd", opt.out_dir)};
    const auto clk = vcd.add_signal("clockgen", "sampling_clk");
    const auto level = vcd.add_signal("clockgen", "div_level", 4);
    const auto sleep = vcd.add_signal("clockgen", "sleep");
    vcd.change(sleep, 0, Time::zero());
    for (const auto& e : edges) {
      vcd.change(clk, 1, e.at);
      vcd.change(level, e.level, e.at);
      vcd.change(clk, 0, e.at + schedule.period_of_level(e.level) / 2);
    }
    vcd.change(sleep, 1, span);
  }

  Table table{{"edge", "time", "level", "period"}};
  std::vector<std::size_t> per_level(cfg.n_div + 1, 0);
  bool inside = true;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto& e = edges[i];
    table.add_row({std::to_string(i), e.at.to_string(),
                   std::to_string(e.level),
                   schedule.period_of_level(e.level).to_string()});
    ++per_level[e.level];  // level_at() clamps to n_div
    inside = inside && e.at < span;
  }
  const std::string csv = util::artifact_path("aetr_fig2.csv", opt.out_dir);
  table.write_csv(csv);

  const bool theta_per_level =
      std::all_of(per_level.begin(), per_level.end(),
                  [&](std::size_t n) { return n == cfg.theta_div; });
  const bool stops = schedule.is_asleep_at(span) &&
                     schedule.first_edge_at_or_after(span) == Time::max() &&
                     schedule.enumerate_edges(span * 2).size() == edges.size();
  std::vector<Check> checks;
  checks.push_back(make_check(
      "theta_div edges at each of the Ndiv + 1 levels",
      theta_per_level && edges.size() == cfg.theta_div * (cfg.n_div + 1),
      std::to_string(edges.size()) + " edges"));
  checks.push_back(make_check("every edge inside the awake span", inside,
                              "span " + span.to_string()));
  checks.push_back(make_check("the clock stops at the awake span", stops, ""));
  return FigureResult{std::move(table), {}, std::move(checks), csv, ""};
}

// --- Fig. 7: a cochlea word and its error distribution vs. theta_div -------

FigureResult run_fig7(const FigureOptions& opt) {
  // The stimulus is part of the figure's definition, like the ablations'
  // seeds: a synthesised word over a noise floor ("a word extracted from a
  // real sentence"), seed 2024 whatever --seed says.
  cochlea::CochleaModel sensor;
  cochlea::AudioSynth synth{sensor.config().sample_rate, 2024};
  auto audio = synth.word(cochlea::AudioSynth::demo_word());
  synth.add_background(audio, 0.02);
  const auto events = sensor.process(audio);

  // Fig. 7a: the event-rate profile in 10 ms bins.
  const Time bin = Time::ms(10.0);
  const Time last = events.empty() ? Time::zero() : events.back().time;
  std::vector<int> rate(static_cast<std::size_t>(last / bin) + 1, 0);
  for (const auto& ev : events) ++rate[static_cast<std::size_t>(ev.time / bin)];
  Table rate_table{{"t (ms)", "rate (kevt/s)"}};
  for (std::size_t b = 0; b < rate.size(); ++b) {
    rate_table.add_row(
        {Table::num(static_cast<double>(b) * bin.to_ms(), 4),
         Table::num(static_cast<double>(rate[b]) / bin.to_sec() / 1e3, 4)});
  }
  rate_table.write_csv(util::artifact_path("aetr_fig7a_rate.csv", opt.out_dir));

  // Fig. 7b: the word through the full interface at each theta_div.
  const std::vector<double> thetas{16, 32, 64};
  const Histogram bins{0.0, 12.0, 16};  // error %, like the paper's x axis
  SweepGrid grid;
  grid.axis("theta", thetas);
  const auto job = [&events, &bins](const JobContext& ctx) {
    core::ScenarioConfig scn;
    scn.interface.clock.theta_div =
        static_cast<std::uint32_t>(ctx.point.at("theta"));
    scn.interface.fifo.batch_threshold = 256;
    const auto result = core::run_scenario(scn, events);
    const auto errors = analysis::record_errors(
        result.records, result.tick_unit, result.saturation_span);
    Histogram h = bins;
    RunningStats stats;
    for (const double e : errors) {
      h.add(100.0 * e);
      stats.add(e);
    }
    JobOutput out;
    out.values = {stats.mean()};
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      out.values.push_back(h.probability(b));
    }
    out.rows = {{fmt("%g", ctx.point.at("theta")),
                 std::to_string(errors.size()), fmt("%.6g", stats.mean())}};
    return out;
  };
  const std::string points_csv =
      util::artifact_path("aetr_fig7_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job, sweep_options(opt, 7, {"theta", "captures", "mean_err"}),
      &sink);

  const auto& out = report.outputs;
  Table table{{"error bin", "P(theta=16)", "P(theta=32)", "P(theta=64)"}};
  for (std::size_t b = 0; b < bins.bin_count(); ++b) {
    table.add_row({Table::num(bins.bin_lo(b), 3) + "-" +
                       Table::num(bins.bin_hi(b), 3) + "%",
                   Table::num(out[0].values[b + 1], 3),
                   Table::num(out[1].values[b + 1], 3),
                   Table::num(out[2].values[b + 1], 3)});
  }
  const std::string csv =
      util::artifact_path("aetr_fig7b_errors.csv", opt.out_dir);
  table.write_csv(csv);

  const double m16 = out[0].values[0];
  const double m32 = out[1].values[0];
  const double m64 = out[2].values[0];
  std::vector<Check> checks;
  checks.push_back(make_check(
      "accuracy improves with theta_div (paper Fig. 7b)",
      m64 < m32 && m32 < m16,
      "mean error " + fmt("%.3f", 100.0 * m16) + " / " +
          fmt("%.3f", 100.0 * m32) + " / " + fmt("%.3f", 100.0 * m64) +
          " % at theta_div 16 / 32 / 64"));
  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- Ablation A1: the N_div knob -------------------------------------------

FigureResult run_ablation_ndiv(const FigureOptions& opt) {
  const std::vector<double> ndivs = opt.quick
                                        ? std::vector<double>{2, 8}
                                        : std::vector<double>{2, 4, 6, 8, 10};
  const std::size_t n_events = opt.quick ? 400 : 1200;

  SweepGrid grid;
  grid.axis("n_div", ndivs);

  const auto job = [n_events, &opt](const JobContext& ctx) {
    const auto n_div = static_cast<std::uint32_t>(ctx.point.at("n_div"));
    clockgen::ScheduleConfig sc;
    sc.theta_div = 64;
    sc.n_div = n_div;
    const clockgen::SamplingSchedule schedule{sc};
    const double t_max = schedule.awake_span().to_sec();
    const double flex = 1.0 / t_max;

    const auto power_at = [&](double rate_hz, std::uint64_t seed) {
      core::ScenarioConfig scenario;
      scenario.interface.clock.theta_div = 64;
      scenario.interface.clock.n_div = n_div;
      scenario.interface.front_end.keep_records = false;
      gen::PoissonSource src{rate_hz, 128, seed};
      const auto n =
          static_cast<std::size_t>(std::clamp(rate_hz * 0.3, 200.0, 5000.0));
      return core::run_scenario_totals(scenario, src, n).average_power_w;
    };

    analysis::SweepOptions so;
    so.n_events = n_events;
    so.seed = ctx.seed;
    const auto err_lo = analysis::sweep_error(sc, 2.0 * flex, so);
    const auto err_hi = analysis::sweep_error(sc, 20.0 * flex, so);

    JobOutput out;
    out.values = {t_max,
                  flex,
                  power_at(flex / 4.0, runtime::splitmix64(ctx.seed)),
                  power_at(flex * 4.0, runtime::splitmix64(ctx.seed + 1)),
                  err_lo.frac_saturated(),
                  err_hi.frac_saturated()};
    out.rows = {{fmt("%g", ctx.point.at("n_div")), fmt("%.6g", t_max),
                 fmt("%.6g", flex), fmt("%.6g", out.values[2]),
                 fmt("%.6g", out.values[3]), fmt("%.6g", out.values[4]),
                 fmt("%.6g", out.values[5])}};
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_ablation_ndiv_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 5,
                    {"n_div", "t_max_s", "flex_hz", "p_w_flex_quarter",
                     "p_w_flex_x4", "sat_2flex", "sat_20flex"}),
      &sink);

  Table table{{"N_div", "T_max", "flex rate 1/T_max (evt/s)",
               "P @ flex/4 (mW)", "P @ 4*flex (mW)", "sat% @ 2/T_max",
               "sat% @ 20/T_max"}};
  for (std::size_t i = 0; i < ndivs.size(); ++i) {
    const auto& v = report.outputs[i].values;
    clockgen::ScheduleConfig sc;
    sc.theta_div = 64;
    sc.n_div = static_cast<std::uint32_t>(ndivs[i]);
    table.add_row({fmt("%g", ndivs[i]),
                   clockgen::SamplingSchedule{sc}.awake_span().to_string(),
                   Table::num(v[1], 4), Table::num(v[2] * 1e3, 4),
                   Table::num(v[3] * 1e3, 4), Table::num(100.0 * v[4], 3),
                   Table::num(100.0 * v[5], 3)});
  }
  const std::string csv =
      util::artifact_path("aetr_ablation_ndiv.csv", opt.out_dir);
  table.write_csv(csv);

  // Internal consistency: both boundaries must slide together as N_div
  // grows — that is the whole point of the knob (§5.2).
  std::vector<Check> checks;
  bool tmax_monotonic = true;
  bool power_ordered = true;
  bool sat_ordered = true;
  for (std::size_t i = 0; i < ndivs.size(); ++i) {
    const auto& v = report.outputs[i].values;
    if (i && v[0] <= report.outputs[i - 1].values[0]) tmax_monotonic = false;
    if (v[2] >= v[3]) power_ordered = false;
    if (v[4] <= v[5]) sat_ordered = false;
  }
  checks.push_back(make_check("T_max grows monotonically with N_div",
                              tmax_monotonic, ""));
  checks.push_back(make_check("power below flex < power above flex",
                              power_ordered, ""));
  checks.push_back(make_check(
      "saturation near the flex exceeds saturation well above it",
      sat_ordered, ""));

  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- Ablation A4: DES vs. algorithmic model --------------------------------

FigureResult run_ablation_agreement(const FigureOptions& opt) {
  const std::vector<double> thetas =
      opt.quick ? std::vector<double>{64} : std::vector<double>{16, 64};
  const std::vector<double> rates =
      opt.quick ? std::vector<double>{3e3, 3e4}
                : std::vector<double>{3e3, 3e4, 3e5};
  const std::size_t n_events = opt.quick ? 1000 : 5000;

  SweepGrid grid;
  grid.axis("theta", thetas).axis("rate", rates);

  const auto job = [n_events, &opt](const JobContext& ctx) {
    const auto theta = static_cast<std::uint32_t>(ctx.point.at("theta"));
    const double rate = ctx.point.at("rate");
    clockgen::ScheduleConfig sc;
    sc.theta_div = theta;
    sc.n_div = 8;

    // All three paths consume the same seed, hence (for the two model
    // variants) the same Poisson stream — the measured deltas isolate the
    // synchroniser and the handshake, not sampling noise.
    analysis::SweepOptions ideal;
    ideal.n_events = n_events;
    ideal.seed = ctx.seed;
    const auto model_err = analysis::sweep_error(sc, rate, ideal);

    analysis::SweepOptions synced = ideal;
    synced.sync_edges = 2;
    const auto sync_err = analysis::sweep_error(sc, rate, synced);

    core::ScenarioConfig run_sc;
    run_sc.interface.clock.theta_div = theta;
    run_sc.interface.fifo.batch_threshold = 512;
    gen::PoissonSource src{rate, 128, ctx.seed, Time::ns(130.0)};
    const auto events = gen::take(src, n_events);
    run_sc.telemetry = job_telemetry(opt, "ablation_agreement", ctx.index);
    const auto r = core::run_scenario(run_sc, events);

    JobOutput out;
    out.values = {model_err.weighted_rel_error(),
                  sync_err.weighted_rel_error(),
                  r.error.weighted_rel_error()};
    out.rows = {{fmt("%g", ctx.point.at("theta")), fmt("%.6g", rate),
                 fmt("%.6g", out.values[0]), fmt("%.6g", out.values[1]),
                 fmt("%.6g", out.values[2])}};
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_ablation_agreement_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 42,
                    {"theta", "rate", "model_err", "sync_err", "des_err"}),
      &sink);

  // DES throughput is wall-clock and so nondeterministic: it lives in the
  // sweep metrics (report.metrics[i].wall_sec), not in the CSV, which
  // stays byte-identical across runs and thread counts.
  Table table{{"rate (evt/s)", "theta", "model err", "model+sync err",
               "DES err"}};
  std::vector<Check> checks;
  bool sync_closes_gap = true;
  std::string worst;
  for (std::size_t t = 0; t < thetas.size(); ++t) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const auto& v = report.outputs[t * rates.size() + r].values;
      table.add_row({Table::num(rates[r], 4), fmt("%g", thetas[t]),
                     Table::num(v[0], 3), Table::num(v[1], 3),
                     Table::num(v[2], 3)});
      // model+sync must track the DES within 15 % (+ small absolute floor).
      if (std::abs(v[1] - v[2]) > 0.15 * v[2] + 0.005) {
        sync_closes_gap = false;
        worst = "theta=" + fmt("%g", thetas[t]) + " rate=" +
                fmt("%g", rates[r]) + ": sync " + fmt("%.4f", v[1]) +
                " vs DES " + fmt("%.4f", v[2]);
      }
    }
  }
  checks.push_back(make_check("model+sync tracks the DES within 15%",
                              sync_closes_gap, worst));

  const std::string csv =
      util::artifact_path("aetr_ablation_agreement.csv", opt.out_dir);
  table.write_csv(csv);

  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- Faults: accuracy / power degradation vs. fault rate -------------------

// The per-level plan is fault::scaled_plan — shared with the optimizer's
// robust-evaluation mode. All levels share ONE fault seed (derived from the
// sweep's root, not the per-job seed) and the event stream is likewise
// shared, so the curves are coupled: a glitch injected at a low level is,
// with high probability, also injected at every higher level.

FigureResult run_faults(const FigureOptions& opt) {
  const std::vector<double> levels =
      opt.quick ? std::vector<double>{0, 1e-2, 5e-2}
                : std::vector<double>{0, 2e-3, 1e-2, 3e-2, 1e-1};
  const std::size_t n_events = opt.quick ? 600 : 3000;
  const double rate_hz = 30e3;
  const std::uint64_t root = opt.seed ? opt.seed : 77;

  // The SAME stream and the SAME fault seed for every level — the whole
  // point of the figure is the marginal effect of the level knob.
  const std::uint64_t stream_seed = runtime::derive_seed(root, 1);
  const std::uint64_t fault_seed = runtime::derive_seed(root, 2);

  SweepGrid grid;
  grid.axis("level", levels);

  const auto scenario_at = [=](double level) {
    core::ScenarioConfig sc;
    sc.interface.fifo.batch_threshold = 64;
    if (level > 0.0) sc.faults = fault::scaled_plan(level, fault_seed);
    return sc;
  };
  const auto stream = [=] {
    gen::PoissonSource src{rate_hz, 128, stream_seed, Time::ns(130.0)};
    return gen::take(src, n_events);
  };

  const auto job = [&](const JobContext& ctx) {
    const double level = ctx.point.at("level");
    const auto events = stream();
    const auto r = core::run_scenario(scenario_at(level), events);
    const double delivered =
        r.events_in ? static_cast<double>(r.decoded.size()) /
                          static_cast<double>(r.events_in)
                    : 1.0;
    // The degradation score the monotonicity check runs on: timestamp
    // error plus the fraction of events the pipeline failed to deliver.
    const double degradation =
        r.error.weighted_rel_error() + (1.0 - delivered);
    JobOutput out;
    out.values = {r.error.weighted_rel_error(),
                  delivered,
                  r.average_power_w,
                  static_cast<double>(r.faults.injected_total()),
                  static_cast<double>(r.faults.recovered_total()),
                  degradation};
    out.rows = {{fmt("%g", level), fmt("%.6g", out.values[0]),
                 fmt("%.6g", delivered), fmt("%.8g", r.average_power_w * 1e3),
                 fmt("%g", out.values[3]), fmt("%g", out.values[4]),
                 fmt("%g", static_cast<double>(r.faults.watchdog_resyncs)),
                 fmt("%g", static_cast<double>(r.faults.crc_rejected_words))}};
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_faults_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 77,
                    {"level", "err", "delivered", "power_mw", "injected",
                     "recovered", "watchdog_resyncs", "crc_rejected_words"}),
      &sink);

  Table table{{"fault level", "ts err", "delivered", "P (mW)", "injected",
               "recovered"}};
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const auto& v = report.outputs[i].values;
    table.add_row({fmt("%g", levels[i]), Table::num(v[0], 3),
                   Table::num(v[1], 4), Table::num(v[2] * 1e3, 4),
                   fmt("%g", v[3]), fmt("%g", v[4])});
  }
  const std::string csv = util::artifact_path("aetr_faults.csv", opt.out_dir);
  table.write_csv(csv);

  std::vector<Check> checks;
  {
    // Zero-rate identity: an empty plan must be byte-identical to a run
    // with no fault plumbing at all (the injector is simply absent).
    const auto events = stream();
    const auto baseline = core::run_scenario(scenario_at(0.0), events);
    const auto& v0 = report.outputs[0].values;
    const bool identical =
        baseline.error.weighted_rel_error() == v0[0] &&
        baseline.average_power_w == v0[2] &&
        static_cast<double>(baseline.decoded.size()) ==
            v0[1] * static_cast<double>(baseline.events_in);
    checks.push_back(make_check(
        "zero fault level is bit-identical to the fault-free baseline",
        identical,
        identical ? "" : fmt("%.6g", v0[0]) + " vs " +
                             fmt("%.6g", baseline.error.weighted_rel_error())));
  }
  bool monotone = true;
  std::string worst;
  for (std::size_t i = 1; i < levels.size(); ++i) {
    const double prev = report.outputs[i - 1].values[5];
    const double cur = report.outputs[i].values[5];
    if (cur < prev) {
      monotone = false;
      worst = "level " + fmt("%g", levels[i]) + ": " + fmt("%.4f", cur) +
              " < " + fmt("%.4f", prev);
    }
  }
  checks.push_back(make_check(
      "degradation (err + loss) is monotone in the fault level", monotone,
      worst));
  if (!opt.quick) {
    const auto& top = report.outputs.back().values;
    checks.push_back(make_check(
        "recovery engages at the top fault level (recovered > 0)",
        top[4] > 0.0, fmt("%g", top[4]) + " recoveries"));
  }

  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

const std::vector<FigureDef>& figures() {
  static const std::vector<FigureDef> defs{
      {"fig2", "Fig. 2 — the divided sampling clock, Ndiv = 3, theta_div = 8",
       &run_fig2},
      {"fig6", "Fig. 6 — avg relative timestamp error vs. event rate",
       &run_fig6},
      {"fig7", "Fig. 7 — a cochlea word: rate profile, error vs. theta_div",
       &run_fig7},
      {"fig8", "Fig. 8 — average interface power vs. event rate", &run_fig8},
      {"ablation-ndiv", "A1 — N_div as the max-measurable-interval knob",
       &run_ablation_ndiv},
      {"ablation-buffer",
       "A2 — batch threshold and buffer size vs. MCU wakeups and overflow",
       &run_ablation_buffer},
      {"ablation-min-interspike",
       "A3 — sampling frequency vs. min inter-spike, CAVIAR margin, error",
       &run_ablation_min_interspike},
      {"ablation-agreement", "A4 — cycle-level DES vs. algorithmic model",
       &run_ablation_agreement},
      {"ablation-mcu",
       "A5 — system energy with the MCU, batch vs. always-on",
       &run_ablation_mcu},
      {"ablation-width", "A6 — AETR timestamp width vs. carrier bandwidth",
       &run_ablation_width},
      {"ablation-jitter",
       "A7 — ring jitter and frequency drift vs. timestamp accuracy",
       &run_ablation_jitter},
      {"ablation-adaptive",
       "A8 — closed-loop adaptive theta_div vs. static settings",
       &run_ablation_adaptive},
      {"faults", "R1 — accuracy/power degradation vs. injected fault rate",
       &run_faults},
      {"fleet",
       "F2 — fleet energy-per-delivered-event and latency tails vs. N nodes",
       &run_fleet_figure},
  };
  return defs;
}

const FigureDef* find_figure(const std::string& name) {
  for (const auto& d : figures()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

int report_figure(const FigureResult& result, std::ostream& os) {
  result.table.print(os);
  os << "\nseries written to " << result.csv_path;
  if (!result.points_csv_path.empty()) {
    os << " (per-job rows: " << result.points_csv_path << ")";
  }
  os << "\n";
  if (!result.checks.empty()) {
    os << "\nchecks:\n";
    for (const auto& c : result.checks) {
      os << "  [" << (c.ok ? " ok " : "FAIL") << "] " << c.name;
      if (!c.detail.empty()) os << "  (" << c.detail << ")";
      os << "\n";
    }
  }
  const auto& rep = result.report;
  if (!rep.metrics.empty()) {  // a closed-form figure runs no sweep
    char line[160];
    std::snprintf(line, sizeof line,
                  "\nsweep: %zu jobs on %zu threads in %.3f s wall"
                  " (%.3f s busy, %.1f jobs/s, %llu steals)\n",
                  rep.metrics.size(), rep.threads, rep.wall_sec,
                  rep.busy_sec(), rep.jobs_per_sec(),
                  static_cast<unsigned long long>(rep.steals));
    os << line;
  }
  return result.ok() ? 0 : 1;
}

}  // namespace aetr::sweeps
