// Ablations A2, A3 and A5-A8: the design studies behind the paper's §3 and
// §5 sizing arguments, plus this repo's own timestamp-width, ring-jitter
// and adaptive-theta studies. Each is one registry entry; its independent
// runs are sweep jobs, and its consistency checks are named Checks.
//
// Every study fixes its own stimulus seeds (7, 11, 13, 17, 31, 404 and the
// ScenarioBuilder seed 1): they are part of the study's definition, so
// --seed does not reseed them and the default CSVs stay byte-stable. The
// sweep's root seed (the study's A-number unless --seed is given) reaches
// no job; it only labels the per-job metrics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "aer/agents.hpp"
#include "aer/caviar.hpp"
#include "aer/codec.hpp"
#include "analysis/error.hpp"
#include "core/interface.hpp"
#include "core/scenario.hpp"
#include "gen/scenario.hpp"
#include "gen/sources.hpp"
#include "mcu/adaptive.hpp"
#include "mcu/consumer.hpp"
#include "mcu/power.hpp"
#include "rtl/clock_unit.hpp"
#include "runtime/sink.hpp"
#include "sim/scheduler.hpp"
#include "spi/spi.hpp"
#include "sweeps/common.hpp"
#include "sweeps/figures.hpp"
#include "util/artifacts.hpp"
#include "util/stats.hpp"

namespace aetr::sweeps {

using namespace aetr::time_literals;
using detail::fmt;
using detail::sweep_options;
using runtime::JobContext;
using runtime::JobOutput;
using runtime::SweepGrid;

namespace {

/// The axis 0, 1, ..., n-1 for studies whose runs are a list of cases
/// rather than a cartesian grid.
std::vector<double> case_axis(std::size_t n) {
  return SweepGrid::lin_space(0.0, static_cast<double>(n - 1), n);
}

std::size_t case_of(const JobContext& ctx) {
  return static_cast<std::size_t>(ctx.point.at("case"));
}

/// Run the submitted stream to the end, then flush what the FIFO holds.
void run_and_drain(sim::Scheduler& sched, core::AerToI2sInterface& iface) {
  sched.run();
  if (!iface.fifo().empty()) iface.i2s_master().request_drain(sched.now());
  sched.run();
}

}  // namespace

// --- A2: batch threshold and buffer size -----------------------------------
//
// Paper §3: "the actual achievable energy saving depends on two main
// factors: i) the ratio between the input and output bitrate; ii) the
// buffer size". Part 1 sweeps the batch threshold at a fixed input rate:
// larger batches mean fewer MCU wakeups at the cost of buffer occupancy.
// Part 2 sweeps the input rate against the I2S drain rate: once the input
// bitrate exceeds the output bitrate the finite buffer overflows, and the
// onset moves with the buffer size.

FigureResult run_ablation_buffer(const FigureOptions& opt) {
  const std::vector<double> thresholds{16, 64, 256, 1024, 2048};
  gen::PoissonSource make{100e3, 128, 7};
  const auto events = gen::take(make, 20000);

  SweepGrid g1;
  g1.axis("threshold", thresholds);
  const auto batching_job = [&events](const JobContext& ctx) {
    core::InterfaceConfig cfg;
    cfg.fifo.batch_threshold =
        static_cast<std::size_t>(ctx.point.at("threshold"));
    cfg.front_end.keep_records = false;
    sim::Scheduler sched;
    core::AerToI2sInterface iface{sched, cfg};
    aer::AerSender sender{sched, iface.aer_in()};
    sender.submit_stream(events);
    run_and_drain(sched, iface);
    const auto& i2s = iface.i2s_master();
    const auto& fifo = iface.fifo();
    JobOutput out;
    out.values = {static_cast<double>(i2s.drains()),
                  static_cast<double>(fifo.overflows())};
    out.rows = {{std::to_string(cfg.fifo.batch_threshold),
                 std::to_string(i2s.drains()),
                 std::to_string(fifo.max_occupancy()),
                 std::to_string(i2s.words_sent()),
                 std::to_string(fifo.overflows())}};
    return out;
  };
  // Part 1's rows are the table itself, so they are not streamed twice.
  auto report = runtime::run_sweep(g1, batching_job,
                                   sweep_options(opt, 2, {}), nullptr);

  Table table{{"threshold", "batches", "max occupancy", "words out",
               "overflows"}};
  bool fewer_batches = true;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const auto& v = report.outputs[i].values;
    table.add_row(report.outputs[i].rows[0]);
    // Bigger batches must mean strictly fewer MCU wakeups and no losses at
    // this (drainable) input rate.
    if ((i && v[0] >= report.outputs[i - 1].values[0]) || v[1] != 0.0) {
      fewer_batches = false;
    }
  }
  const std::string csv =
      util::artifact_path("aetr_ablation_batching.csv", opt.out_dir);
  table.write_csv(csv);

  // Part 2: 1 MHz I2S clock, ~31 kwords/s drain.
  const std::vector<double> rates{10e3, 25e3, 31e3, 50e3, 100e3};
  const std::vector<double> capacities{512, 2300, 9200};
  SweepGrid g2;
  g2.axis("rate", rates).axis("capacity", capacities);
  const auto overflow_job = [](const JobContext& ctx) {
    const double rate = ctx.point.at("rate");
    const auto capacity = static_cast<std::size_t>(ctx.point.at("capacity"));
    core::ScenarioConfig scn;
    scn.interface.fifo.capacity_words = capacity;
    scn.interface.fifo.batch_threshold = capacity / 4;
    scn.interface.i2s.sck = Frequency::mhz(1.0);
    scn.interface.front_end.keep_records = false;
    gen::PoissonSource src{rate, 128, 11};
    const auto r = core::run_scenario_totals(
        scn, src, static_cast<std::size_t>(rate * 0.4));
    const double drop = 100.0 * static_cast<double>(r.fifo_overflows) /
                        static_cast<double>(r.events_in);
    JobOutput out;
    out.values = {drop};
    out.rows = {{fmt("%.6g", rate), fmt("%g", ctx.point.at("capacity")),
                 fmt("%.6g", drop)}};
    return out;
  };
  const std::string buffer_points =
      util::artifact_path("aetr_ablation_buffer_points.csv", opt.out_dir);
  runtime::CsvSink sink2{buffer_points};
  auto report2 = runtime::run_sweep(
      g2, overflow_job,
      sweep_options(opt, 2, {"rate", "capacity_words", "drop_pct"}), &sink2);

  Table drops{{"rate (kevt/s)", "buf 512: drop%", "buf 2300: drop%",
               "buf 9200: drop%"}};
  bool drop_ordered = true;
  std::string worst;
  const auto drop_at = [&](std::size_t r, std::size_t c) {
    return report2.outputs[r * capacities.size() + c].values[0];
  };
  for (std::size_t r = 0; r < rates.size(); ++r) {
    std::vector<std::string> row{Table::num(rates[r] / 1e3, 4)};
    for (std::size_t c = 0; c < capacities.size(); ++c) {
      // drop% must not grow with buffer size
      if (c && drop_at(r, c) > drop_at(r, c - 1) + 1e-9) {
        drop_ordered = false;
        worst = fmt("%g", rates[r]) + " evt/s, buffer " +
                fmt("%g", capacities[c]);
      }
      row.push_back(Table::num(drop_at(r, c), 3));
    }
    drops.add_row(std::move(row));
  }
  drops.write_csv(util::artifact_path("aetr_ablation_buffer.csv",
                                      opt.out_dir));

  std::vector<Check> checks{
      {"bigger batch threshold: strictly fewer batches, no overflow",
       fewer_batches, ""},
      {"drop % does not grow with buffer size", drop_ordered, worst}};

  // One report for both parts: part 2's jobs follow part 1's.
  for (auto& m : report2.metrics) m.index += report.metrics.size();
  report.outputs.insert(report.outputs.end(), report2.outputs.begin(),
                        report2.outputs.end());
  report.metrics.insert(report.metrics.end(), report2.metrics.begin(),
                        report2.metrics.end());
  report.wall_sec += report2.wall_sec;
  report.steals += report2.steals;
  return FigureResult{std::move(table), std::move(report), std::move(checks),
                      csv, buffer_points};
}

// --- A3: minimum sensed inter-spike interval and CAVIAR headroom -----------
//
// Paper §5: at 15 MHz sampling "inter-spike time of 130 ns or more can be
// sensed by the interface; more than enough to respect ... CAVIAR, which
// requires each event to be completed within 700 ns". Sweeps the base
// sampling frequency (via the sampling divider, 120 MHz ring / 2^(2+s))
// and measures handshake durations at the paper's peak rate in naive mode,
// CAVIAR compliance, and the high-rate timestamp error.

FigureResult run_ablation_min_interspike(const FigureOptions& opt) {
  const std::vector<double> stages{0, 1, 2, 3};
  SweepGrid grid;
  grid.axis("stages", stages);

  const auto job = [](const JobContext& ctx) {
    const auto s = static_cast<unsigned>(ctx.point.at("stages"));
    core::InterfaceConfig cfg;
    cfg.clock.sampling_divider_stages = s;
    cfg.clock.divide_enabled = false;  // naive: the claim is about max rate
    cfg.clock.shutdown_enabled = false;
    cfg.front_end.keep_records = false;
    cfg.fifo.batch_threshold = 512;

    gen::PoissonSource src{550e3, 128, 17, Time::ns(130.0)};
    const auto events = gen::take(src, 4000);
    sim::Scheduler sched;
    core::AerToI2sInterface iface{sched, cfg};
    aer::AerSender sender{sched, iface.aer_in()};
    aer::CaviarChecker caviar{iface.aer_in()};
    sender.submit_stream(events);
    sched.run();

    clockgen::ScheduleConfig sc;
    sc.tmin = iface.tick_unit();
    sc.divide_enabled = false;
    analysis::SweepOptions so;
    so.n_events = 4000;
    so.seed = 17;
    const auto err550 = analysis::sweep_error(sc, 550e3, so);
    const auto err2m = analysis::sweep_error(sc, 2e6, so);

    JobOutput out;
    out.values = {static_cast<double>(iface.tick_unit().count_ps()),
                  caviar.durations().mean(),
                  caviar.durations().max(),
                  caviar.compliant() ? 1.0 : 0.0,
                  err550.weighted_rel_error(),
                  err2m.weighted_rel_error()};
    out.rows = {{fmt("%g", ctx.point.at("stages"))}};
    for (const double v : out.values) out.rows[0].push_back(fmt("%.6g", v));
    return out;
  };

  const std::string points_csv = util::artifact_path(
      "aetr_ablation_min_interspike_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 3,
                    {"divider_stages", "tmin_ps", "handshake_mean_s",
                     "handshake_max_s", "caviar_compliant", "err_550k",
                     "err_2m"}),
      &sink);

  Table table{{"f_sample (MHz)", "Tmin", "min sensed (2*Tmin)",
               "mean handshake (ns)", "max handshake (ns)", "CAVIAR @550k",
               "err @550k", "err @2M"}};
  bool compliant = true;
  bool nyquist_hurts = true;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& v = report.outputs[i].values;
    const Time tmin = Time::ps(static_cast<Time::Rep>(v[0]));
    const auto s = static_cast<unsigned>(stages[i]);
    // The paper's operating points (>= 15 MHz, stages <= 1) must stay
    // CAVIAR-compliant, and pushing the rate past Nyquist must hurt.
    if (s <= 1 && v[3] == 0.0) compliant = false;
    if (v[5] <= v[4]) nyquist_hurts = false;
    table.add_row({Table::num(30.0 / static_cast<double>(1u << s), 4),
                   tmin.to_string(), (tmin * 2).to_string(),
                   Table::num(v[1] * 1e9, 4), Table::num(v[2] * 1e9, 4),
                   v[3] != 0.0 ? "pass" : "VIOLATES", Table::num(v[4], 3),
                   Table::num(v[5], 3)});
  }
  const std::string csv =
      util::artifact_path("aetr_ablation_min_interspike.csv", opt.out_dir);
  table.write_csv(csv);

  std::vector<Check> checks{
      {"CAVIAR-compliant at >= 15 MHz sampling", compliant, ""},
      {"error at 2 Mevt/s exceeds error at 550 kevt/s", nyquist_hurts, ""}};
  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- A5: system energy, interface + MCU ------------------------------------
//
// The paper's §3 argument end to end: the AETR interface lets the MCU
// sleep between batch transfers, so system power is the interface's plus
// a batch-duty MCU, against a naive system where a constant-clock
// interface feeds an always-on MCU. The batch size trades MCU wakeups
// against buffering latency.

FigureResult run_ablation_mcu(const FigureOptions& opt) {
  SweepGrid grid;
  grid.axis("rate", {1e3, 10e3, 100e3}).axis("batch", {64, 1024});
  const mcu::McuPowerCalibration cal;

  const auto job = [&cal](const JobContext& ctx) {
    const double rate = ctx.point.at("rate");
    // Batch-mode system: divided interface + batch MCU.
    core::ScenarioConfig scn;
    scn.interface.fifo.batch_threshold =
        static_cast<std::size_t>(ctx.point.at("batch"));
    scn.interface.front_end.keep_records = false;
    gen::PoissonSource src{rate, 128, 31};
    const auto n =
        static_cast<std::size_t>(std::clamp(rate * 0.5, 500.0, 20000.0));
    const auto r = core::run_scenario_totals(scn, src, n);

    mcu::McuDuty duty;
    duty.window = r.sim_end;
    duty.words = r.words_out;
    duty.batches = r.batches;
    const auto batch_mcu = mcu::batch_mcu_energy(duty, cal);
    const double system = r.average_power_w + batch_mcu.average_power_w;

    // Naive system: constant-clock interface + always-on MCU.
    core::ScenarioConfig naive = scn;
    naive.interface.clock.divide_enabled = false;
    naive.interface.clock.shutdown_enabled = false;
    gen::PoissonSource src2{rate, 128, 31};
    const auto rn = core::run_scenario_totals(naive, src2, n);
    const auto on_mcu = mcu::always_on_mcu_energy(duty, cal);
    const double naive_system = rn.average_power_w + on_mcu.average_power_w;

    JobOutput out;
    out.values = {batch_mcu.duty, batch_mcu.average_power_w, system,
                  naive_system};
    out.rows = {{fmt("%.6g", rate), fmt("%g", ctx.point.at("batch"))}};
    for (const double v : out.values) out.rows[0].push_back(fmt("%.6g", v));
    // The MCU model every row was computed with.
    for (const double v : {cal.run_w, cal.stop_w, cal.wake_time.to_sec(),
                           cal.cycles_per_word, cal.run_clock_hz}) {
      out.rows[0].push_back(fmt("%.6g", v));
    }
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_ablation_mcu_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 5,
                    {"rate", "batch", "mcu_duty", "mcu_batch_w", "system_w",
                     "naive_system_w", "mcu_run_w", "mcu_stop_w",
                     "mcu_wake_s", "mcu_cycles_per_word", "mcu_clock_hz"}),
      &sink);

  Table table{{"rate (evt/s)", "batch", "MCU duty %", "MCU mW (batch)",
               "system mW", "system mW (naive+always-on)", "saving"}};
  bool saves = true;
  double worst_saving = 1.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto point = grid.point(i);
    const auto& v = report.outputs[i].values;
    const double saving = 1.0 - v[2] / v[3];
    // The batch system must beat the always-on baseline by a wide margin
    // everywhere on this grid (the paper's whole argument).
    if (v[2] >= 0.7 * v[3]) saves = false;
    worst_saving = std::min(worst_saving, saving);
    table.add_row({Table::num(point.at("rate"), 4),
                   fmt("%g", point.at("batch")), Table::num(100.0 * v[0], 3),
                   Table::num(v[1] * 1e3, 4), Table::num(v[2] * 1e3, 4),
                   Table::num(v[3] * 1e3, 4),
                   Table::num(100.0 * saving, 3) + " %"});
  }
  const std::string csv =
      util::artifact_path("aetr_ablation_mcu.csv", opt.out_dir);
  table.write_csv(csv);

  std::vector<Check> checks{
      {"batch system saves > 30% vs. always-on at every point", saves,
       "worst " + fmt("%.1f", 100.0 * worst_saving) + " %"}};
  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- A6: AETR timestamp width vs. carrier bandwidth ------------------------
//
// The paper fixes a 32-bit AETR word (10-bit address + W-bit delta in
// 66.7 ns ticks; overflow words extend the range, as in jAER wrap events).
// Narrow fields waste words on overflow markers for sparse streams, wide
// fields waste bits on dense ones. Per rate, words/event on the I2S carrier
// for each width and the bandwidth-optimal width.

FigureResult run_ablation_width(const FigureOptions& opt) {
  const std::vector<double> widths{8, 12, 16, 22};
  SweepGrid grid;
  grid.axis("rate", {100.0, 1e3, 10e3, 100e3, 550e3});

  const auto job = [&widths](const JobContext& ctx) {
    const double rate = ctx.point.at("rate");
    const Time tmin = Time::ns(1e3 / 15.0);
    gen::PoissonSource src{rate, 128, 13, Time::ns(130.0)};
    const auto events = gen::take(src, 20000);
    std::vector<aer::CodedEvent> coded;
    coded.reserve(events.size());
    Time prev = Time::zero();
    for (const auto& ev : events) {
      coded.push_back(aer::CodedEvent{
          static_cast<std::uint16_t>(ev.address % 512),
          static_cast<std::uint64_t>((ev.time - prev) / tmin)});
      prev = ev.time;
    }
    JobOutput out;
    for (const double w : widths) {
      aer::AetrCodec codec{static_cast<unsigned>(w)};
      const double words_per_event =
          static_cast<double>(codec.encode_stream(coded).size()) /
          static_cast<double>(coded.size());
      out.values.push_back(words_per_event);
      out.rows.push_back({fmt("%.6g", rate), fmt("%g", w),
                          fmt("%.6g", words_per_event),
                          fmt("%.6g", words_per_event * (10.0 + w))});
    }
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_ablation_width_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 6,
                    {"rate", "width", "words_per_event", "bits_per_event"}),
      &sink);

  Table table{{"rate (evt/s)", "W=8 w/evt", "W=12 w/evt", "W=16 w/evt",
               "W=22 w/evt", "best W", "kbit/s @ best"}};
  bool narrower_when_denser = true;
  double prev_best_w = 1e18;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double rate = grid.point(i).at("rate");
    std::vector<std::string> row{Table::num(rate, 4)};
    double best_bits_per_event = 1e18;
    double best_w = 0.0;
    for (std::size_t k = 0; k < widths.size(); ++k) {
      const double words_per_event = report.outputs[i].values[k];
      row.push_back(Table::num(words_per_event, 4));
      const double bits_per_event = words_per_event * (10.0 + widths[k]);
      if (bits_per_event < best_bits_per_event) {
        best_bits_per_event = bits_per_event;
        best_w = widths[k];
      }
    }
    // Denser streams must never prefer a wider timestamp field.
    if (best_w > prev_best_w) narrower_when_denser = false;
    prev_best_w = best_w;
    row.push_back(fmt("%g", best_w));
    row.push_back(Table::num(best_bits_per_event * rate / 1e3, 4));
    table.add_row(std::move(row));
  }
  const std::string csv =
      util::artifact_path("aetr_ablation_width.csv", opt.out_dir);
  table.write_csv(csv);

  std::vector<Check> checks{
      {"best width never grows with the event rate", narrower_when_denser,
       ""}};
  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- A7: ring-oscillator jitter and frequency drift ------------------------
//
// The paper's accuracy model assumes "a perfect clock with constant
// frequency and 50 % duty cycle"; a real inverter ring has cycle-to-cycle
// jitter and a PVT-dependent mean frequency. Through the cycle-by-cycle RTL
// clock unit (30 kevt/s Poisson, errors scored against the nominal Tmin):
// random jitter averages out across the many cycles of an interval, while
// static drift biases every timestamp by the same fraction.

namespace {

struct JitterError {
  double mean_rel{0.0};
  double weighted{0.0};
};

/// Push a Poisson stream through the RTL clock unit and score timestamps
/// against the nominal Tmin (what the MCU would assume).
JitterError measure_jitter(double rate_hz, double jitter,
                           double drift_fraction) {
  const Time nominal_tmin = Time::ps(463 * 18 * 8);  // 66.67 ns
  sim::Scheduler sched;
  rtl::ClockUnitConfig cfg;
  cfg.ring.jitter_stddev = jitter;
  cfg.ring.stage_delay =
      Time::sec(463e-12 * (1.0 + drift_fraction));  // PVT-shifted ring
  rtl::RtlClockUnit unit{sched, cfg};

  gen::PoissonSource src{rate_hz, 128, 404, Time::ns(500.0)};
  auto events = gen::take(src, 2500);
  for (auto& ev : events) ev.time += 1_us;

  RunningStats rel;
  double abs_err = 0.0;
  double true_sum = 0.0;
  std::size_t next = 0;
  Time last_req;
  Time prev_req;
  bool have_prev = false;

  std::function<void()> issue = [&] {
    if (next >= events.size()) return;
    const Time at = std::max(events[next].time, sched.now() + Time::ps(1));
    ++next;
    last_req = at;
    sched.schedule_at(at, [&] { unit.set_request(true); });
  };
  unit.on_sample([&](Time, std::uint64_t ticks, bool sat) {
    unit.set_request(false);
    if (have_prev && !sat) {
      const double true_delta = (last_req - prev_req).to_sec();
      const double measured =
          static_cast<double>(ticks) * nominal_tmin.to_sec();
      if (true_delta > 0.0) {
        const double e = std::abs(measured - true_delta);
        rel.add(e / true_delta);
        abs_err += e;
        true_sum += true_delta;
      }
    }
    prev_req = last_req;
    have_prev = true;
    issue();
  });

  unit.start();
  issue();
  sched.run();
  return JitterError{rel.mean(), true_sum > 0.0 ? abs_err / true_sum : 0.0};
}

}  // namespace

FigureResult run_ablation_jitter(const FigureOptions& opt) {
  // Every check is per point, so the quick grid keeps them all.
  const std::vector<double> jitters =
      opt.quick ? std::vector<double>{0.0, 0.10}
                : std::vector<double>{0.0, 0.01, 0.03, 0.10};
  const std::vector<double> drifts =
      opt.quick ? std::vector<double>{-0.02, 0.0, 0.02}
                : std::vector<double>{-0.05, -0.02, 0.0, 0.02, 0.05};
  // One run per distinct (jitter, drift): the ring's jitter RNG has a fixed
  // seed, so the jitter-free, drift-free point is measured once and serves
  // as both tables' reference.
  std::vector<std::pair<double, double>> cases;
  for (const double j : jitters) cases.emplace_back(j, 0.0);
  for (const double d : drifts) {
    if (d != 0.0) cases.emplace_back(0.0, d);
  }
  const auto at = [&](double jitter, double drift) {
    return static_cast<std::size_t>(
        std::find(cases.begin(), cases.end(), std::pair{jitter, drift}) -
        cases.begin());
  };

  SweepGrid grid;
  grid.axis("case", case_axis(cases.size()));
  const auto job = [&cases](const JobContext& ctx) {
    const auto [jitter, drift] = cases[case_of(ctx)];
    const auto r = measure_jitter(30e3, jitter, drift);
    JobOutput out;
    out.values = {r.weighted, r.mean_rel};
    out.rows = {{fmt("%g", jitter), fmt("%g", drift),
                 fmt("%.6g", r.weighted), fmt("%.6g", r.mean_rel)}};
    return out;
  };
  const std::string points_csv =
      util::artifact_path("aetr_ablation_jitter_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 7,
                    {"jitter_sigma", "drift", "weighted_err", "mean_rel_err"}),
      &sink);
  const auto& out = report.outputs;
  const double q0 = out[at(0.0, 0.0)].values[0];

  Table cycle{{"cycle jitter sigma", "weighted err", "per-event err"}};
  bool jitter_harmless = true;
  for (const double j : jitters) {
    const auto& v = out[at(j, 0.0)].values;
    // Jitter averages out across the interval: even 10 % cycle sigma must
    // stay within 30 % of the jitter-free quantisation floor.
    if (v[0] > 1.3 * q0) jitter_harmless = false;
    cycle.add_row({Table::num(j, 3), Table::num(v[0], 3),
                   Table::num(v[1], 3)});
  }
  cycle.write_csv(
      util::artifact_path("aetr_ablation_jitter_cycle.csv", opt.out_dir));

  Table table{{"frequency drift", "weighted err", "expected (|drift|+q)"}};
  bool drift_bounded = true;
  for (const double d : drifts) {
    const double weighted = out[at(0.0, d)].values[0];
    // |drift| + q upper-bounds the error (quantisation can partially
    // cancel the bias, so the measurement may come in below it).
    if (weighted > std::abs(d) + q0 + 0.015) drift_bounded = false;
    table.add_row({Table::num(d, 3), Table::num(weighted, 3),
                   Table::num(std::abs(d) + q0, 3)});
  }
  const std::string csv =
      util::artifact_path("aetr_ablation_jitter.csv", opt.out_dir);
  table.write_csv(csv);

  std::vector<Check> checks{
      {"cycle jitter within 30% of the jitter-free error", jitter_harmless,
       "q = " + fmt("%.4f", q0)},
      {"drift error within |drift| + q + 0.015", drift_bounded, ""}};
  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

// --- A8: closed-loop theta_div adaptation vs. static settings --------------
//
// A "day in the life" stream alternates near-silence, speech-band activity
// and dense noise bursts. A static theta_div picks one point on the
// power/accuracy trade; the MCU-side adaptive controller (SPI retuning
// from the decoded rate estimate) follows the workload.

namespace {

aer::EventStream day_in_the_life() {
  gen::ScenarioBuilder sb{128, /*seed=*/1, Time::ns(300.0)};
  sb.poisson("silence", 100.0, 500_ms)
      .poisson("speech", 60e3, 150_ms)
      .poisson("silence", 100.0, 500_ms)
      .poisson("noise transient", 400e3, 60_ms)
      .poisson("silence", 100.0, 500_ms)
      .poisson("speech", 30e3, 150_ms)
      .poisson("silence", 100.0, 500_ms);
  return sb.build();
}

struct AdaptiveCase {
  const char* label;
  bool adaptive;
  std::uint32_t theta;  ///< static setting, or the controller's start point
  std::uint32_t n_div;
};

constexpr AdaptiveCase kAdaptiveCases[] = {
    {"static theta=16, N=6", false, 16, 6},
    {"static theta=64, N=8", false, 64, 8},
    {"static theta=128, N=8", false, 128, 8},
    {"adaptive (closed loop)", true, 16, 6},
};

}  // namespace

FigureResult run_ablation_adaptive(const FigureOptions& opt) {
  const auto events = day_in_the_life();
  SweepGrid grid;
  grid.axis("case", case_axis(std::size(kAdaptiveCases)));

  const auto job = [&events](const JobContext& ctx) {
    const AdaptiveCase& c = kAdaptiveCases[case_of(ctx)];
    sim::Scheduler sched;
    core::InterfaceConfig cfg;
    cfg.fifo.batch_threshold = 64;
    cfg.drain_timeout = 5_ms;  // bound the controller's feedback latency
    cfg.clock.theta_div = c.theta;
    cfg.clock.n_div = c.n_div;
    core::AerToI2sInterface iface{sched, cfg};
    aer::AerSender sender{sched, iface.aer_in()};
    spi::SpiMaster master{sched, iface.spi()};

    mcu::AdaptiveController ctl;
    mcu::AetrDecoder decoder{iface.tick_unit(), iface.saturation_span()};
    if (c.adaptive) {
      ctl.on_apply([&](std::uint32_t theta, std::uint32_t n) {
        master.write(spi::Reg::kThetaDiv, static_cast<std::uint8_t>(theta));
        master.write(spi::Reg::kNDiv, static_cast<std::uint8_t>(n));
      });
      iface.on_i2s_word([&](aer::AetrWord w, Time) {
        const auto ev = decoder.decode(w);
        ctl.observe(ev.reconstructed_time, ev.saturated);
      });
    }
    sender.submit_stream(events);
    run_and_drain(sched, iface);

    const auto err = analysis::analyze_records(
        iface.front_end().records(), iface.tick_unit(),
        iface.saturation_span());
    const double power_mw = iface.average_power_w() * 1e3;
    const double error_pct = 100.0 * err.weighted_rel_error_unsaturated();
    const auto retunes = c.adaptive ? ctl.retunes() : 0;
    JobOutput out;
    out.values = {power_mw, error_pct, static_cast<double>(retunes)};
    out.rows = {{c.label, std::to_string(events.size()),
                 fmt("%.6g", power_mw), fmt("%.6g", error_pct),
                 std::to_string(retunes)}};
    return out;
  };

  const std::string points_csv =
      util::artifact_path("aetr_ablation_adaptive_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  const auto report = runtime::run_sweep(
      grid, job,
      sweep_options(opt, 8,
                    {"configuration", "events", "power_mw", "err_pct",
                     "retunes"}),
      &sink);

  Table table{{"configuration", "power (mW)", "err % (correlated)",
               "retunes"}};
  for (std::size_t i = 0; i < std::size(kAdaptiveCases); ++i) {
    const auto& v = report.outputs[i].values;
    table.add_row({kAdaptiveCases[i].label, Table::num(v[0], 4),
                   Table::num(v[1], 3), fmt("%g", v[2])});
  }
  const std::string csv =
      util::artifact_path("aetr_ablation_adaptive.csv", opt.out_dir);
  table.write_csv(csv);

  // The closed loop must actually retune, beat the accuracy of the small
  // static setting, and undercut the power of the large one.
  const auto& s16 = report.outputs[0].values;
  const auto& s64 = report.outputs[1].values;
  const auto& ad = report.outputs[3].values;
  std::vector<Check> checks{
      {"adaptive controller retunes", ad[2] > 0.0,
       fmt("%g", ad[2]) + " retunes"},
      {"adaptive error below static theta=16", ad[1] < s16[1],
       fmt("%.3f", ad[1]) + " % vs " + fmt("%.3f", s16[1]) + " %"},
      {"adaptive power below static theta=64", ad[0] < s64[0],
       fmt("%.4f", ad[0]) + " mW vs " + fmt("%.4f", s64[0]) + " mW"}};
  return FigureResult{std::move(table), report, std::move(checks), csv,
                      points_csv};
}

}  // namespace aetr::sweeps
