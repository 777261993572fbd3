// F2 — fleet-level energy proportionality: energy-per-delivered-event and
// delivery-latency tails vs. fleet size N at several activity levels.
//
// Each cell of the (N, activity) grid is one run_fleet() call: N independent
// interfaces share one bandwidth-limited gateway uplink. At low N the fleet
// inherits the single-node story — energy per *delivered* event falls as
// activity rises (static power amortises over more events). At N = 1024 the
// shared link saturates: nodes keep burning energy but their words drop, so
// the fleet-level energy-per-delivered-event curve breaks away from the
// per-node one — the figure the ROADMAP names as the deliverable.
//
// Cells run sequentially; each fleet internally shards its nodes across the
// pool (--jobs forwarded), so the cell outputs — and therefore every file
// written here — are byte-identical for any --jobs value.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "fleet/fleet.hpp"
#include "obs/ledger.hpp"
#include "runtime/seed.hpp"
#include "sweeps/common.hpp"
#include "sweeps/figures.hpp"
#include "util/artifacts.hpp"

namespace aetr::sweeps {

namespace {

using detail::fmt;

struct FleetCell {
  std::size_t nodes;
  double activity;
  fleet::FleetResult result;
};

fleet::FleetConfig cell_config(std::size_t nodes, double activity,
                               std::uint64_t seed, bool quick, bool health) {
  fleet::FleetConfig cfg;
  cfg.base.interface.fifo.batch_threshold = 64;
  cfg.base.interface.front_end.keep_records = false;
  cfg.health = health;
  cfg.nodes = nodes;
  cfg.gateways = 1;
  cfg.rate_hz = 30e3 * activity;
  cfg.events_per_node = quick ? 120 : 300;
  cfg.rate_spread = 0.1;
  // Full grid: 4e6 words/s keeps N <= 64 uncontended at full activity and
  // saturates hard at N = 1024 (30.7M offered). Quick shrinks the fleet, so
  // a smaller pipe keeps the contention/drop paths exercised.
  cfg.link.bandwidth_words_per_sec = quick ? 1.5e5 : 4e6;
  cfg.link.queue_words = quick ? 256 : 4096;
  cfg.seed = seed;
  return cfg;
}

FigureResult fleet_impl(const FigureOptions& opt) {
  const std::vector<std::size_t> fleet_sizes =
      opt.quick ? std::vector<std::size_t>{1, 4, 16}
                : std::vector<std::size_t>{1, 8, 64, 256, 1024};
  const std::vector<double> activities =
      opt.quick ? std::vector<double>{0.1, 1.0}
                : std::vector<double>{0.05, 0.25, 1.0};
  const std::uint64_t root = opt.seed ? opt.seed : 99;

  std::size_t total_nodes = 0;
  for (const std::size_t n : fleet_sizes) {
    total_nodes += n * activities.size();
  }

  const runtime::Row header{"nodes",
                            "activity",
                            "rate_hz",
                            "events_in",
                            "decoded",
                            "delivered",
                            "delivered_frac",
                            "energy_j",
                            "energy_per_delivered_uj",
                            "p50_ms",
                            "p99_ms",
                            "p999_ms",
                            "gw_util",
                            "link_drops",
                            "dead_drops"};
  const std::string points_csv =
      util::artifact_path("aetr_fleet_points.csv", opt.out_dir);
  runtime::CsvSink sink{points_csv};
  sink.begin(header);

  runtime::SweepReport report;
  report.threads = opt.jobs ? opt.jobs : std::thread::hardware_concurrency();
  std::vector<FleetCell> cells;
  std::size_t done_nodes = 0;
  std::size_t cell_index = 0;
  const auto t_sweep0 = std::chrono::steady_clock::now();
  for (const std::size_t n : fleet_sizes) {
    for (const double activity : activities) {
      const std::uint64_t cell_seed = runtime::derive_seed(root, cell_index);
      const auto cfg =
          cell_config(n, activity, cell_seed, opt.quick, opt.ledger);
      fleet::FleetOptions fo;
      fo.jobs = opt.jobs;
      if (opt.progress) {
        fo.progress = [&opt, done_nodes, total_nodes](std::size_t done,
                                                      std::size_t) {
          opt.progress(done_nodes + done, total_nodes);
        };
      }
      const auto t0 = std::chrono::steady_clock::now();
      auto res = fleet::run_fleet(cfg, fo);
      const auto t1 = std::chrono::steady_clock::now();
      done_nodes += n;

      runtime::JobOutput out;
      out.values = {static_cast<double>(n),
                    activity,
                    cfg.rate_hz,
                    static_cast<double>(res.events_in_total),
                    static_cast<double>(res.decoded_total),
                    static_cast<double>(res.delivered_total),
                    res.delivered_fraction(),
                    res.total_energy_j,
                    res.energy_per_delivered_j() * 1e6,
                    res.latency_p50_sec * 1e3,
                    res.latency_p99_sec * 1e3,
                    res.latency_p999_sec * 1e3,
                    res.gateways[0].utilization(),
                    static_cast<double>(res.dropped_link_total),
                    static_cast<double>(res.dropped_dead_total)};
      runtime::Row row;
      row.reserve(out.values.size());
      row.push_back(fmt("%g", out.values[0]));
      row.push_back(fmt("%g", activity));
      row.push_back(fmt("%.6g", cfg.rate_hz));
      row.push_back(fmt("%g", out.values[3]));
      row.push_back(fmt("%g", out.values[4]));
      row.push_back(fmt("%g", out.values[5]));
      row.push_back(fmt("%.6g", out.values[6]));
      row.push_back(fmt("%.8g", out.values[7]));
      row.push_back(fmt("%.8g", out.values[8]));
      row.push_back(fmt("%.6g", out.values[9]));
      row.push_back(fmt("%.6g", out.values[10]));
      row.push_back(fmt("%.6g", out.values[11]));
      row.push_back(fmt("%.6g", out.values[12]));
      row.push_back(fmt("%g", out.values[13]));
      row.push_back(fmt("%g", out.values[14]));
      sink.row(row);

      runtime::JobMetrics jm;
      jm.index = cell_index;
      jm.seed = cell_seed;
      jm.tag = "N=" + fmt("%g", out.values[0]) +
               " activity=" + fmt("%g", activity);
      jm.wall_sec = std::chrono::duration<double>(t1 - t0).count();
      report.outputs.push_back(std::move(out));
      report.metrics.push_back(std::move(jm));
      cells.push_back(FleetCell{n, activity, std::move(res)});
      ++cell_index;
    }
  }
  sink.end();
  report.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_sweep0)
          .count();

  const auto cell_values = [&](std::size_t n, double activity)
      -> const std::vector<double>& {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].nodes == n && cells[i].activity == activity) {
        return report.outputs[i].values;
      }
    }
    return report.outputs[0].values;
  };

  Table table{{"N", "activity", "E/delivered (uJ)", "delivered", "p50 (ms)",
               "p99 (ms)", "p999 (ms)", "uplink util"}};
  for (const auto& out : report.outputs) {
    const auto& v = out.values;
    table.add_row({fmt("%g", v[0]), fmt("%g", v[1]), Table::num(v[8], 4),
                   Table::num(v[6], 4), Table::num(v[9], 4),
                   Table::num(v[10], 4), Table::num(v[11], 4),
                   Table::num(v[12], 3)});
  }
  const std::string csv = util::artifact_path("aetr_fleet.csv", opt.out_dir);
  table.write_csv(csv);

  // The machine-readable companion the acceptance criteria consume. Values
  // are rendered with the same deterministic formats as the CSV, so the
  // file is byte-identical for any --jobs value too.
  const std::string summary_path =
      util::artifact_path("aetr_fleet_summary.json", opt.out_dir);
  {
    std::ofstream js{summary_path};
    js << "{\n  \"figure\": \"fleet\",\n";
    js << "  \"seed\": " << root << ",\n";
    js << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n";
    js << "  \"cells\": [\n";
    for (std::size_t i = 0; i < report.outputs.size(); ++i) {
      const auto& v = report.outputs[i].values;
      js << "    {\"nodes\": " << fmt("%g", v[0])
         << ", \"activity\": " << fmt("%g", v[1])
         << ", \"delivered_fraction\": " << fmt("%.6g", v[6])
         << ", \"energy_per_delivered_uj\": " << fmt("%.8g", v[8])
         << ", \"p50_ms\": " << fmt("%.6g", v[9])
         << ", \"p99_ms\": " << fmt("%.6g", v[10])
         << ", \"p999_ms\": " << fmt("%.6g", v[11])
         << ", \"gateway_utilization\": " << fmt("%.6g", v[12]) << "}"
         << (i + 1 < report.outputs.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";
  }

  // Health roll-up artifacts (--ledger): one wide CSV row per grid cell
  // with the fleet ledger's stage/state/outcome attribution and percentile
  // summaries, plus a per-cell ledger CSV + collapsed stack so the report
  // command (and flamegraph.pl) can render each cell. Cells run serially,
  // every number is sim-side, and the formats are fixed — byte-identical
  // for any --jobs value.
  if (opt.ledger) {
    const std::string health_csv =
        util::artifact_path("aetr_fleet_health.csv", opt.out_dir);
    std::ofstream hs{health_csv};
    hs << "nodes,activity";
    for (std::size_t s = 0; s < obs::kStageCount; ++s) {
      hs << ",e_" << obs::to_string(static_cast<obs::Stage>(s)) << "_j";
    }
    for (std::size_t s = 0; s < obs::kStateCount; ++s) {
      hs << ",t_" << obs::to_string(static_cast<obs::ClockState>(s)) << "_s";
    }
    for (std::size_t o = 0; o < obs::kOutcomeCount; ++o) {
      hs << ",n_" << obs::to_string(static_cast<obs::Outcome>(o));
    }
    for (std::size_t o = 0; o < obs::kOutcomeCount; ++o) {
      hs << ",e_" << obs::to_string(static_cast<obs::Outcome>(o)) << "_j";
    }
    hs << ",node_energy_p50_j,node_energy_p99_j,node_power_p50_w"
          ",node_power_p99_w,delivered_frac_p50,delivered_frac_min\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const fleet::FleetHealth& h = cells[i].result.health;
      hs << cells[i].nodes << ',' << fmt("%g", cells[i].activity);
      for (const double e : h.fleet.stage_energy_j) {
        hs << ',' << fmt("%.17g", e);
      }
      for (const double s : h.fleet.state_sec) hs << ',' << fmt("%.17g", s);
      for (const std::uint64_t n_ev : h.fleet.outcome_events) {
        hs << ',' << n_ev;
      }
      for (const double e : h.fleet.outcome_energy_j) {
        hs << ',' << fmt("%.17g", e);
      }
      hs << ',' << fmt("%.17g", h.node_energy_p50_j) << ','
         << fmt("%.17g", h.node_energy_p99_j) << ','
         << fmt("%.17g", h.node_power_p50_w) << ','
         << fmt("%.17g", h.node_power_p99_w) << ','
         << fmt("%.17g", h.delivered_frac_p50) << ','
         << fmt("%.17g", h.delivered_frac_min) << '\n';

      char stem[96];
      std::snprintf(stem, sizeof stem, "aetr_fleet_c%03zu", i);
      obs::write_ledger_csv(
          h.fleet,
          util::artifact_path(std::string{stem} + "_ledger.csv", opt.out_dir));
      obs::write_collapsed_stack(
          h.fleet,
          util::artifact_path(std::string{stem} + "_stack.txt", opt.out_dir));
    }
  }

  std::vector<Check> checks;
  if (!opt.quick) {
    const double act_hi = activities.back();

    // The subsystem's hard contract: node 0 of an N=1 fleet is a plain
    // run_scenario() run, bit for bit.
    {
      const FleetCell* one = nullptr;
      for (const auto& c : cells) {
        if (c.nodes == 1 && c.activity == act_hi) one = &c;
      }
      // Recompute the cell seed the same way the sweep loop derived it.
      std::uint64_t cell_seed = root;
      std::size_t idx = 0;
      for (const std::size_t n : fleet_sizes) {
        for (const double a : activities) {
          if (n == 1 && a == act_hi) cell_seed = runtime::derive_seed(root, idx);
          ++idx;
        }
      }
      const auto fc =
          cell_config(1, act_hi, cell_seed, opt.quick, opt.ledger);
      const auto plain =
          core::run_scenario(fleet::node_scenario(fc, 0),
                             fleet::node_stream(fc, 0));
      const auto& node = one->result.nodes[0];
      const double plain_energy =
          plain.average_power_w * plain.sim_end.to_sec();
      const bool identical =
          node.energy_j == plain_energy &&
          node.average_power_w == plain.average_power_w &&
          node.events_in == plain.events_in &&
          node.decoded == plain.decoded.size();
      checks.push_back(Check{
          "N=1 node is bit-identical to a plain run_scenario() run",
          identical,
          identical ? ""
                    : fmt("%.17g", node.energy_j) + " J vs " +
                          fmt("%.17g", plain_energy) + " J"});
    }

    bool full_delivery = true;
    std::string fd_worst;
    for (const auto& c : cells) {
      if (c.nodes > 64) continue;
      const double frac = c.result.delivered_fraction();
      if (frac < 0.99) {
        full_delivery = false;
        fd_worst = "N=" + std::to_string(c.nodes) + " activity=" +
                   fmt("%g", c.activity) + ": " + fmt("%.4f", frac);
      }
    }
    checks.push_back(Check{"uncontended fleets (N <= 64) deliver >= 99%",
                           full_delivery, fd_worst});

    const double frac_big = cell_values(1024, act_hi)[6];
    checks.push_back(
        Check{"shared link saturates at N=1024 full activity (< 60% "
              "delivered)",
              frac_big < 0.6, fmt("%.3f", frac_big) + " delivered"});

    bool proportional = true;
    std::string prop_worst;
    for (const std::size_t n : fleet_sizes) {
      if (n > 64) continue;
      for (std::size_t a = 1; a < activities.size(); ++a) {
        const double prev = cell_values(n, activities[a - 1])[8];
        const double cur = cell_values(n, activities[a])[8];
        if (cur >= prev) {
          proportional = false;
          prop_worst = "N=" + std::to_string(n) + ": " + fmt("%.4g", cur) +
                       " uJ at activity " + fmt("%g", activities[a]) +
                       " >= " + fmt("%.4g", prev) + " uJ";
        }
      }
    }
    checks.push_back(Check{
        "energy per delivered event falls as activity rises (N <= 64)",
        proportional, prop_worst});

    bool linear = true;
    std::string lin_worst;
    const double e1 = cell_values(1, 0.25)[7];
    for (const std::size_t n : fleet_sizes) {
      const double per_node = cell_values(n, 0.25)[7] / static_cast<double>(n);
      if (e1 <= 0.0 || std::abs(per_node / e1 - 1.0) > 0.25) {
        linear = false;
        lin_worst = "N=" + std::to_string(n) + ": " +
                    fmt("%.4g", per_node * 1e6) + " uJ/node vs " +
                    fmt("%.4g", e1 * 1e6) + " uJ at N=1";
      }
    }
    checks.push_back(Check{
        "fleet energy stays ~linear in N (per-node energy within 25%)",
        linear, lin_worst});

    const double p99_big = cell_values(1024, act_hi)[10];
    const double p99_small = cell_values(8, act_hi)[10];
    checks.push_back(
        Check{"uplink contention stretches the latency tail at N=1024",
              p99_big > p99_small,
              fmt("%.3f", p99_big) + " ms vs " + fmt("%.3f", p99_small) +
                  " ms at N=8"});
  }

  return FigureResult{std::move(table), std::move(report), std::move(checks),
                      csv, points_csv};
}

}  // namespace

FigureResult run_fleet_figure(const FigureOptions& opt) {
  return fleet_impl(opt);
}

}  // namespace aetr::sweeps
