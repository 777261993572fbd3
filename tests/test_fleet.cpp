// aetr::fleet — the determinism contract (results are a pure function of
// FleetConfig, independent of --jobs), the N=1 bit-identity against a plain
// run_scenario() run, the shared-uplink contention/arbitration semantics,
// the per-node energy budget, and the config_io round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "core/scenario.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_io.hpp"
#include "runtime/seed.hpp"
#include "sweeps/figures.hpp"

namespace aetr::fleet {
namespace {

FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.base.interface.fifo.batch_threshold = 16;
  cfg.base.interface.front_end.keep_records = false;
  cfg.nodes = 8;
  cfg.rate_hz = 30e3;
  cfg.events_per_node = 120;
  cfg.seed = 2026;
  return cfg;
}

TEST(FleetConfig, ValidateCatchesInconsistencies) {
  EXPECT_NO_THROW(small_fleet().validate());
  {
    auto c = small_fleet();
    c.nodes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.gateways = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.link.bandwidth_words_per_sec = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.link.queue_words = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.rate_spread = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.base.attach_mcu = false;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    telemetry::SessionOptions tel;
    tel.metrics = true;
    c.base.telemetry = tel;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
}

TEST(FleetConfig, DumpLoadDumpIsByteIdentical) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 77;
  cfg.gateways = 3;
  cfg.rate_spread = 0.25;
  cfg.fault_level = 0.01;
  cfg.node_energy_budget_j = 0.125;
  cfg.link.bandwidth_words_per_sec = 5e5;
  cfg.link.queue_words = 512;
  cfg.link.arbitration = Arbitration::kRoundRobin;
  cfg.base.interface.clock.theta_div = 32;
  const std::string once = dump_fleet(cfg);
  std::istringstream is{once};
  const FleetConfig loaded = load_fleet(is);
  EXPECT_EQ(once, dump_fleet(loaded));
  EXPECT_EQ(loaded.nodes, 77u);
  EXPECT_EQ(loaded.gateways, 3u);
  EXPECT_EQ(loaded.link.arbitration, Arbitration::kRoundRobin);
  EXPECT_EQ(loaded.base.interface.clock.theta_div, 32u);
}

TEST(FleetConfig, UnknownKeySuggestsAcrossFleetAndScenarioKeys) {
  FleetConfig cfg;
  try {
    apply_fleet_key(cfg, "fleet.nodez", "4");
    FAIL() << "expected unknown-key error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("fleet.nodes"), std::string::npos)
        << e.what();
  }
  // Scenario keys fall through to the base scenario.
  apply_fleet_key(cfg, "clock.theta_div", "16");
  EXPECT_EQ(cfg.base.interface.clock.theta_div, 16u);
}

TEST(Fleet, N1NodeIsBitIdenticalToPlainRunScenario) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 1;
  cfg.rate_spread = 0.2;   // the heterogeneity draw must replay too
  cfg.fault_level = 0.01;  // and the per-node scaled fault plan
  const FleetResult fleet = run_fleet(cfg);
  ASSERT_EQ(fleet.nodes.size(), 1u);

  const auto plain =
      core::run_scenario(node_scenario(cfg, 0), node_stream(cfg, 0));
  const NodeResult& node = fleet.nodes[0];
  EXPECT_EQ(node.seed, runtime::derive_seed(cfg.seed, 0));
  EXPECT_EQ(node.average_power_w, plain.average_power_w);  // bitwise
  EXPECT_EQ(node.sim_end_sec, plain.sim_end.to_sec());
  EXPECT_EQ(node.energy_j, plain.average_power_w * plain.sim_end.to_sec());
  EXPECT_EQ(node.err_weighted_rel, plain.error.weighted_rel_error());
  EXPECT_EQ(node.events_in, plain.events_in);
  EXPECT_EQ(node.decoded, plain.decoded.size());
  EXPECT_EQ(node.fifo_overflows, plain.fifo_overflows);
  EXPECT_EQ(node.faults_injected, plain.faults.injected_total());
  // The default uplink is uncontended at one node: everything decoded
  // arrives, nothing drops.
  EXPECT_EQ(node.delivered, node.decoded);
  EXPECT_EQ(node.dropped_link, 0u);
}

TEST(Fleet, ResultIsIdenticalForAnyJobsValue) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 24;
  cfg.rate_spread = 0.3;
  cfg.fault_level = 0.02;
  cfg.gateways = 2;
  FleetOptions serial;
  serial.jobs = 1;
  FleetOptions parallel;
  parallel.jobs = 4;
  const FleetResult a = run_fleet(cfg, serial);
  const FleetResult b = run_fleet(cfg, parallel);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].energy_j, b.nodes[i].energy_j) << "node " << i;
    EXPECT_EQ(a.nodes[i].rate_hz, b.nodes[i].rate_hz) << "node " << i;
    EXPECT_EQ(a.nodes[i].decoded, b.nodes[i].decoded) << "node " << i;
    EXPECT_EQ(a.nodes[i].delivered, b.nodes[i].delivered) << "node " << i;
  }
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);  // summed in node order
  EXPECT_EQ(a.delivered_total, b.delivered_total);
  EXPECT_EQ(a.latency_p50_sec, b.latency_p50_sec);
  EXPECT_EQ(a.latency_p99_sec, b.latency_p99_sec);
  EXPECT_EQ(a.latency_p999_sec, b.latency_p999_sec);
}

TEST(Fleet, HeterogeneousRatesSpreadAroundTheMean) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 64;
  cfg.rate_spread = 0.2;
  double lo = 1e300, hi = 0.0;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    const double r = node_rate_hz(cfg, i);
    EXPECT_GE(r, cfg.rate_hz * 0.8);
    EXPECT_LT(r, cfg.rate_hz * 1.2);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_GT(hi - lo, cfg.rate_hz * 0.1);  // actually spread, not constant
  cfg.rate_spread = 0.0;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    EXPECT_EQ(node_rate_hz(cfg, i), cfg.rate_hz);  // exact at spread 0
  }
}

TEST(Fleet, SaturatedLinkDropsAndStretchesTheTail) {
  FleetConfig contended = small_fleet();
  contended.nodes = 16;
  contended.link.bandwidth_words_per_sec = 5e4;  // 16 x 30k >> 50k words/s
  contended.link.queue_words = 64;
  const FleetResult r = run_fleet(contended);

  FleetConfig free_link = contended;
  free_link.link.bandwidth_words_per_sec = 1e8;
  const FleetResult f = run_fleet(free_link);

  EXPECT_GT(r.dropped_link_total, 0u);
  EXPECT_LT(r.delivered_fraction(), f.delivered_fraction());
  EXPECT_GT(r.latency_p99_sec, f.latency_p99_sec);
  EXPECT_GT(r.gateways[0].utilization(), 0.9);  // pegged uplink
  EXPECT_EQ(r.gateways[0].offered,
            r.gateways[0].delivered + r.gateways[0].dropped_link);
  // Conservation: every decoded word is delivered, queue-dropped, or dead.
  EXPECT_EQ(r.decoded_total,
            r.delivered_total + r.dropped_link_total + r.dropped_dead_total);
}

TEST(Fleet, RoundRobinSharesTheLinkMoreEvenlyThanFifo) {
  // One slow node against fifteen fast ones on a saturated uplink: FIFO
  // serves in arrival order (the flood wins slots proportionally), while
  // round-robin guarantees the slow node a turn whenever it has a word
  // buffered. Its delivered fraction must not get worse under RR.
  FleetConfig cfg = small_fleet();
  cfg.nodes = 16;
  cfg.rate_spread = 0.5;
  cfg.link.bandwidth_words_per_sec = 1e5;
  cfg.link.queue_words = 32;
  cfg.link.arbitration = Arbitration::kFifo;
  const FleetResult fifo = run_fleet(cfg);
  cfg.link.arbitration = Arbitration::kRoundRobin;
  const FleetResult rr = run_fleet(cfg);

  // Both policies conserve words and deliver the same totals-or-less under
  // identical offered load; the per-node split is what changes.
  EXPECT_EQ(fifo.decoded_total, rr.decoded_total);
  std::size_t slowest = 0;
  for (std::size_t i = 1; i < cfg.nodes; ++i) {
    if (rr.nodes[i].rate_hz < rr.nodes[slowest].rate_hz) slowest = i;
  }
  EXPECT_GE(rr.nodes[slowest].delivered_fraction(),
            fifo.nodes[slowest].delivered_fraction());
}

TEST(Fleet, EnergyBudgetKillsNodesAndDropsTheirLateWords) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 4;
  cfg.events_per_node = 400;
  const FleetResult unlimited = run_fleet(cfg);
  // Budget half of the cheapest node's spend: every node dies mid-run.
  double min_energy = 1e300;
  for (const auto& n : unlimited.nodes) {
    min_energy = std::min(min_energy, n.energy_j);
  }
  cfg.node_energy_budget_j = min_energy / 2.0;
  const FleetResult capped = run_fleet(cfg);
  for (const auto& n : capped.nodes) {
    EXPECT_TRUE(n.budget_exhausted) << "node " << n.node_id;
    EXPECT_EQ(n.energy_j, cfg.node_energy_budget_j);
    EXPECT_GT(n.dropped_dead, 0u) << "node " << n.node_id;
  }
  EXPECT_GT(capped.dropped_dead_total, 0u);
  EXPECT_LT(capped.delivered_fraction(), unlimited.delivered_fraction());
  EXPECT_LT(capped.total_energy_j, unlimited.total_energy_j);
}

TEST(Fleet, GatewaysPartitionTheFleet) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 8;
  cfg.gateways = 2;
  const FleetResult r = run_fleet(cfg);
  ASSERT_EQ(r.gateways.size(), 2u);
  EXPECT_GT(r.gateways[0].offered, 0u);
  EXPECT_GT(r.gateways[1].offered, 0u);
  EXPECT_EQ(r.gateways[0].offered + r.gateways[1].offered + 0u,
            r.decoded_total - r.dropped_dead_total);
  EXPECT_GT(r.gateways[0].utilization(), 0.0);
  EXPECT_GT(r.gateways[1].utilization(), 0.0);
}

TEST(Fleet, MetricsRegistryCarriesTheNodeEnergyHistogram) {
  FleetConfig cfg = small_fleet();
  const FleetResult r = run_fleet(cfg);
  const auto names = r.metrics.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "fleet.total_energy_j"),
            names.end());
  ASSERT_EQ(r.metrics.snapshots().size(), 1u);
  ASSERT_FALSE(r.metrics.histograms().empty());
  const auto& [hist_name, hist] = r.metrics.histograms().front();
  EXPECT_EQ(hist_name, "fleet.node_energy_j");
  EXPECT_EQ(hist.total(), static_cast<double>(cfg.nodes));
}

TEST(FleetFigure, QuickRunWritesIdenticalFilesForAnyJobs) {
  const auto run_to = [](const std::string& dir, std::size_t jobs) {
    sweeps::FigureOptions fo;
    fo.quick = true;
    fo.jobs = jobs;
    fo.out_dir = dir;
    return sweeps::run_fleet_figure(fo);
  };
  const std::string d1 = ::testing::TempDir() + "fleet_j1";
  const std::string d2 = ::testing::TempDir() + "fleet_j4";
  const auto r1 = run_to(d1, 1);
  const auto r2 = run_to(d2, 4);
  const auto slurp = [](const std::string& path) {
    std::ifstream f{path};
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  for (const char* name :
       {"/aetr_fleet.csv", "/aetr_fleet_points.csv",
        "/aetr_fleet_summary.json"}) {
    const std::string a = slurp(d1 + name);
    const std::string b = slurp(d2 + name);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name << " differs between --jobs 1 and --jobs 4";
  }
  EXPECT_TRUE(r1.checks.empty());  // quick mode skips the paper checks
  EXPECT_EQ(r1.report.outputs.size(), r2.report.outputs.size());
}

}  // namespace
}  // namespace aetr::fleet
