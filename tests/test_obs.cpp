// Tests for aetr::obs — the energy-attribution ledger, its reconciliation
// with the power model, the fleet health roll-up, the report renderer,
// and the disabled paths being bit-identical, allocation-free no-ops.
//
// Global operator new/delete are replaced with counting versions (the
// test_telemetry.cpp pattern) so the no-allocation claims are provable.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_io.hpp"
#include "gen/sources.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"

namespace {
// Relaxed atomic: FleetHealth.* runs run_fleet on worker threads.
std::atomic<std::uint64_t> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) & ~(a - 1);  // aligned_alloc contract
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
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

namespace aetr::obs {
namespace {

constexpr double kReconcileJ = 1e-12;  // the ISSUE's reconciliation bound

std::string slurp(const std::string& path) {
  std::ifstream f{path};
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

core::RunResult ledger_run(double rate_hz, std::size_t n_events,
                           bool energy_ledger = true) {
  core::ScenarioConfig sc;
  sc.interface.fifo.batch_threshold = 64;
  sc.energy_ledger = energy_ledger;
  gen::PoissonSource src{rate_hz, 128, 20260809};
  return core::run_scenario(sc, gen::take(src, n_events));
}

// --- reconciliation with the power model ------------------------------------

TEST(Ledger, ReconcilesWithPowerModelAcrossRates) {
  // The fig8 operating range: sparse, the paper's sweet spot, near
  // saturation. At every rate the ledger's interface-side stage sum must
  // reproduce average_power_w * window to within 1e-12 J — same per-unit
  // terms, only addition order differs.
  for (const double rate : {1e3, 5e4, 8e5}) {
    const auto r = ledger_run(rate, 5000);
    ASSERT_TRUE(r.ledger.enabled) << "rate " << rate;
    EXPECT_DOUBLE_EQ(r.ledger.window_sec, r.activity.window.to_sec());
    const double model_j = r.average_power_w * r.ledger.window_sec;
    EXPECT_NEAR(r.ledger.interface_energy_j(), model_j, kReconcileJ)
        << "rate " << rate;
    // MCU stage is extra, on top of the interface-side total.
    EXPECT_GT(r.ledger.stage_j(Stage::kMcu), 0.0);
    EXPECT_NEAR(r.ledger.total_energy_j(),
                r.ledger.interface_energy_j() + r.ledger.stage_j(Stage::kMcu),
                kReconcileJ);
    // Outcome split conserves energy and events.
    double outcome_sum = 0.0;
    std::uint64_t event_sum = 0;
    for (std::size_t o = 0; o < kOutcomeCount; ++o) {
      outcome_sum += r.ledger.outcome_energy_j[o];
      event_sum += r.ledger.outcome_events[o];
    }
    EXPECT_NEAR(outcome_sum, r.ledger.total_energy_j(), kReconcileJ);
    EXPECT_EQ(event_sum, r.events_in);
    EXPECT_EQ(r.ledger.events(Outcome::kDelivered), r.decoded.size());
    EXPECT_EQ(r.ledger.events(Outcome::kBufferDropped), r.fifo_overflows);
  }
}

TEST(Ledger, StateResidencyPartitionsTheWindow) {
  const auto r = ledger_run(5e4, 5000);
  const auto& led = r.ledger;
  double sum = 0.0;
  for (std::size_t s = 0; s < kStateCount; ++s) {
    EXPECT_GE(led.state_sec[s], 0.0);
    sum += led.state_sec[s];
  }
  // active + paused == osc-awake and osc_off == window - awake, so the
  // three must tile the run window.
  EXPECT_NEAR(sum, led.window_sec, 1e-9);
  EXPECT_GT(led.state_s(ClockState::kActive), 0.0);
}

// --- disabled path ----------------------------------------------------------

TEST(Ledger, DisabledRunIsBitIdenticalAndCarriesEmptyLedger) {
  const auto off = ledger_run(5e4, 2000, /*energy_ledger=*/false);
  const auto on = ledger_run(5e4, 2000, /*energy_ledger=*/true);
  EXPECT_FALSE(off.ledger.enabled);
  for (const double e : off.ledger.stage_energy_j) EXPECT_EQ(e, 0.0);
  for (const std::uint64_t n : off.ledger.outcome_events) EXPECT_EQ(n, 0u);
  EXPECT_EQ(off.ledger.window_sec, 0.0);
  // The ledger is post-hoc arithmetic: every simulation observable is
  // bit-identical whether it was filled or not.
  EXPECT_EQ(on.sim_end, off.sim_end);
  EXPECT_EQ(on.events_in, off.events_in);
  EXPECT_EQ(on.words_out, off.words_out);
  EXPECT_EQ(on.batches, off.batches);
  EXPECT_EQ(on.fifo_overflows, off.fifo_overflows);
  EXPECT_EQ(on.handshakes, off.handshakes);
  EXPECT_EQ(on.decoded.size(), off.decoded.size());
  EXPECT_EQ(on.average_power_w, off.average_power_w);
  EXPECT_EQ(on.error.weighted_rel_error(), off.error.weighted_rel_error());
}

TEST(Ledger, FromRunAllocatesNothing) {
  const auto r = ledger_run(5e4, 2000);
  LedgerInputs in;
  in.activity = r.activity;
  in.calibration = power::PowerCalibration{};
  in.tick_unit = r.tick_unit;
  in.words = r.words_out;
  in.batches = r.batches;
  in.events_in = r.events_in;
  in.delivered = r.decoded.size();
  in.buffer_dropped = r.fifo_overflows;
  in.include_mcu = true;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const EnergyLedger led = EnergyLedger::from_run(in);
  EnergyLedger sum;
  accumulate(sum, led);
  scale(sum, 0.5);
  sum.finalize_outcomes();
  (void)sum.interface_energy_j();
  (void)sum.energy_per_delivered_j();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
      << "ledger arithmetic allocated";
  EXPECT_TRUE(led.enabled);
}

// --- artifact writers -------------------------------------------------------

TEST(Ledger, CsvAndStackWritesAreByteDeterministic) {
  const auto r = ledger_run(5e4, 3000);
  const std::string csv_a = testing::TempDir() + "aetr_led_a.csv";
  const std::string csv_b = testing::TempDir() + "aetr_led_b.csv";
  const std::string stk_a = testing::TempDir() + "aetr_led_a.txt";
  const std::string stk_b = testing::TempDir() + "aetr_led_b.txt";
  write_ledger_csv(r.ledger, csv_a);
  write_ledger_csv(r.ledger, csv_b);
  write_collapsed_stack(r.ledger, stk_a);
  write_collapsed_stack(r.ledger, stk_b);
  const std::string csv = slurp(csv_a);
  EXPECT_EQ(csv, slurp(csv_b));
  EXPECT_EQ(slurp(stk_a), slurp(stk_b));
  EXPECT_NE(csv.find("section,name,value,unit\n"), std::string::npos);
  EXPECT_NE(csv.find("stage,clockgen,"), std::string::npos);
  EXPECT_NE(csv.find("total,interface,"), std::string::npos);
  // Collapsed-stack grammar: "outcome;stage <integer>" per line.
  std::istringstream stack{slurp(stk_a)};
  std::string line;
  std::size_t frames = 0;
  while (std::getline(stack, line)) {
    const auto semi = line.find(';');
    const auto space = line.rfind(' ');
    ASSERT_NE(semi, std::string::npos) << line;
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(semi, space) << line;
    EXPECT_GT(std::strtoll(line.c_str() + space + 1, nullptr, 10), 0)
        << line;
    ++frames;
  }
  EXPECT_GT(frames, 0u);
  for (const auto& p : {csv_a, csv_b, stk_a, stk_b}) std::remove(p.c_str());
}

TEST(Ledger, FinalizeOutcomesBooksIdleRunsAsDelivered) {
  EnergyLedger led;
  led.enabled = true;
  led.stage_energy_j[static_cast<std::size_t>(Stage::kStatic)] = 2.0;
  led.finalize_outcomes();  // no events at all
  EXPECT_DOUBLE_EQ(led.outcome_j(Outcome::kDelivered), 2.0);
  led.outcome_events[static_cast<std::size_t>(Outcome::kDelivered)] = 3;
  led.outcome_events[static_cast<std::size_t>(Outcome::kLinkDropped)] = 1;
  led.finalize_outcomes();
  EXPECT_DOUBLE_EQ(led.outcome_j(Outcome::kDelivered), 1.5);
  EXPECT_DOUBLE_EQ(led.outcome_j(Outcome::kLinkDropped), 0.5);
}

TEST(Ledger, AccumulateSumsAndScaleLeavesCountsAlone) {
  const auto r = ledger_run(5e4, 2000);
  EnergyLedger sum;
  accumulate(sum, r.ledger);
  accumulate(sum, r.ledger);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_DOUBLE_EQ(sum.stage_energy_j[s], 2.0 * r.ledger.stage_energy_j[s]);
  }
  EXPECT_DOUBLE_EQ(sum.window_sec, r.ledger.window_sec);  // max, not sum
  EXPECT_EQ(sum.events(Outcome::kDelivered),
            2u * r.ledger.events(Outcome::kDelivered));
  scale(sum, 0.25);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_DOUBLE_EQ(sum.stage_energy_j[s], 0.5 * r.ledger.stage_energy_j[s]);
  }
  EXPECT_EQ(sum.events(Outcome::kDelivered),
            2u * r.ledger.events(Outcome::kDelivered));  // counts untouched
}

// --- fleet health roll-up ---------------------------------------------------

fleet::FleetConfig small_fleet(bool health) {
  fleet::FleetConfig cfg;
  cfg.nodes = 4;
  cfg.events_per_node = 300;
  cfg.rate_hz = 30e3;
  cfg.rate_spread = 0.2;
  // Starve the uplink (4 nodes x 30 kHz >> 50 kwords/s) so the roll-up has
  // link drops to attribute.
  cfg.link.bandwidth_words_per_sec = 5e4;
  cfg.link.queue_words = 16;
  cfg.health = health;
  return cfg;
}

TEST(FleetHealth, RollupIsTheSumOfNodeLedgers) {
  const auto res = fleet::run_fleet(small_fleet(true), {});
  ASSERT_TRUE(res.health.enabled);
  ASSERT_EQ(res.health.node_ledgers.size(), 4u);
  EnergyLedger sum;
  for (const auto& led : res.health.node_ledgers) {
    EXPECT_TRUE(led.enabled);
    accumulate(sum, led);
  }
  for (std::size_t s = 0; s < kStageCount; ++s) {
    EXPECT_DOUBLE_EQ(res.health.fleet.stage_energy_j[s],
                     sum.stage_energy_j[s]);
  }
  for (std::size_t s = 0; s < kStateCount; ++s) {
    EXPECT_DOUBLE_EQ(res.health.fleet.state_sec[s], sum.state_sec[s]);
  }
  // Drop-cause attribution matches the fleet totals.
  EXPECT_EQ(res.health.fleet.events(Outcome::kDelivered),
            res.delivered_total);
  EXPECT_EQ(res.health.fleet.events(Outcome::kLinkDropped),
            res.dropped_link_total);
  EXPECT_EQ(res.health.fleet.events(Outcome::kBudgetDead),
            res.dropped_dead_total);
  EXPECT_GT(res.dropped_link_total, 0u) << "scenario should stress the link";
  // The fleet ledger reconciles with the fleet energy total (which counts
  // interface-side joules: NodeResult::energy_j = avg power * window).
  EXPECT_NEAR(res.health.fleet.interface_energy_j(), res.total_energy_j,
              4.0 * kReconcileJ);
  EXPECT_GT(res.health.fleet.stage_j(Stage::kMcu), 0.0);
  // Percentiles are order statistics over the per-node scalars.
  EXPECT_GT(res.health.node_energy_p50_j, 0.0);
  EXPECT_GE(res.health.node_energy_p99_j, res.health.node_energy_p50_j);
  EXPECT_GE(res.health.node_power_p99_w, res.health.node_power_p50_w);
  EXPECT_LE(res.health.delivered_frac_min, res.health.delivered_frac_p50);
}

TEST(FleetHealth, DisabledFleetIsBitIdentical) {
  const auto off = fleet::run_fleet(small_fleet(false), {});
  const auto on = fleet::run_fleet(small_fleet(true), {});
  EXPECT_FALSE(off.health.enabled);
  EXPECT_TRUE(off.health.node_ledgers.empty());
  ASSERT_EQ(on.nodes.size(), off.nodes.size());
  for (std::size_t i = 0; i < on.nodes.size(); ++i) {
    const auto& a = on.nodes[i];
    const auto& b = off.nodes[i];
    EXPECT_EQ(a.energy_j, b.energy_j) << "node " << i;
    EXPECT_EQ(a.average_power_w, b.average_power_w) << "node " << i;
    EXPECT_EQ(a.sim_end_sec, b.sim_end_sec) << "node " << i;
    EXPECT_EQ(a.delivered, b.delivered) << "node " << i;
    EXPECT_EQ(a.dropped_link, b.dropped_link) << "node " << i;
    EXPECT_EQ(a.dropped_dead, b.dropped_dead) << "node " << i;
  }
  EXPECT_EQ(on.total_energy_j, off.total_energy_j);
  EXPECT_EQ(on.delivered_total, off.delivered_total);
  EXPECT_EQ(on.latency_p50_sec, off.latency_p50_sec);
  EXPECT_EQ(on.latency_p99_sec, off.latency_p99_sec);
  EXPECT_EQ(on.latency_p999_sec, off.latency_p999_sec);
}

TEST(FleetHealth, BudgetDeathScalesTheNodeLedger) {
  auto cfg = small_fleet(true);
  cfg.node_energy_budget_j = 1e-7;  // far below a full run's energy
  const auto res = fleet::run_fleet(cfg, {});
  ASSERT_TRUE(res.health.enabled);
  EXPECT_GT(res.dropped_dead_total, 0u);
  for (std::size_t i = 0; i < res.nodes.size(); ++i) {
    const auto& n = res.nodes[i];
    if (!n.budget_exhausted) continue;
    // Constant-power truncation: the scaled ledger's interface energy must
    // match the node's truncated energy, not the full-run energy.
    const auto& led = res.health.node_ledgers[i];
    EXPECT_NEAR(led.interface_energy_j(), n.energy_j,
                1e-9 * std::max(1.0, n.energy_j))
        << "node " << i;
    EXPECT_NEAR(led.window_sec, n.sim_end_sec, 1e-12);
  }
}

// --- config round-trips -----------------------------------------------------

TEST(Config, EnergyLedgerKeyRoundTrips) {
  core::ScenarioConfig sc;
  sc.energy_ledger = true;
  const std::string text = core::dump_scenario(sc);
  EXPECT_NE(text.find("session.energy_ledger = true"), std::string::npos);
  std::istringstream is{text};
  const auto back = core::load_scenario(is);
  EXPECT_TRUE(back.energy_ledger);
  EXPECT_EQ(core::dump_scenario(back), text);  // dump -> load -> dump
}

TEST(Config, FleetHealthKeyRoundTrips) {
  fleet::FleetConfig cfg;
  cfg.health = true;
  const std::string text = fleet::dump_fleet(cfg);
  EXPECT_NE(text.find("fleet.health = true"), std::string::npos);
  std::istringstream is{text};
  const auto back = fleet::load_fleet(is);
  EXPECT_TRUE(back.health);
  EXPECT_EQ(fleet::dump_fleet(back), text);
}

// --- report renderer --------------------------------------------------------

TEST(Report, RendersArtifactsDeterministically) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path{testing::TempDir()} / "aetr_obs_report";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto r = ledger_run(5e4, 3000);
  write_ledger_csv(r.ledger, (dir / "run_ledger.csv").string());
  write_collapsed_stack(r.ledger, (dir / "run_stack.txt").string());
  const auto sum_a = render_report(dir.string(), dir.string());
  const std::string html_a = slurp(sum_a.out_path);
  EXPECT_EQ(sum_a.ledgers, 1u);
  EXPECT_EQ(sum_a.stacks, 1u);
  EXPECT_NE(html_a.find("run_ledger.csv"), std::string::npos);
  EXPECT_NE(html_a.find("<svg"), std::string::npos);
  // Re-render into a different directory: byte-identical (no paths, no
  // timestamps in the output).
  const fs::path dir2 = fs::path{testing::TempDir()} / "aetr_obs_report2";
  fs::remove_all(dir2);
  fs::create_directories(dir2);
  fs::copy_file(dir / "run_ledger.csv", dir2 / "run_ledger.csv");
  fs::copy_file(dir / "run_stack.txt", dir2 / "run_stack.txt");
  const auto sum_b = render_report(dir2.string(), dir2.string());
  EXPECT_EQ(slurp(sum_b.out_path), html_a);
  EXPECT_THROW(render_report((dir / "missing").string(), dir.string()),
               std::runtime_error);
  fs::remove_all(dir);
  fs::remove_all(dir2);
}

}  // namespace
}  // namespace aetr::obs
