#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "runtime/seed.hpp"
#include "runtime/sweep.hpp"
#include "util/time.hpp"

namespace aetr::fleet {

namespace {

// Seed streams of one node, derived via derive_substream_seed(seed, node, *):
// mutually independent and collision-free across nodes of one fleet.
constexpr std::uint64_t kStreamEvents = 0;  ///< Poisson event source
constexpr std::uint64_t kStreamFaults = 1;  ///< scaled fault plan
constexpr std::uint64_t kStreamHetero = 2;  ///< rate heterogeneity draw

/// Uniform double in [0, 1) from a 64-bit mix (53 mantissa bits).
double to_unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Fixed prefix of a node job's `values` before the (t_event, t_accept)
/// pairs; keep in sync with pack_node()/unpack_node(). When the fleet rolls
/// up health, a fixed-size ledger tail (stage energies + state residencies)
/// rides AFTER the pairs, so the disabled layout is untouched.
constexpr std::size_t kNodeScalars = 10;
constexpr std::size_t kLedgerTail = obs::kStageCount + obs::kStateCount;

void pack_node(const core::RunResult& r, bool health,
               runtime::JobOutput& out) {
  const double sim_end_sec = r.sim_end.to_sec();
  out.values = {r.average_power_w * sim_end_sec,
                r.average_power_w,
                sim_end_sec,
                r.error.weighted_rel_error(),
                static_cast<double>(r.events_in),
                static_cast<double>(r.decoded.size()),
                static_cast<double>(r.fifo_overflows),
                static_cast<double>(r.faults.injected_total()),
                static_cast<double>(r.faults.recovered_total()),
                static_cast<double>(r.delivery_latency_sec.size())};
  out.values.reserve(kNodeScalars + 2 * r.decoded.size() +
                     (health ? kLedgerTail : 0));
  for (std::size_t j = 0; j < r.decoded.size(); ++j) {
    const double t_event = r.decoded[j].reconstructed_time.to_sec();
    out.values.push_back(t_event);
    out.values.push_back(t_event + r.delivery_latency_sec[j]);
  }
  if (health) {
    for (const double e : r.ledger.stage_energy_j) out.values.push_back(e);
    for (const double s : r.ledger.state_sec) out.values.push_back(s);
  }
}

/// Rebuild a node's ledger from its packed tail (outcome counts are filled
/// in after the link phase has decided every event's fate).
obs::EnergyLedger unpack_ledger(const std::vector<double>& v,
                                std::size_t pairs) {
  obs::EnergyLedger led;
  led.enabled = true;
  led.window_sec = v[2];  // node sim_end, pre-truncation
  const std::size_t tail = kNodeScalars + 2 * pairs;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    led.stage_energy_j[s] = v[tail + s];
  }
  for (std::size_t s = 0; s < obs::kStateCount; ++s) {
    led.state_sec[s] = v[tail + obs::kStageCount + s];
  }
  return led;
}

NodeResult unpack_node(const FleetConfig& cfg, std::size_t node,
                       const std::vector<double>& v) {
  NodeResult n;
  n.node_id = node;
  n.seed = node_seed(cfg, node);
  n.rate_hz = node_rate_hz(cfg, node);
  n.energy_j = v[0];
  n.average_power_w = v[1];
  n.sim_end_sec = v[2];
  n.err_weighted_rel = v[3];
  n.events_in = static_cast<std::uint64_t>(v[4]);
  n.decoded = static_cast<std::uint64_t>(v[5]);
  n.fifo_overflows = static_cast<std::uint64_t>(v[6]);
  n.faults_injected = static_cast<std::uint64_t>(v[7]);
  n.faults_recovered = static_cast<std::uint64_t>(v[8]);
  return n;
}

/// One uplink word: offered to the gateway at `t_offer` (the node-side MCU
/// accept instant), carrying an event reconstructed at `t_event`.
struct Offer {
  double t_offer;
  double t_event;
  std::uint32_t node;
  std::uint32_t seq;
};

bool offer_order(const Offer& a, const Offer& b) {
  if (a.t_offer != b.t_offer) return a.t_offer < b.t_offer;
  if (a.node != b.node) return a.node < b.node;
  return a.seq < b.seq;
}

/// Single-server finite-buffer gateway uplink. Walks the time-sorted offers
/// once; O(1) amortised per word for both policies. Buffer occupancy counts
/// the in-service word until its completion instant; at equal instants the
/// link frees a slot before a new arrival claims one.
struct GatewaySim {
  const std::vector<Offer>& offers;
  double service_sec;
  std::size_t queue_words;
  Arbitration arbitration;
  std::vector<NodeResult>& nodes;
  GatewayResult& gw;
  std::vector<double>& latencies;  ///< fleet-wide, appended per delivery

  void run() {
    gw.offered += offers.size();
    if (offers.empty() || service_sec <= 0.0) return;
    std::deque<std::size_t> fifo;               // kFifo: one global queue
    std::vector<std::deque<std::size_t>> per_node;  // kRoundRobin
    std::deque<std::uint32_t> ring;             // kRoundRobin: active nodes
    if (arbitration == Arbitration::kRoundRobin) {
      std::uint32_t max_node = 0;
      for (const Offer& o : offers) max_node = std::max(max_node, o.node);
      per_node.resize(static_cast<std::size_t>(max_node) + 1);
    }
    std::size_t next = 0;    // first not-yet-ingested offer
    std::size_t queued = 0;  // buffered words, in-service included
    double now = 0.0;
    const auto admit = [&](std::size_t i) {
      if (queued >= queue_words) {
        ++gw.dropped_link;
        ++nodes[offers[i].node].dropped_link;
        return;
      }
      ++queued;
      if (arbitration == Arbitration::kFifo) {
        fifo.push_back(i);
      } else {
        auto& q = per_node[offers[i].node];
        if (q.empty()) ring.push_back(offers[i].node);
        q.push_back(i);
      }
    };
    while (true) {
      const bool queue_empty =
          arbitration == Arbitration::kFifo ? fifo.empty() : ring.empty();
      if (queue_empty) {
        if (next == offers.size()) break;
        now = std::max(now, offers[next].t_offer);
      }
      while (next < offers.size() && offers[next].t_offer <= now) {
        admit(next++);
      }
      if (arbitration == Arbitration::kFifo ? fifo.empty() : ring.empty()) {
        continue;  // every offer at `now` was dropped; jump to the next
      }
      std::size_t pick;
      if (arbitration == Arbitration::kFifo) {
        pick = fifo.front();
        fifo.pop_front();
      } else {
        const std::uint32_t node = ring.front();
        ring.pop_front();
        auto& q = per_node[node];
        pick = q.front();
        q.pop_front();
        if (!q.empty()) ring.push_back(node);  // one word per turn
      }
      const double done = now + service_sec;
      // Arrivals strictly before the completion still see the in-service
      // word occupying its buffer slot.
      while (next < offers.size() && offers[next].t_offer < done) {
        admit(next++);
      }
      --queued;
      const Offer& o = offers[pick];
      ++gw.delivered;
      ++nodes[o.node].delivered;
      latencies.push_back(done - o.t_event);
      gw.busy_sec += service_sec;
      gw.span_sec = done;
      now = done;
    }
  }
};

/// Empirical quantile of an ascending-sorted sample (deterministic index
/// method: the ceil(q*n)-th order statistic).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

void FleetConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("fleet: " + what);
  };
  if (nodes == 0) fail("nodes must be >= 1");
  if (gateways == 0) fail("gateways must be >= 1");
  if (!(link.bandwidth_words_per_sec > 0.0) ||
      !std::isfinite(link.bandwidth_words_per_sec)) {
    fail("link.bandwidth_words_per_sec must be finite and > 0");
  }
  if (link.queue_words == 0) fail("link.queue_words must be >= 1");
  if (!(rate_hz > 0.0) || !std::isfinite(rate_hz)) {
    fail("rate_hz must be finite and > 0");
  }
  if (events_per_node == 0) fail("events_per_node must be >= 1");
  if (rate_spread < 0.0 || rate_spread >= 1.0) {
    fail("rate_spread must be in [0, 1)");
  }
  if (fault_level < 0.0) fail("fault_level must be >= 0");
  if (node_energy_budget_j < 0.0) fail("node_energy_budget_j must be >= 0");
  if (!base.attach_mcu) {
    fail("base scenario must attach the MCU (delivery instants feed the "
         "uplink model)");
  }
  // Nodes run headless: fleet-level metrics come from FleetResult::metrics.
  if (base.telemetry.any()) {
    fail("base scenario telemetry must be off (nodes run headless; use "
         "FleetResult::metrics)");
  }
  base.validate();
}

std::uint64_t node_seed(const FleetConfig& config, std::size_t node) {
  return runtime::derive_seed(config.seed, node);
}

double node_rate_hz(const FleetConfig& config, std::size_t node) {
  const double u = to_unit(runtime::derive_substream_seed(config.seed, node,
                                                          kStreamHetero));
  return config.rate_hz * (1.0 + config.rate_spread * (2.0 * u - 1.0));
}

core::ScenarioConfig node_scenario(const FleetConfig& config,
                                   std::size_t node) {
  core::ScenarioConfig sc = config.base;
  if (config.fault_level > 0.0) {
    sc.faults = fault::scaled_plan(
        config.fault_level,
        runtime::derive_substream_seed(config.seed, node, kStreamFaults));
  }
  // The ledger is post-hoc arithmetic: turning it on cannot change the
  // node's RunResult, only annotate it.
  if (config.health) sc.energy_ledger = true;
  return sc;
}

aer::EventStream node_stream(const FleetConfig& config, std::size_t node) {
  gen::PoissonSource src{
      node_rate_hz(config, node), 128,
      runtime::derive_substream_seed(config.seed, node, kStreamEvents),
      Time::ns(130.0)};
  return gen::take(src, config.events_per_node);
}

FleetResult run_fleet(const FleetConfig& config, const FleetOptions& options) {
  config.validate();

  // Phase 1: one sweep job per node. Every node draws randomness only from
  // its derive_substream_seed streams, never from ctx.seed directly — the
  // helpers above ARE the contract, so tests can replay any node standalone.
  runtime::SweepGrid grid;
  std::vector<double> ids(config.nodes);
  std::iota(ids.begin(), ids.end(), 0.0);
  grid.axis("node", ids);
  runtime::SweepOptions so;
  so.jobs = options.jobs;
  so.seed = config.seed;
  so.progress = options.progress;
  const auto job = [&config](const runtime::JobContext& ctx) {
    const auto node = static_cast<std::size_t>(ctx.point.at("node"));
    const auto r = core::run_scenario(node_scenario(config, node),
                                      node_stream(config, node));
    runtime::JobOutput out;
    pack_node(r, config.health, out);
    return out;
  };
  const auto report = runtime::run_sweep(grid, job, so, nullptr);

  // Phase 2: the shared-link replay, serial and in node-id order.
  FleetResult res;
  res.nodes.reserve(config.nodes);
  res.gateways.resize(config.gateways);
  for (std::size_t g = 0; g < config.gateways; ++g) {
    res.gateways[g].gateway_id = g;
  }
  std::vector<std::vector<Offer>> offers(config.gateways);
  double max_sim_end = 0.0;
  if (config.health) res.health.node_ledgers.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const auto& v = report.outputs[i].values;
    NodeResult n = unpack_node(config, i, v);
    const std::size_t g = i % config.gateways;
    const auto pairs = static_cast<std::size_t>(v[kNodeScalars - 1]);
    obs::EnergyLedger led;
    if (config.health) led = unpack_ledger(v, pairs);
    // Constant-power budget model: the node goes dark the instant its
    // accumulated energy crosses the budget.
    double death_sec = std::numeric_limits<double>::infinity();
    if (config.node_energy_budget_j > 0.0 && n.average_power_w > 0.0) {
      death_sec = config.node_energy_budget_j / n.average_power_w;
      if (death_sec < n.sim_end_sec) {
        n.budget_exhausted = true;
        n.energy_j = config.node_energy_budget_j;  // it stopped burning there
        // Same constant-power truncation for the ledger: every stage and
        // residency shrinks by the fraction of the window the node lived.
        if (config.health) obs::scale(led, death_sec / n.sim_end_sec);
        n.sim_end_sec = death_sec;
      }
    }
    for (std::size_t j = 0; j < pairs; ++j) {
      const double t_event = v[kNodeScalars + 2 * j];
      const double t_accept = v[kNodeScalars + 2 * j + 1];
      if (t_accept > death_sec) {
        ++n.dropped_dead;
        ++res.gateways[g].dropped_dead;
        continue;
      }
      offers[g].push_back(Offer{t_accept, t_event,
                                static_cast<std::uint32_t>(i),
                                static_cast<std::uint32_t>(j)});
    }
    res.total_energy_j += n.energy_j;
    res.events_in_total += n.events_in;
    res.decoded_total += n.decoded;
    res.dropped_dead_total += n.dropped_dead;
    max_sim_end = std::max(max_sim_end, n.sim_end_sec);
    res.nodes.push_back(n);
    if (config.health) res.health.node_ledgers.push_back(led);
  }

  std::vector<double> latencies;
  const double service_sec = 1.0 / config.link.bandwidth_words_per_sec;
  for (std::size_t g = 0; g < config.gateways; ++g) {
    std::sort(offers[g].begin(), offers[g].end(), &offer_order);
    GatewaySim sim{offers[g],          service_sec,
                   config.link.queue_words, config.link.arbitration,
                   res.nodes,          res.gateways[g],
                   latencies};
    sim.run();
    res.delivered_total += res.gateways[g].delivered;
    res.dropped_link_total += res.gateways[g].dropped_link;
    max_sim_end = std::max(max_sim_end, res.gateways[g].span_sec);
  }
  std::sort(latencies.begin(), latencies.end());
  res.latency_p50_sec = quantile_sorted(latencies, 0.50);
  res.latency_p99_sec = quantile_sorted(latencies, 0.99);
  res.latency_p999_sec = quantile_sorted(latencies, 0.999);

  // Health roll-up: now that the link phase has decided every event's fate,
  // book each node's outcome counts, finalize its energy split, and sum the
  // ledgers element-wise into the fleet ledger.
  if (config.health) {
    FleetHealth& h = res.health;
    h.enabled = true;
    std::vector<double> energies, powers, fracs;
    energies.reserve(config.nodes);
    powers.reserve(config.nodes);
    fracs.reserve(config.nodes);
    for (std::size_t i = 0; i < config.nodes; ++i) {
      const NodeResult& n = res.nodes[i];
      obs::EnergyLedger& led = h.node_ledgers[i];
      using obs::Outcome;
      auto& oe = led.outcome_events;
      oe[static_cast<std::size_t>(Outcome::kDelivered)] = n.delivered;
      oe[static_cast<std::size_t>(Outcome::kBufferDropped)] =
          n.fifo_overflows;
      const std::uint64_t accounted = n.decoded + n.fifo_overflows;
      oe[static_cast<std::size_t>(Outcome::kFaultLost)] =
          n.events_in > accounted ? n.events_in - accounted : 0u;
      oe[static_cast<std::size_t>(Outcome::kLinkDropped)] = n.dropped_link;
      oe[static_cast<std::size_t>(Outcome::kBudgetDead)] = n.dropped_dead;
      led.finalize_outcomes();
      obs::accumulate(h.fleet, led);
      energies.push_back(n.energy_j);
      powers.push_back(n.average_power_w);
      fracs.push_back(n.delivered_fraction());
    }
    h.fleet.finalize_outcomes();
    std::sort(energies.begin(), energies.end());
    std::sort(powers.begin(), powers.end());
    std::sort(fracs.begin(), fracs.end());
    h.node_energy_p50_j = quantile_sorted(energies, 0.50);
    h.node_energy_p99_j = quantile_sorted(energies, 0.99);
    h.node_power_p50_w = quantile_sorted(powers, 0.50);
    h.node_power_p99_w = quantile_sorted(powers, 0.99);
    h.delivered_frac_p50 = quantile_sorted(fracs, 0.50);
    h.delivered_frac_min = fracs.front();
  }

  // Fleet-level telemetry: value-capturing probes (safe to move with the
  // result) plus the per-node energy histogram, snapshotted once at the
  // fleet's sim end.
  auto* hist =
      res.metrics.log_histogram("fleet.node_energy_j", 1e-9, 1e3, 4);
  for (const NodeResult& n : res.nodes) hist->add(n.energy_j);
  const double total_energy = res.total_energy_j;
  const double delivered = static_cast<double>(res.delivered_total);
  const double frac = res.delivered_fraction();
  const double epd = res.energy_per_delivered_j();
  const double p99_ms = res.latency_p99_sec * 1e3;
  double util_max = 0.0;
  for (const GatewayResult& g : res.gateways) {
    util_max = std::max(util_max, g.utilization());
  }
  res.metrics.probe("fleet.total_energy_j", [total_energy](Time) {
    return total_energy;
  });
  res.metrics.probe("fleet.delivered_events", [delivered](Time) {
    return delivered;
  });
  res.metrics.probe("fleet.delivered_fraction", [frac](Time) { return frac; });
  res.metrics.probe("fleet.energy_per_delivered_j",
                    [epd](Time) { return epd; });
  res.metrics.probe("fleet.latency_p99_ms", [p99_ms](Time) { return p99_ms; });
  res.metrics.probe("fleet.gateway_util_max", [util_max](Time) {
    return util_max;
  });
  res.metrics.snapshot(Time::sec(max_sim_end));
  return res;
}

}  // namespace aetr::fleet
