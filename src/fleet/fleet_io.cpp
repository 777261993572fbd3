#include "fleet/fleet_io.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/config_io.hpp"
#include "core/key_schema.hpp"

namespace aetr::fleet {

namespace {

using core::KeySchema;

KeySchema<FleetConfig> make_fleet_schema() {
  KeySchema<FleetConfig> s{"fleet config"};
  s.comment("aetr fleet configuration");
  s.integer("fleet.nodes", [](auto& c) -> auto& { return c.nodes; });
  s.integer("fleet.gateways", [](auto& c) -> auto& { return c.gateways; });
  s.real("fleet.rate_hz", [](auto& c) -> auto& { return c.rate_hz; });
  s.integer("fleet.events_per_node",
            [](auto& c) -> auto& { return c.events_per_node; });
  s.real("fleet.rate_spread", [](auto& c) -> auto& { return c.rate_spread; });
  s.real("fleet.fault_level", [](auto& c) -> auto& { return c.fault_level; });
  s.real("fleet.node_energy_budget_j",
         [](auto& c) -> auto& { return c.node_energy_budget_j; });
  s.flag("fleet.health", [](auto& c) -> auto& { return c.health; });
  s.integer("fleet.seed", [](auto& c) -> auto& { return c.seed; });
  s.real("link.bandwidth_words_per_sec",
         [](auto& c) -> auto& { return c.link.bandwidth_words_per_sec; });
  s.integer("link.queue_words",
            [](auto& c) -> auto& { return c.link.queue_words; });
  s.choice("link.arbitration",
           [](auto& c) -> auto& { return c.link.arbitration; },
           {{"fifo", Arbitration::kFifo},
            {"round_robin", Arbitration::kRoundRobin}});
  // Every scenario key (which itself embeds every interface key) applies
  // to the per-node base scenario — one shared table instead of the old
  // three-way fall-through.
  s.comment("per-node base scenario");
  s.extend(core::scenario_schema(), [](auto& c) -> auto& { return c.base; });
  return s;
}

const KeySchema<FleetConfig>& fleet_schema() {
  static const KeySchema<FleetConfig> schema = make_fleet_schema();
  return schema;
}

}  // namespace

std::vector<std::string> fleet_keys() { return fleet_schema().keys(); }

void apply_fleet_key(FleetConfig& config, const std::string& key,
                     const std::string& value) {
  fleet_schema().apply(config, key, value);
}

FleetConfig load_fleet(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>{is}, {}};
  FleetConfig config;
  fleet_schema().load(config, text);
  config.validate();
  return config;
}

FleetConfig load_fleet_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("fleet config: cannot open " + path);
  return load_fleet(f);
}

std::string dump_fleet(const FleetConfig& c) {
  return fleet_schema().dump(c);
}

}  // namespace aetr::fleet
