// Optimizer bench: quick successive-halving search over the built-in
// space, reporting the Pareto front against the paper-default scenario.
//
// This is the library-level twin of `aetr-sweep opt --quick`: it exists so
// the bench suite can regress the optimizer's headline result — how much
// energy per event the search recovers over the paper default without
// giving up timestamp accuracy — from one self-contained binary.
#include <cstdio>
#include <iostream>

#include "opt/optimizer.hpp"
#include "util/artifacts.hpp"
#include "util/table.hpp"

using namespace aetr;

int main() {
  opt::OptOptions options;
  options.strategy = opt::Strategy::kHalving;
  options.budget = 16;
  options.workload.n_events = 2000;
  options.progress = [](const std::string& line) {
    std::fprintf(stderr, "opt: %s\n", line.c_str());
  };

  const auto space = opt::SearchSpace::default_space();
  const core::ScenarioConfig base;
  const auto result = opt::optimize(space, base, options);

  std::vector<std::string> header{"id"};
  for (const auto& axis : space.axes()) header.push_back(axis.key);
  header.emplace_back("energy [J/evt]");
  header.emplace_back("err RMS");
  Table table{header};
  for (const auto& p : result.front.points()) {
    std::vector<std::string> row{std::to_string(p.id)};
    for (std::size_t i = 0; i < p.params.size(); ++i) {
      row.push_back(space.axes()[i].format(p.params[i]));
    }
    row.push_back(Table::num(p.objectives[0], 4));
    row.push_back(Table::num(p.objectives[1], 4));
    table.add_row(row);
  }
  {
    std::vector<std::string> row{"default"};
    for (std::size_t i = 0; i < result.baseline_params.size(); ++i) {
      row.push_back(space.axes()[i].format(result.baseline_params[i]));
    }
    row.push_back(Table::num(result.baseline.objectives[0], 4));
    row.push_back(Table::num(result.baseline.objectives[1], 4));
    table.add_row(row);
  }
  table.print(std::cout);

  std::printf("hypervolume: %.6g\n", result.hypervolume);
  std::printf("front %s the paper default\n",
              result.dominated_baseline ? "strictly dominates"
                                        : "does NOT dominate");
  // Bench self-check: the search must beat the paper default.
  return result.dominated_baseline ? 0 : 1;
}
