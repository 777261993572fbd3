#include "opt/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "core/config_io.hpp"
#include "core/key_schema.hpp"
#include "runtime/seed.hpp"
#include "runtime/sweep.hpp"
#include "util/artifacts.hpp"

namespace aetr::opt {
namespace {

// --- formatting -------------------------------------------------------------

using core::keyio::format_double;

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

double parse_double(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("opt: bad number '" + s + "' in checkpoint");
  }
  return v;
}

// --- seed streams -----------------------------------------------------------
// All derived from the root seed through fixed tags and *stable* ids, never
// from execution order: a resumed run re-derives identical seeds for the
// trials it still has to evaluate.

constexpr std::uint64_t kParamsTag = 0x5A;
constexpr std::uint64_t kStreamTag = 0xE0;

std::uint64_t params_seed(std::uint64_t root, std::uint64_t id) {
  return runtime::derive_seed(runtime::derive_seed(root, kParamsTag), id);
}

std::uint64_t stream_seed(std::uint64_t root, std::size_t rung) {
  return runtime::derive_seed(runtime::derive_seed(root, kStreamTag), rung);
}

// --- default point ----------------------------------------------------------

/// The base scenario's value for each axis, read back through the config
/// dump (the one representation that covers every key) and snapped into the
/// axis domain so it is expressible as a trial.
std::vector<double> default_params(const SearchSpace& space,
                                   const core::ScenarioConfig& base) {
  std::map<std::string, std::string> kv;
  core::keyio::parse_text(
      core::dump_scenario(base), "opt",
      [&](std::string_view key, std::string_view value, std::size_t) {
        kv[std::string{key}] = value;
      });
  std::vector<double> params;
  params.reserve(space.size());
  for (const auto& axis : space.axes()) {
    const auto it = kv.find(axis.key);
    if (it == kv.end()) {
      throw std::runtime_error("opt: axis key '" + axis.key +
                               "' missing from the scenario dump");
    }
    const double raw = std::strtod(it->second.c_str(), nullptr);
    // Snap to the nearest value the axis can produce.
    double best = axis.grid_values().front();
    for (double v : axis.grid_values()) {
      if (std::abs(v - raw) < std::abs(best - raw)) best = v;
    }
    params.push_back(best);
  }
  return params;
}

// --- population -------------------------------------------------------------

std::vector<std::vector<double>> build_population(const SearchSpace& space,
                                                  const OptOptions& opt,
                                                  const core::ScenarioConfig&
                                                      base) {
  std::vector<std::vector<double>> pop;
  switch (opt.strategy) {
    case Strategy::kFactorial: {
      const std::size_t n = space.factorial_size();
      pop.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        pop.push_back(space.factorial_point(i));
      }
      break;
    }
    case Strategy::kRandom: {
      const std::size_t n = std::max<std::size_t>(opt.budget, 1);
      pop.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        pop.push_back(space.sample(params_seed(opt.seed, i)));
      }
      break;
    }
    case Strategy::kHalving: {
      const std::size_t n = std::max<std::size_t>(opt.budget, 4);
      // Warm start: the default point first, then every one-axis variant of
      // it (axis order, value order) — the screening rung always scores the
      // "change exactly one knob" neighbourhood of the paper's default —
      // then random samples until the population is full.
      const auto defaults = default_params(space, base);
      pop.push_back(defaults);
      for (std::size_t a = 0; a < space.size() && pop.size() < n; ++a) {
        for (double v : space.axes()[a].grid_values()) {
          if (v == defaults[a]) continue;
          auto variant = defaults;
          variant[a] = v;
          pop.push_back(std::move(variant));
          if (pop.size() >= n) break;
        }
      }
      for (std::size_t i = pop.size(); i < n; ++i) {
        pop.push_back(space.sample(params_seed(opt.seed, i)));
      }
      break;
    }
  }
  return pop;
}

// --- checkpoint -------------------------------------------------------------

runtime::Row checkpoint_header(const SearchSpace& space) {
  runtime::Row h{"rung", "id", "n_events"};
  for (const auto& axis : space.axes()) h.push_back("param:" + axis.key);
  for (const char* col : {"energy_per_event_j", "err_rms", "delivered",
                          "p99_latency_s", "power_w", "events_in",
                          "words_out"}) {
    h.emplace_back(col);
  }
  return h;
}

std::string join_csv(const runtime::Row& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) line += ',';
    line += cells[i];
  }
  return line;
}

runtime::Row checkpoint_row(const Trial& t, const SearchSpace& space) {
  runtime::Row r{std::to_string(t.rung), fmt_u64(t.id),
                 std::to_string(t.n_events)};
  for (std::size_t i = 0; i < space.size(); ++i) {
    r.push_back(format_double(t.params[i]));
  }
  r.push_back(format_double(t.eval.energy_per_event_j));
  r.push_back(format_double(t.eval.err_rms));
  r.push_back(format_double(t.eval.delivered));
  r.push_back(format_double(t.eval.p99_latency_s));
  r.push_back(format_double(t.eval.average_power_w));
  r.push_back(fmt_u64(t.eval.events_in));
  r.push_back(fmt_u64(t.eval.words_out));
  return r;
}

/// Rebuild the objective vector from checkpointed raw metrics — the raw
/// values round-trip exactly, so a loaded trial is bit-identical to the
/// evaluation that produced it.
void rebuild_objectives(Evaluation& ev,
                        const std::vector<Objective>& objectives) {
  ev.objectives.clear();
  for (Objective o : objectives) {
    switch (o) {
      case Objective::kEnergyPerEvent:
        ev.objectives.push_back(ev.energy_per_event_j);
        break;
      case Objective::kErrorRms:
        ev.objectives.push_back(ev.err_rms);
        break;
      case Objective::kLoss:
        ev.objectives.push_back(1.0 - ev.delivered);
        break;
      case Objective::kLatencyP99:
        ev.objectives.push_back(ev.p99_latency_s);
        break;
    }
  }
}

using CheckpointMap = std::map<std::pair<std::size_t, std::uint64_t>, Trial>;

CheckpointMap load_checkpoint(const std::string& path,
                              const SearchSpace& space,
                              const std::vector<Objective>& objectives) {
  CheckpointMap out;
  std::ifstream is(path);
  if (!is) return out;
  std::string line;
  if (!std::getline(is, line)) return out;
  if (line != join_csv(checkpoint_header(space))) {
    throw std::runtime_error(
        "opt: checkpoint '" + path +
        "' does not match this search space (delete it or drop --resume)");
  }
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::istringstream cell_stream(line);
    std::string cell;
    while (std::getline(cell_stream, cell, ',')) cells.push_back(cell);
    const std::size_t expect = 3 + space.size() + 7;
    if (cells.size() != expect) {
      // A truncated final line (interrupted mid-write) is skipped; the
      // trial simply re-runs.
      continue;
    }
    Trial t;
    t.rung = static_cast<std::size_t>(std::strtoull(cells[0].c_str(),
                                                    nullptr, 10));
    t.id = std::strtoull(cells[1].c_str(), nullptr, 10);
    t.n_events = static_cast<std::size_t>(std::strtoull(cells[2].c_str(),
                                                        nullptr, 10));
    for (std::size_t i = 0; i < space.size(); ++i) {
      t.params.push_back(parse_double(cells[3 + i]));
    }
    std::size_t c = 3 + space.size();
    t.eval.energy_per_event_j = parse_double(cells[c++]);
    t.eval.err_rms = parse_double(cells[c++]);
    t.eval.delivered = parse_double(cells[c++]);
    t.eval.p99_latency_s = parse_double(cells[c++]);
    t.eval.average_power_w = parse_double(cells[c++]);
    t.eval.events_in = std::strtoull(cells[c++].c_str(), nullptr, 10);
    t.eval.words_out = std::strtoull(cells[c++].c_str(), nullptr, 10);
    rebuild_objectives(t.eval, objectives);
    t.from_checkpoint = true;
    out[{t.rung, t.id}] = std::move(t);
  }
  return out;
}

// --- rung promotion ---------------------------------------------------------

/// Deterministic multi-objective ranking: candidates dominated by fewer
/// rung-mates rank first; ties break on the objective vector, then id.
std::vector<std::uint64_t> promote(const std::vector<Trial>& rung_trials,
                                   std::size_t keep) {
  struct Ranked {
    std::size_t dominated_by;
    const Trial* trial;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(rung_trials.size());
  for (const auto& t : rung_trials) {
    std::size_t count = 0;
    for (const auto& other : rung_trials) {
      if (&other != &t && dominates(other.eval.objectives,
                                    t.eval.objectives)) {
        ++count;
      }
    }
    ranked.push_back({count, &t});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.dominated_by != b.dominated_by) {
                return a.dominated_by < b.dominated_by;
              }
              if (a.trial->eval.objectives != b.trial->eval.objectives) {
                return a.trial->eval.objectives < b.trial->eval.objectives;
              }
              return a.trial->id < b.trial->id;
            });
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < ranked.size() && i < keep; ++i) {
    ids.push_back(ranked[i].trial->id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- artifacts --------------------------------------------------------------

void write_svg(const std::string& path, const OptResult& result,
               const std::vector<Objective>& objectives,
               std::size_t full_n) {
  // Scatter of the first two objectives over all full-length trials, with
  // the front and the baseline called out. Single-objective searches plot
  // trial id on the y axis instead.
  const bool two_d = objectives.size() >= 2;
  struct Dot {
    double x, y;
    int kind;  // 0 = trial, 1 = front, 2 = baseline
  };
  std::vector<Dot> dots;
  for (const auto& t : result.trials) {
    if (t.n_events != full_n) continue;
    const double y = two_d ? t.eval.objectives[1]
                           : static_cast<double>(t.id);
    dots.push_back({t.eval.objectives[0], y, 0});
  }
  for (const auto& p : result.front.points()) {
    const double y = two_d ? p.objectives[1] : static_cast<double>(p.id);
    dots.push_back({p.objectives[0], y, 1});
  }
  dots.push_back({result.baseline.objectives[0],
                  two_d ? result.baseline.objectives[1] : -1.0, 2});

  double x_lo = dots[0].x, x_hi = dots[0].x;
  double y_lo = dots[0].y, y_hi = dots[0].y;
  for (const auto& d : dots) {
    x_lo = std::min(x_lo, d.x);
    x_hi = std::max(x_hi, d.x);
    y_lo = std::min(y_lo, d.y);
    y_hi = std::max(y_hi, d.y);
  }
  if (x_hi == x_lo) x_hi = x_lo + 1.0;
  if (y_hi == y_lo) y_hi = y_lo + 1.0;
  const double W = 640, H = 480, M = 56;
  const auto px = [&](double x) {
    return M + (x - x_lo) / (x_hi - x_lo) * (W - 2 * M);
  };
  const auto py = [&](double y) {
    return H - M - (y - y_lo) / (y_hi - y_lo) * (H - 2 * M);
  };
  std::ofstream os(path);
  if (!os) throw std::runtime_error("opt: cannot write '" + path + "'");
  char buf[256];
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"640\" "
        "height=\"480\" viewBox=\"0 0 640 480\">\n"
        "<rect width=\"640\" height=\"480\" fill=\"white\"/>\n";
  std::snprintf(buf, sizeof buf,
                "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" "
                "fill=\"none\" stroke=\"#888\"/>\n",
                M, M, W - 2 * M, H - 2 * M);
  os << buf;
  os << "<text x=\"320\" y=\"470\" text-anchor=\"middle\" "
        "font-family=\"sans-serif\" font-size=\"13\">"
     << to_string(objectives[0]) << " (min)</text>\n";
  os << "<text x=\"14\" y=\"240\" text-anchor=\"middle\" "
        "font-family=\"sans-serif\" font-size=\"13\" "
        "transform=\"rotate(-90 14 240)\">"
     << (two_d ? to_string(objectives[1]) : "trial id")
     << (two_d ? " (min)" : "") << "</text>\n";
  for (const auto& d : dots) {
    const char* fill = d.kind == 0 ? "#b0b0b0"
                       : d.kind == 1 ? "#d62728"
                                     : "#1f77b4";
    const double r = d.kind == 0 ? 3.5 : 5.0;
    std::snprintf(buf, sizeof buf,
                  "<circle cx=\"%.2f\" cy=\"%.2f\" r=\"%.1f\" "
                  "fill=\"%s\" fill-opacity=\"0.85\"/>\n",
                  px(d.x), py(d.y), r, fill);
    os << buf;
  }
  os << "<text x=\"60\" y=\"44\" font-family=\"sans-serif\" "
        "font-size=\"12\" fill=\"#d62728\">front</text>\n"
        "<text x=\"104\" y=\"44\" font-family=\"sans-serif\" "
        "font-size=\"12\" fill=\"#1f77b4\">default</text>\n"
        "<text x=\"158\" y=\"44\" font-family=\"sans-serif\" "
        "font-size=\"12\" fill=\"#808080\">trials</text>\n"
        "</svg>\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void write_summary_json(const std::string& path, const SearchSpace& space,
                        const OptOptions& opt, const OptResult& result,
                        std::size_t full_n) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("opt: cannot write '" + path + "'");
  os << "{\n";
  os << "  \"strategy\": \"" << to_string(opt.strategy) << "\",\n";
  os << "  \"budget\": " << opt.budget << ",\n";
  os << "  \"seed\": " << opt.seed << ",\n";
  os << "  \"objectives\": [";
  for (std::size_t i = 0; i < opt.objectives.size(); ++i) {
    os << (i ? ", " : "") << '"' << to_string(opt.objectives[i]) << '"';
  }
  os << "],\n";
  os << "  \"workload\": {\"rate_hz\": " << format_double(opt.workload.rate_hz)
     << ", \"n_events\": " << opt.workload.n_events
     << ", \"fault_level\": " << format_double(opt.workload.fault_level)
     << "},\n";
  os << "  \"axes\": [";
  for (std::size_t i = 0; i < space.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(space.axes()[i].key) << '"';
  }
  os << "],\n";
  // Deliberately no wall clocks and no this-process evaluation counts:
  // the summary is a pure function of the search, so an interrupted and
  // resumed run ends with the same bytes as an uninterrupted one.
  os << "  \"trials\": " << result.trials.size() << ",\n";
  os << "  \"baseline\": {\"energy_per_event_j\": "
     << format_double(result.baseline.energy_per_event_j)
     << ", \"err_rms\": " << format_double(result.baseline.err_rms)
     << ", \"delivered\": " << format_double(result.baseline.delivered)
     << ", \"p99_latency_s\": " << format_double(result.baseline.p99_latency_s)
     << "},\n";
  double best_energy = result.baseline.energy_per_event_j;
  for (const auto& t : result.trials) {
    if (t.n_events == full_n &&
        t.eval.energy_per_event_j < best_energy) {
      best_energy = t.eval.energy_per_event_j;
    }
  }
  os << "  \"best_energy_per_event_j\": " << format_double(best_energy)
     << ",\n";
  os << "  \"dominated_baseline\": "
     << (result.dominated_baseline ? "true" : "false") << ",\n";
  os << "  \"hypervolume\": " << format_double(result.hypervolume) << ",\n";
  os << "  \"front\": [\n";
  for (std::size_t i = 0; i < result.front.points().size(); ++i) {
    const auto& p = result.front.points()[i];
    os << "    {\"id\": " << p.id << ", \"params\": [";
    for (std::size_t j = 0; j < p.params.size(); ++j) {
      os << (j ? ", " : "") << format_double(p.params[j]);
    }
    os << "], \"objectives\": [";
    for (std::size_t j = 0; j < p.objectives.size(); ++j) {
      os << (j ? ", " : "") << format_double(p.objectives[j]);
    }
    os << "]}" << (i + 1 < result.front.points().size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

// --- public surface ---------------------------------------------------------

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kFactorial: return "factorial";
    case Strategy::kRandom: return "random";
    case Strategy::kHalving: return "halving";
  }
  return "?";
}

Strategy parse_strategy(const std::string& name) {
  if (name == "factorial") return Strategy::kFactorial;
  if (name == "random") return Strategy::kRandom;
  if (name == "halving") return Strategy::kHalving;
  throw std::runtime_error("opt: unknown strategy '" + name +
                           "' (expected factorial, random, or halving)");
}

OptInterrupted::OptInterrupted(std::size_t evaluations)
    : std::runtime_error("opt: interrupted after " +
                         std::to_string(evaluations) +
                         " evaluations (checkpoint saved; rerun with "
                         "--resume to finish)"),
      evaluations_(evaluations) {}

OptResult optimize(const SearchSpace& space, const core::ScenarioConfig& base,
                   const OptOptions& opt) {
  if (space.axes().empty()) throw std::runtime_error("opt: empty space");
  if (opt.objectives.empty()) {
    throw std::runtime_error("opt: no objectives");
  }
  base.validate();

  const Workload workload = opt.workload;
  const std::size_t full_n = std::max<std::size_t>(workload.n_events, 4);

  const auto say = [&opt](const std::string& line) {
    if (opt.progress) opt.progress(line);
  };

  // Rung plan: (n_events, keep) per rung.
  const auto population = build_population(space, opt, base);
  std::vector<std::pair<std::size_t, std::size_t>> rungs;  // (n, keep)
  if (opt.strategy == Strategy::kHalving) {
    rungs = {{std::max<std::size_t>(full_n / 4, 4),
              (population.size() + 1) / 2},
             {std::max<std::size_t>(full_n / 2, 4),
              (population.size() + 3) / 4},
             {full_n, 0}};
  } else {
    rungs = {{full_n, 0}};
  }
  const std::size_t baseline_rung = rungs.size();  // checkpoint slot

  const std::string checkpoint_path =
      util::artifact_path("aetr_opt_checkpoint.csv", opt.out_dir);
  CheckpointMap cache;
  if (opt.resume) {
    cache = load_checkpoint(checkpoint_path, space, opt.objectives);
    if (!cache.empty()) {
      say("resume: " + std::to_string(cache.size()) +
          " checkpointed evaluations loaded");
    }
  }
  std::ofstream checkpoint(checkpoint_path,
                           opt.resume ? std::ios::app : std::ios::trunc);
  if (!checkpoint) {
    throw std::runtime_error("opt: cannot write '" + checkpoint_path + "'");
  }
  if (!opt.resume || cache.empty()) {
    if (opt.resume) {
      // Resuming with no (or an unreadable) checkpoint: start clean.
      checkpoint.close();
      checkpoint.open(checkpoint_path, std::ios::trunc);
    }
    checkpoint << join_csv(checkpoint_header(space)) << "\n";
    checkpoint.flush();
  }

  OptResult result;
  std::size_t evals_run = 0;

  // Evaluate the given ids at one rung, consulting the checkpoint first.
  // Returns the rung's trials in id order. Throws OptInterrupted when the
  // interrupt_after budget cuts the batch short (completed evaluations are
  // checkpointed first).
  // `stream_rung` picks the stream seed, decoupled from the checkpoint slot
  // `rung` so the baseline can be paired with the final rung's stream.
  const auto run_rung = [&](std::size_t rung, std::vector<std::uint64_t> ids,
                            std::size_t n_events,
                            const std::vector<double>* fixed_params,
                            std::size_t stream_rung) -> std::vector<Trial> {
    std::sort(ids.begin(), ids.end());
    std::vector<Trial> trials;
    std::vector<std::uint64_t> pending;
    for (std::uint64_t id : ids) {
      const auto& params =
          fixed_params != nullptr ? *fixed_params
                                  : population[static_cast<std::size_t>(id)];
      const auto it = cache.find({rung, id});
      if (it != cache.end() && it->second.n_events == n_events) {
        if (it->second.params != params) {
          throw std::runtime_error(
              "opt: checkpoint trial (rung " + std::to_string(rung) +
              ", id " + std::to_string(id) +
              ") has different parameters — it belongs to another "
              "search; delete the checkpoint or drop --resume");
        }
        trials.push_back(it->second);
      } else {
        pending.push_back(id);
      }
    }
    bool interrupted = false;
    if (!pending.empty() && opt.interrupt_after > 0) {
      const std::size_t allowed =
          opt.interrupt_after > evals_run ? opt.interrupt_after - evals_run
                                          : 0;
      if (pending.size() > allowed) {
        pending.resize(allowed);
        interrupted = true;
      }
    }
    if (!pending.empty()) {
      runtime::SweepGrid grid;
      std::vector<double> slots(pending.size());
      for (std::size_t i = 0; i < pending.size(); ++i) {
        slots[i] = static_cast<double>(i);
      }
      grid.axis("slot", slots);
      std::vector<Evaluation> evals(pending.size());
      const std::uint64_t rung_stream = stream_seed(opt.seed, stream_rung);
      runtime::SweepOptions sweep_opt;
      sweep_opt.jobs = opt.jobs;
      sweep_opt.seed = runtime::derive_seed(opt.seed, 0xCE + rung);
      const runtime::JobFn job =
          [&](const runtime::JobContext& ctx) -> runtime::JobOutput {
        const auto slot = static_cast<std::size_t>(ctx.point.at("slot"));
        const std::uint64_t id = pending[slot];
        core::ScenarioConfig sc = base;
        const auto& params =
            fixed_params != nullptr
                ? *fixed_params
                : population[static_cast<std::size_t>(id)];
        space.apply(sc, params);
        if (opt.trace || opt.metrics) {
          telemetry::SessionOptions so;
          const std::string stem = "aetr_opt_r" + std::to_string(rung) +
                                   "_t" + std::to_string(id);
          so.trace = opt.trace;
          so.metrics = opt.metrics;
          if (opt.trace) {
            so.trace_json_path =
                util::artifact_path(stem + "_trace.json", opt.out_dir);
            so.trace_csv_path =
                util::artifact_path(stem + "_trace.csv", opt.out_dir);
          }
          if (opt.metrics) {
            so.metrics_csv_path =
                util::artifact_path(stem + "_metrics.csv", opt.out_dir);
          }
          sc.telemetry = so;
        }
        evals[slot] =
            evaluate(sc, workload, opt.objectives, rung_stream, n_events);
        return {};
      };
      (void)runtime::run_sweep(grid, job, sweep_opt, nullptr);
      for (std::size_t i = 0; i < pending.size(); ++i) {
        Trial t;
        t.id = pending[i];
        t.rung = rung;
        t.n_events = n_events;
        t.params = fixed_params != nullptr
                       ? *fixed_params
                       : population[static_cast<std::size_t>(pending[i])];
        t.eval = std::move(evals[i]);
        checkpoint << join_csv(checkpoint_row(t, space)) << "\n";
        cache[{rung, t.id}] = t;
        trials.push_back(std::move(t));
      }
      checkpoint.flush();
      evals_run += pending.size();
    }
    if (interrupted) throw OptInterrupted(evals_run);
    std::sort(trials.begin(), trials.end(),
              [](const Trial& a, const Trial& b) { return a.id < b.id; });
    return trials;
  };

  // --- the search ---
  std::vector<std::uint64_t> active;
  active.reserve(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    active.push_back(static_cast<std::uint64_t>(i));
  }
  for (std::size_t r = 0; r < rungs.size(); ++r) {
    const auto [n_events, keep] = rungs[r];
    say("rung " + std::to_string(r + 1) + "/" +
        std::to_string(rungs.size()) + ": " +
        std::to_string(active.size()) + " trials x " +
        std::to_string(n_events) + " events");
    auto rung_trials = run_rung(r, active, n_events, nullptr, r);
    if (keep > 0 && keep < rung_trials.size()) {
      active = promote(rung_trials, keep);
    }
    for (auto& t : rung_trials) result.trials.push_back(std::move(t));
  }

  // --- baseline (paired with the final rung's stream) ---
  result.baseline_params = default_params(space, base);
  {
    // Paired with the final rung's stream: the dominance verdict compares
    // candidate and default on the same spikes.
    auto baseline_trials = run_rung(baseline_rung, {0}, full_n,
                                    &result.baseline_params,
                                    rungs.size() - 1);
    result.baseline = baseline_trials.front().eval;
  }
  result.evaluations_run = evals_run;

  // --- front over full-length evaluations ---
  for (const auto& t : result.trials) {
    if (t.n_events != full_n) continue;
    result.front.add({t.id, t.params, t.eval.objectives});
  }
  result.dominated_baseline =
      result.front.contains_dominator_of(result.baseline.objectives);

  // Hypervolume reference: 1.1x the componentwise worst of front+baseline.
  result.reference.assign(opt.objectives.size(), 0.0);
  for (std::size_t i = 0; i < opt.objectives.size(); ++i) {
    double worst = result.baseline.objectives[i];
    for (const auto& p : result.front.points()) {
      worst = std::max(worst, p.objectives[i]);
    }
    result.reference[i] = worst > 0.0 ? 1.1 * worst : 1e-12;
  }
  result.hypervolume = result.front.hypervolume(result.reference);

  // --- artifacts (always regenerated in full, so an interrupted+resumed
  // run ends with byte-identical outputs) ---
  const std::string trials_path =
      util::artifact_path("aetr_opt_trials.csv", opt.out_dir);
  {
    std::ofstream os(trials_path);
    if (!os) throw std::runtime_error("opt: cannot write trials CSV");
    runtime::Row header{"rung", "id", "n_events"};
    for (const auto& axis : space.axes()) {
      header.push_back("param:" + axis.key);
    }
    for (Objective o : opt.objectives) {
      header.push_back(std::string("obj:") + to_string(o));
    }
    header.insert(header.end(), {"energy_per_event_j", "err_rms",
                                 "delivered", "p99_latency_s", "power_w"});
    os << join_csv(header) << "\n";
    for (const auto& t : result.trials) {
      runtime::Row row{std::to_string(t.rung), fmt_u64(t.id),
                       std::to_string(t.n_events)};
      for (double v : t.params) row.push_back(format_double(v));
      for (double v : t.eval.objectives) row.push_back(format_double(v));
      row.push_back(format_double(t.eval.energy_per_event_j));
      row.push_back(format_double(t.eval.err_rms));
      row.push_back(format_double(t.eval.delivered));
      row.push_back(format_double(t.eval.p99_latency_s));
      row.push_back(format_double(t.eval.average_power_w));
      os << join_csv(row) << "\n";
    }
  }
  result.artifacts.push_back(trials_path);

  const std::string pareto_path =
      util::artifact_path("aetr_opt_pareto.csv", opt.out_dir);
  {
    std::ofstream os(pareto_path);
    if (!os) throw std::runtime_error("opt: cannot write pareto CSV");
    runtime::Row header{"id"};
    for (const auto& axis : space.axes()) {
      header.push_back("param:" + axis.key);
    }
    for (Objective o : opt.objectives) {
      header.push_back(std::string("obj:") + to_string(o));
    }
    os << join_csv(header) << "\n";
    for (const auto& p : result.front.points()) {
      runtime::Row row{fmt_u64(p.id)};
      for (double v : p.params) row.push_back(format_double(v));
      for (double v : p.objectives) row.push_back(format_double(v));
      os << join_csv(row) << "\n";
    }
  }
  result.artifacts.push_back(pareto_path);

  const std::string svg_path =
      util::artifact_path("aetr_opt_pareto.svg", opt.out_dir);
  write_svg(svg_path, result, opt.objectives, full_n);
  result.artifacts.push_back(svg_path);

  const std::string summary_path =
      util::artifact_path("aetr_opt_summary.json", opt.out_dir);
  write_summary_json(summary_path, space, opt, result, full_n);
  result.artifacts.push_back(summary_path);

  say("front: " + std::to_string(result.front.size()) + " points, " +
      std::string(result.dominated_baseline ? "dominates" : "does not "
                                                            "dominate") +
      " the default config");
  return result;
}

}  // namespace aetr::opt
