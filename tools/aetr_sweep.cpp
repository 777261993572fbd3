// aetr-sweep — unified sweep driver for the figure/ablation reproductions
// and the design-space optimizer.
//
//   aetr-sweep <figure>|all
//              [--jobs N] [--seed S] [--out DIR] [--quick]
//              [--trace] [--metrics] [--ledger] [--quiet]
//
// <figure> is any entry of the sweeps::figures() registry; `aetr-sweep
// list` prints them, and `all` runs every one, so one command exercises
// each of them.
//   aetr-sweep opt [--strategy factorial|random|halving] [--budget N]
//              [--objectives energy,error[,loss,latency]] [--space FILE]
//              [--events N] [--rate HZ] [--fault-level X] [--resume]
//              [--interrupt-after N] [common options]
//   aetr-sweep report [--in DIR] [--out DIR]
//   aetr-sweep list
//
// Runs the selected figure's parameter grid on the work-stealing runtime
// (src/runtime), prints the paper-style table plus self-checks, and writes
// the CSV series under --out (default results/, or $AETR_OUT). Output files
// are byte-identical for any --jobs value; see docs/RUNTIME.md for the
// determinism contract, and docs/OPTIMIZER.md for the `opt` subcommand.
//
// Exit codes: 0 = all checks passed, 1 = a check failed, 2 = usage error,
// 3 = a sweep job threw, 4 = optimizer interrupted (--interrupt-after).
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "opt/optimizer.hpp"
#include "runtime/sweep.hpp"
#include "sweeps/figures.hpp"
#include "telemetry/telemetry.hpp"
#include "util/artifacts.hpp"

namespace {

struct CliOptions {
  std::vector<std::string> figures;
  aetr::sweeps::FigureOptions fig;
  bool quiet = false;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end) return false;
  out = v;
  return true;
}

bool parse_f64(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end) return false;
  out = v;
  return true;
}

int usage(std::ostream& os) {
  os << "usage: aetr-sweep <figure>|all|opt|list [options]\n\nfigures:\n";
  for (const auto& d : aetr::sweeps::figures()) {
    os << "  " << d.name << "\n      " << d.summary << "\n";
  }
  os << "  opt\n      multi-objective design-space search over "
        "ScenarioConfig (docs/OPTIMIZER.md)\n";
  os << "  report\n      render observability artifacts (ledgers, metrics, "
        "stacks) into one\n      self-contained HTML dashboard "
        "(docs/OBSERVABILITY.md)\n";
  os << "\noptions:\n"
        "  --jobs N       worker threads (default: hardware concurrency)\n"
        "  --seed S       root seed (default: per-figure)\n"
        "  --out DIR      output directory (default: results/ or $AETR_OUT)\n"
        "  --quick        reduced grid; paper checks skipped, consistency\n"
        "                 checks still run\n"
        "  --trace        per-job Chrome trace JSON + CSV (DES figures:\n"
        "                 fig8, ablation-agreement; see docs/OBSERVABILITY.md)\n"
        "  --metrics      per-job sampled-metrics CSV (same figures)\n"
        "  --ledger       per-job energy-attribution ledger CSV + collapsed\n"
        "                 stack (fig8); fleet health roll-up (fleet)\n"
        "  --quiet        suppress tables and progress\n"
        "\nopt options:\n"
        "  --strategy S          factorial | random | halving (default)\n"
        "  --budget N            trials (halving population / random count)\n"
        "  --objectives LIST     energy,error[,loss,latency] (minimised)\n"
        "  --space FILE          search-space file (default: built-in)\n"
        "  --events N            full workload length (default 4000;\n"
        "                        --quick drops it to 2000)\n"
        "  --rate HZ             workload event rate, > 0 (default 50e3)\n"
        "  --fault-level X       robust mode: scaled_plan(X) per trial,\n"
        "                        X in [0, 1]\n"
        "  --resume              continue from aetr_opt_checkpoint.csv\n"
        "  --interrupt-after N   stop (exit 4) after N evaluations\n"
        "\nreport options:\n"
        "  --in DIR       artifact directory to render (default: the same\n"
        "                 results/ or $AETR_OUT directory sweeps write to)\n"
        "  --out DIR      where aetr_report.html goes (default: --in)\n";
  return 2;
}

int run_opt(int argc, char** argv, bool* usage_error) {
  aetr::opt::OptOptions opt;
  std::string space_file;
  bool quick = false;
  bool quiet = false;
  std::size_t events = 0;
  const auto bad = [usage_error] {  // a usage error: exit 2 with usage
    *usage_error = true;
    return 2;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "aetr-sweep: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--jobs") {
        std::uint64_t v = 0;
        const char* s = next();
        if (!s || !parse_u64(s, v)) return bad();
        opt.jobs = static_cast<std::size_t>(v);
      } else if (arg == "--seed") {
        std::uint64_t v = 0;
        const char* s = next();
        if (!s || !parse_u64(s, v)) return bad();
        opt.seed = v;
      } else if (arg == "--out") {
        const char* s = next();
        if (!s) return bad();
        opt.out_dir = s;
      } else if (arg == "--strategy") {
        const char* s = next();
        if (!s) return bad();
        opt.strategy = aetr::opt::parse_strategy(s);
      } else if (arg == "--budget") {
        std::uint64_t v = 0;
        const char* s = next();
        if (!s || !parse_u64(s, v) || v == 0) return bad();
        opt.budget = static_cast<std::size_t>(v);
      } else if (arg == "--objectives") {
        const char* s = next();
        if (!s) return bad();
        opt.objectives = aetr::opt::parse_objectives(s);
      } else if (arg == "--space") {
        const char* s = next();
        if (!s) return bad();
        space_file = s;
      } else if (arg == "--events") {
        std::uint64_t v = 0;
        const char* s = next();
        if (!s || !parse_u64(s, v) || v == 0) return bad();
        events = static_cast<std::size_t>(v);
      } else if (arg == "--rate") {
        const char* s = next();
        double& rate = opt.workload.rate_hz;
        if (!s || !parse_f64(s, rate) || !(rate > 0.0) ||
            !std::isfinite(rate)) {
          std::cerr << "aetr-sweep: --rate needs a finite number > 0\n";
          return bad();
        }
      } else if (arg == "--fault-level") {
        const char* s = next();
        double& level = opt.workload.fault_level;
        if (!s || !parse_f64(s, level) || !(level >= 0.0 && level <= 1.0)) {
          std::cerr << "aetr-sweep: --fault-level needs a number in [0, 1]\n";
          return bad();
        }
      } else if (arg == "--resume") {
        opt.resume = true;
      } else if (arg == "--interrupt-after") {
        std::uint64_t v = 0;
        const char* s = next();
        if (!s || !parse_u64(s, v)) return bad();
        opt.interrupt_after = static_cast<std::size_t>(v);
      } else if (arg == "--quick") {
        quick = true;
      } else if (arg == "--trace") {
        opt.trace = true;
      } else if (arg == "--metrics") {
        opt.metrics = true;
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        std::cerr << "aetr-sweep: unknown option '" << arg << "'\n";
        return bad();
      }
    } catch (const std::exception& e) {
      std::cerr << "aetr-sweep: " << e.what() << "\n";
      return 2;
    }
  }
  if (quick) {
    opt.workload.n_events = 2000;
    if (opt.budget > 16) opt.budget = 16;
  }
  if (events != 0) opt.workload.n_events = events;
  if (!quiet) {
    opt.progress = [](const std::string& line) {
      std::fprintf(stderr, "opt: %s\n", line.c_str());
    };
  }

  try {
    const aetr::opt::SearchSpace space =
        space_file.empty() ? aetr::opt::SearchSpace::default_space()
                           : aetr::opt::SearchSpace::parse_file(space_file);
    // The paper-default scenario is the base of every trial.
    const auto result = aetr::opt::optimize(space, {}, opt);
    if (!quiet) {
      std::printf("== opt — %s, budget %zu, %zu evaluations run ==\n",
                  aetr::opt::to_string(opt.strategy), opt.budget,
                  result.evaluations_run);
      std::printf("front: %zu points, hypervolume %.6g\n",
                  result.front.size(), result.hypervolume);
      std::printf("baseline energy/event: %.6g J, err RMS: %.6g\n",
                  result.baseline.energy_per_event_j,
                  result.baseline.err_rms);
      std::printf("front %s the paper-default configuration\n",
                  result.dominated_baseline ? "strictly dominates"
                                            : "does NOT dominate");
      for (const auto& a : result.artifacts) {
        std::printf("wrote %s\n", a.c_str());
      }
    }
    return 0;
  } catch (const aetr::opt::OptInterrupted& e) {
    std::cerr << "aetr-sweep: " << e.what() << "\n";
    return 4;
  } catch (const aetr::runtime::SweepError& e) {
    std::cerr << "aetr-sweep: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "aetr-sweep: " << e.what() << "\n";
    return 2;
  }
}

int run_report(int argc, char** argv, bool* usage_error) {
  std::string in_dir;
  std::string out_dir;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "aetr-sweep: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--in") {
      const char* s = next();
      if (!s) { *usage_error = true; return 2; }
      in_dir = s;
    } else if (arg == "--out") {
      const char* s = next();
      if (!s) { *usage_error = true; return 2; }
      out_dir = s;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "aetr-sweep: unknown option '" << arg << "'\n";
      *usage_error = true;
      return 2;
    }
  }
  if (in_dir.empty()) in_dir = aetr::util::artifact_dir();
  if (out_dir.empty()) out_dir = in_dir;
  try {
    const auto summary = aetr::obs::render_report(in_dir, out_dir);
    if (!quiet) {
      std::printf("report: %zu ledgers, %zu stacks, %zu metrics CSVs, "
                  "%zu health CSVs -> %s\n",
                  summary.ledgers, summary.stacks, summary.metrics,
                  summary.health, summary.out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "aetr-sweep: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (argc < 2) return usage(std::cerr);

  const std::string cmd = argv[1];
  if (cmd == "list" || cmd == "--help" || cmd == "-h") {
    usage(std::cout);
    return 0;
  }
  if (cmd == "opt") {
    bool usage_error = false;
    const int rc = run_opt(argc, argv, &usage_error);
    if (usage_error) return usage(std::cerr);
    return rc;
  }
  if (cmd == "report") {
    bool usage_error = false;
    const int rc = run_report(argc, argv, &usage_error);
    if (usage_error) return usage(std::cerr);
    return rc;
  }
  if (cmd == "all") {
    for (const auto& d : aetr::sweeps::figures()) cli.figures.push_back(d.name);
  } else if (aetr::sweeps::find_figure(cmd)) {
    cli.figures.push_back(cmd);
  } else {
    std::cerr << "aetr-sweep: unknown figure '" << cmd << "'\n\n";
    return usage(std::cerr);
  }

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "aetr-sweep: " << arg << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      std::uint64_t v = 0;
      const char* s = next();
      if (!s || !parse_u64(s, v)) return usage(std::cerr);
      cli.fig.jobs = static_cast<std::size_t>(v);
    } else if (arg == "--seed") {
      std::uint64_t v = 0;
      const char* s = next();
      if (!s || !parse_u64(s, v)) return usage(std::cerr);
      cli.fig.seed = v;
    } else if (arg == "--out") {
      const char* s = next();
      if (!s) return usage(std::cerr);
      cli.fig.out_dir = s;
    } else if (arg == "--quick") {
      cli.fig.quick = true;
    } else if (arg == "--trace") {
      cli.fig.trace = true;
    } else if (arg == "--metrics") {
      cli.fig.metrics = true;
    } else if (arg == "--ledger") {
      cli.fig.ledger = true;
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else {
      std::cerr << "aetr-sweep: unknown option '" << arg << "'\n\n";
      return usage(std::cerr);
    }
  }

  if ((cli.fig.trace || cli.fig.metrics) && !aetr::telemetry::compiled_in()) {
    std::cerr << "aetr-sweep: built with AETR_TELEMETRY=0; "
                 "--trace/--metrics are ignored\n";
  }

  const bool show_progress = !cli.quiet && isatty(fileno(stderr));
  int exit_code = 0;

  for (const auto& name : cli.figures) {
    const auto* def = aetr::sweeps::find_figure(name);
    aetr::sweeps::FigureOptions opt = cli.fig;
    if (show_progress) {
      opt.progress = [&name](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\r%s: %zu/%zu", name.c_str(), done, total);
        if (done == total) std::fprintf(stderr, "\n");
      };
    }
    try {
      const auto result = def->run(opt);
      if (!cli.quiet) {
        std::printf("== %s — %s ==\n", def->name, def->summary);
        const int rc = aetr::sweeps::report_figure(result, std::cout);
        if (rc != 0) exit_code = 1;
      } else if (!result.ok()) {
        exit_code = 1;
      }
    } catch (const aetr::runtime::SweepError& e) {
      std::cerr << "aetr-sweep: " << e.what() << "\n";
      return 3;
    }
  }
  return exit_code;
}
