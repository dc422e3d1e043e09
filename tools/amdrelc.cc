// amdrelc — command-line driver for the partitioning framework.
//
//   amdrelc analyze   <file.mc> [options]   Table-1 style kernel analysis
//   amdrelc partition <file.mc> [options]   run the full methodology
//   amdrelc explore   [file.mc] [options]   platform-grid x corpus x
//                                           constraint x strategy x
//                                           ordering design-space sweep
//   amdrelc serve     [file.mc] [options]   the same sweep, distributed
//                                           across workers — forked
//                                           `amdrelc worker` processes
//                                           (default) or, with --listen,
//                                           TCP dial-ins from other
//                                           hosts; output byte-identical
//                                           to explore
//   amdrelc worker    [file.mc] [options]   one serve worker: serves
//                                           the wire round protocol on
//                                           stdin/stdout (as forked by
//                                           serve) or, with --connect,
//                                           over a socket to a
//                                           listening coordinator
//   amdrelc dump-tac  <file.mc> [options]   lowered three-address code
//   amdrelc dump-dot  <file.mc> [options]   CDFG in Graphviz DOT
//
// Options are declared once in kOptions below — name, arity, validating
// apply function and help text — and parsed by one loop shared by every
// subcommand; usage() renders its help from the same table. Malformed
// values are usage errors (exit 2) that name the offending flag. A flag
// that belongs to some commands (OptionSpec::commands) is a flag-named
// usage error on any other, so a sweep flag given to partition or
// analyze fails instead of being ignored; the remaining cross-flag
// rules are checked at the end of parse_args.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/kernels.h"
#include "core/energy.h"
#include "core/explorer.h"
#include "core/methodology.h"
#include "core/report.h"
#include "core/strategy.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "core/sweep_service.h"
#include "core/transport.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "ir/dot.h"
#include "minic/frontend.h"
#include "minic/optimizer.h"
#include "support/error.h"
#include "support/net.h"
#include "support/strings.h"
#include "workloads/minic_sources.h"
#include "workloads/paper_models.h"

using namespace amdrel;

namespace {

struct Options {
  std::string command;
  std::string file;
  double area = 1500;
  int cgcs = 2;
  std::optional<std::int64_t> constraint;
  std::optional<core::StrategyKind> strategy;
  std::optional<core::KernelOrdering> ordering;
  std::optional<core::ObjectiveKind> objective;
  std::optional<double> energy_budget;
  std::optional<double> timing_weight;
  std::optional<double> energy_weight;
  std::optional<double> reconfig_latency;
  std::optional<double> prefetch_overlap;
  std::optional<double> floorplan_cost;
  std::uint64_t seed = 1;
  bool optimize = false;
  int top = 10;
  std::vector<std::pair<std::string, std::vector<std::int32_t>>> inputs;

  // explore sweep lists (empty = the documented defaults)
  std::vector<std::int64_t> constraints;
  std::vector<double> energy_budgets;
  std::vector<core::StrategyKind> strategies;
  std::vector<core::KernelOrdering> orderings;
  std::optional<core::PlatformGrid> grid;
  std::vector<std::string> corpus;
  std::string json_path;
  std::string csv_path;
  std::string cache_path;
  std::string cache_stats_path;
  int threads = 2;

  // serve / worker (the distributed split of explore)
  std::optional<int> workers;
  std::string listen_spec;               ///< serve --listen HOST:PORT
  std::string connect_spec;              ///< worker --connect HOST:PORT
  std::string stream_partial_path;       ///< serve --stream-partial PATH
  std::optional<int> worker_timeout_ms;  ///< serve --worker-timeout, in ms
  std::optional<int> max_retries;        ///< serve --max-retries N
  std::optional<int> fail_after_shards;  ///< worker --fail-after-shards N
};

[[noreturn]] void usage();

/// Usage error attributable to one flag: names the flag and the problem
/// before the generic usage text, so `--objective garbage` fails with a
/// message the user can act on (and the negative CLI tests grep for).
[[noreturn]] void usage_error(const std::string& flag,
                              const std::string& why) {
  std::fprintf(stderr, "amdrelc: %s for %s\n", why.c_str(), flag.c_str());
  usage();
}

// Malformed numeric flag values are usage errors naming the offending
// flag, matching how unknown strategy/ordering names are handled. The
// whole token must parse: std::sto* skip leading blanks and stop at the
// first character they cannot use, so "12abc" would read as 12 and
// "2.9" as an int 2, and std::stoull wraps "-1" to 2^64 - 1.
template <class Parse>
auto parse_number(const std::string& text, const std::string& flag,
                  Parse parse) {
  std::size_t used = 0;
  try {
    if (!text.empty() && !std::isspace(static_cast<unsigned char>(text[0]))) {
      const auto value = parse(text, &used);
      if (used == text.size()) return value;
    }
  } catch (const std::exception&) {
    // std::invalid_argument or std::out_of_range: reported below.
  }
  usage_error(flag, "malformed numeric value '" + text + "'");
}

std::int64_t parse_i64(const std::string& text, const std::string& flag) {
  return parse_number(text, flag, [](const std::string& t, std::size_t* n) {
    return static_cast<std::int64_t>(std::stoll(t, n));
  });
}

std::uint64_t parse_u64(const std::string& text, const std::string& flag) {
  if (!text.empty() && text[0] == '-') {
    usage_error(flag, "negative value '" + text + "'");
  }
  return parse_number(text, flag, [](const std::string& t, std::size_t* n) {
    return static_cast<std::uint64_t>(std::stoull(t, n));
  });
}

int parse_int(const std::string& text, const std::string& flag) {
  return parse_number(text, flag, [](const std::string& t, std::size_t* n) {
    return std::stoi(t, n);
  });
}

double parse_double(const std::string& text, const std::string& flag) {
  return parse_number(text, flag, [](const std::string& t, std::size_t* n) {
    return std::stod(t, n);
  });
}

// A path-valued flag must not swallow the next flag as its value; the
// classic mistake `--json --csv out.csv` is a usage error naming the
// flag (it got A value, just not a path).
void set_path(std::string& field, const std::string& value,
              const std::string& flag) {
  if (value.empty() || value.rfind("--", 0) == 0) {
    usage_error(flag, "missing output path");
  }
  field = value;
}

void set_host_port(std::string& field, const std::string& value,
                   const std::string& flag) {
  std::string host;
  int port = 0;
  if (!support::net::parse_host_port(value, host, port)) {
    usage_error(flag, "malformed address '" + value +
                          "' (expected HOST:PORT or :PORT)");
  }
  field = value;
}

/// One CLI option: flag name, whether it consumes a value, the
/// validating apply function (which reports problems as flag-named usage
/// errors), the help text usage() renders, and the commands that take
/// the flag, '/'-separated (nullptr = any command); any other command
/// rejects it as a usage error. This table is the entire flag surface —
/// adding an option is one entry, and parse, validation, help and the
/// forked worker's argv can never drift apart.
struct OptionSpec {
  const char* name;
  bool takes_value;
  void (*apply)(Options&, const std::string& value, const std::string& flag);
  const char* help;
  const char* commands = nullptr;
};

/// The sweep family: the commands that build a sweep spec and corpus.
constexpr const char* kSweepCommands = "explore/serve/worker";

bool accepts(const OptionSpec& spec, const std::string& command) {
  if (spec.commands == nullptr) return true;
  const std::vector<std::string> names = split(spec.commands, '/');
  return std::find(names.begin(), names.end(), command) != names.end();
}

const OptionSpec kOptions[] = {
    {"--area", true,
     [](Options& o, const std::string& v, const std::string& f) {
       // Same invariants parse_platform_grid enforces for --grid, so the
       // single-platform fallback path cannot smuggle in a bad platform.
       o.area = parse_double(v, f);
       if (!std::isfinite(o.area) || o.area <= 0) {
         usage_error(f, "area must be positive and finite");
       }
     },
     "usable fine-grain area A_FPGA (default 1500)"},
    {"--cgcs", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.cgcs = parse_int(v, f);
       if (o.cgcs < 1 || o.cgcs > 1024) {
         usage_error(f, "CGC count must be in [1, 1024]");
       }
     },
     "number of 2x2 CGCs (default 2)"},
    {"--constraint", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.constraint = parse_i64(v, f);
       if (*o.constraint < 0) usage_error(f, "constraint must be >= 0");
     },
     "timing constraint in FPGA cycles (default: half of the "
     "all-fine-grain cycles)"},
    {"--strategy", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.strategy = core::parse_strategy(v);
       if (!o.strategy) usage_error(f, "unknown strategy '" + v + "'");
     },
     "partitioning strategy: greedy | exhaustive | annealing "
     "(default greedy)"},
    {"--ordering", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.ordering = core::parse_kernel_ordering(v);
       if (!o.ordering) usage_error(f, "unknown ordering '" + v + "'");
     },
     "kernel ordering: weight | benefit | code | random (default weight)"},
    {"--objective", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.objective = core::parse_objective(v);
       if (!o.objective) usage_error(f, "unknown objective '" + v + "'");
     },
     "cost objective: timing | energy | combined (default timing)"},
    {"--energy-budget", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.energy_budget = parse_double(v, f);
       if (!std::isfinite(*o.energy_budget) || *o.energy_budget < 0) {
         usage_error(f, "energy budget must be >= 0 and finite");
       }
     },
     "energy budget in pJ for the energy/combined objectives (partition "
     "default: half of the all-fine-grain energy; explore default: 0)"},
    {"--timing-weight", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.timing_weight = parse_double(v, f);
       if (!std::isfinite(*o.timing_weight) || *o.timing_weight < 0) {
         usage_error(f, "weight must be >= 0 and finite");
       }
     },
     "combined-objective weight on cycles (default 1)"},
    {"--energy-weight", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.energy_weight = parse_double(v, f);
       if (!std::isfinite(*o.energy_weight) || *o.energy_weight < 0) {
         usage_error(f, "weight must be >= 0 and finite");
       }
     },
     "combined-objective weight on energy (default 1)"},
    {"--reconfig-latency", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.reconfig_latency = parse_double(v, f);
       if (!std::isfinite(*o.reconfig_latency) || *o.reconfig_latency < 0) {
         usage_error(f, "reconfiguration latency must be >= 0 and finite");
       }
     },
     "bitstream load latency in FPGA cycles per op node of a moved "
     "module; 0 disables reconfiguration pricing entirely (default 0)"},
    {"--prefetch-overlap", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.prefetch_overlap = parse_double(v, f);
       if (!std::isfinite(*o.prefetch_overlap) || *o.prefetch_overlap < 0 ||
           *o.prefetch_overlap >= 1) {
         usage_error(f, "prefetch overlap must be in [0, 1)");
       }
     },
     "fraction of each configuration load hidden by prefetch, in [0, 1) "
     "(default 0)"},
    {"--floorplan-cost", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.floorplan_cost = parse_double(v, f);
       if (!std::isfinite(*o.floorplan_cost) || *o.floorplan_cost < 0) {
         usage_error(f, "floorplan cost must be >= 0 and finite");
       }
     },
     "area-cost charge per moved op node, reported beside platform cost "
     "(never added to cycles) (default 0)"},
    {"--seed", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.seed = parse_u64(v, f);
     },
     "seed for random ordering / annealing (default 1)"},
    {"--input", true,
     [](Options& o, const std::string& v, const std::string& f) {
       const std::size_t eq = v.find('=');
       if (eq == std::string::npos) {
         usage_error(f, "expected NAME=v0,v1,...");
       }
       std::vector<std::int32_t> values;
       for (const std::string& item : split(v.substr(eq + 1))) {
         values.push_back(static_cast<std::int32_t>(parse_i64(item, f)));
       }
       o.inputs.emplace_back(v.substr(0, eq), std::move(values));
     },
     "NAME=v0,v1,...: initialize array NAME before profiling"},
    {"--optimize", false,
     [](Options& o, const std::string&, const std::string&) {
       o.optimize = true;
     },
     "run the TAC optimizer before analysis"},
    {"--top", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.top = parse_int(v, f);
       if (o.top < 0) usage_error(f, "row count must be >= 0");
     },
     "rows to print in analyze (default 10)"},
    {"--constraints", true,
     [](Options& o, const std::string& v, const std::string& f) {
       for (const std::string& item : split(v)) {
         const std::int64_t constraint = parse_i64(item, f);
         if (constraint < 0) usage_error(f, "constraints must be >= 0");
         o.constraints.push_back(constraint);
       }
     },
     "c1,c2,... constraint sweep (default: 1/4, 1/2 and 3/4 of each "
     "cell's all-fine-grain cycles)",
     kSweepCommands},
    {"--energy-budgets", true,
     [](Options& o, const std::string& v, const std::string& f) {
       for (const std::string& item : split(v)) {
         const double budget = parse_double(item, f);
         if (!std::isfinite(budget) || budget < 0) {
           usage_error(f, "energy budgets must be >= 0 and finite");
         }
         o.energy_budgets.push_back(budget);
       }
     },
     "b1,b2,... energy-budget axis in pJ (default: the single "
     "--energy-budget value, or 0)",
     kSweepCommands},
    {"--strategies", true,
     [](Options& o, const std::string& v, const std::string& f) {
       for (const std::string& item : split(v)) {
         const auto strategy = core::parse_strategy(item);
         if (!strategy) usage_error(f, "unknown strategy '" + item + "'");
         o.strategies.push_back(*strategy);
       }
     },
     "s1,s2,... strategies to sweep (default: all)", kSweepCommands},
    {"--orderings", true,
     [](Options& o, const std::string& v, const std::string& f) {
       for (const std::string& item : split(v)) {
         const auto ordering = core::parse_kernel_ordering(item);
         if (!ordering) usage_error(f, "unknown ordering '" + item + "'");
         o.orderings.push_back(*ordering);
       }
     },
     "o1,o2,... orderings to sweep (default: weight,benefit)",
     kSweepCommands},
    {"--grid", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.grid = core::parse_platform_grid(v);
       if (!o.grid) usage_error(f, "malformed grid '" + v + "'");
     },
     "platform grid \"a1,a2,...xc1,c2,...\" — A_FPGA values crossed with "
     "CGC counts, e.g. 1500,5000x2,3 (default: one platform from "
     "--area/--cgcs)",
     kSweepCommands},
    {"--corpus", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.corpus = split(v);
       for (const std::string& item : o.corpus) {
         if (item.empty()) usage_error(f, "empty app name");
       }
     },
     "l1,l2,...: sweep these apps as well as (or instead of) the "
     "positional file: built-ins ofdm | jpeg (the paper's calibrated "
     "models), fir | sobel (bundled MiniC sources), or a path to a .mc "
     "file",
     kSweepCommands},
    {"--json", true,
     [](Options& o, const std::string& v, const std::string& f) {
       set_path(o.json_path, v, f);
     },
     "write the sweep as stable-schema JSON to PATH", "explore/serve"},
    {"--csv", true,
     [](Options& o, const std::string& v, const std::string& f) {
       set_path(o.csv_path, v, f);
     },
     "write the sweep as CSV to PATH", "explore/serve"},
    {"--threads", true,
     [](Options& o, const std::string& v, const std::string& f) {
       o.threads = parse_int(v, f);
       if (o.threads < 0) usage_error(f, "thread count must be >= 0");
     },
     "worker threads for the in-process sweep (0 = one per core; "
     "default 2)",
     kSweepCommands},
    {"--cache", true,
     [](Options& o, const std::string& v, const std::string& f) {
       set_path(o.cache_path, v, f);
     },
     "persistent sweep cache: loaded before the sweep (warn-and-"
     "recompute on any validation failure) and saved after it, so "
     "repeated invocations start warm",
     kSweepCommands},
    {"--cache-stats", true,
     [](Options& o, const std::string& v, const std::string& f) {
       set_path(o.cache_stats_path, v, f);
     },
     "write the cache hit/miss counters as JSON (requires an effective "
     "--cache)",
     "explore/worker"},
    {"--workers", true,
     [](Options& o, const std::string& v, const std::string& f) {
       const int workers = parse_int(v, f);
       if (workers < 1 || workers > 512) {
         usage_error(f, "worker count must be in [1, 512]");
       }
       o.workers = workers;
     },
     "worker count — fork fan-out, or with --listen the number of "
     "dial-ins served concurrently; also the batch divisor: an idle worker "
     "takes ceil(queued shards / N) (default 2)",
     "serve"},
    {"--listen", true,
     [](Options& o, const std::string& v, const std::string& f) {
       set_host_port(o.listen_spec, v, f);
     },
     "accept `amdrelc worker --connect` dial-ins on HOST:PORT instead of "
     "forking local workers (port 0 = ephemeral; the bound port is "
     "announced on stderr)",
     "serve"},
    {"--stream-partial", true,
     [](Options& o, const std::string& v, const std::string& f) {
       set_path(o.stream_partial_path, v, f);
     },
     "append finished shards to PATH as schema-v3 NDJSON while the sweep "
     "runs (completion order; the merged artifact stays the deterministic "
     "one)",
     "serve"},
    {"--worker-timeout", true,
     [](Options& o, const std::string& v, const std::string& f) {
       const double seconds = parse_double(v, f);
       if (!std::isfinite(seconds) || seconds < 0) {
         usage_error(f, "timeout must be >= 0 and finite");
       }
       const double ms = seconds * 1000.0;
       if (ms > static_cast<double>(std::numeric_limits<int>::max())) {
         usage_error(f, "timeout must be at most 2147483 seconds");
       }
       // A positive timeout under 1 ms still times out: it must not
       // truncate to 0, which disables the timeout.
       o.worker_timeout_ms = seconds > 0 && ms < 1.0 ? 1 : static_cast<int>(ms);
     },
     "seconds of mid-round silence before a worker is declared dead and "
     "its unfinished shards retried (0 disables; default 300)",
     "serve"},
    {"--max-retries", true,
     [](Options& o, const std::string& v, const std::string& f) {
       const int retries = parse_int(v, f);
       if (retries < 0 || retries > 100) {
         usage_error(f, "retry count must be in [0, 100]");
       }
       o.max_retries = retries;
     },
     "extra assignment attempts allowed per shard after the first before "
     "the run fails (0 disables retry; default 2)",
     "serve"},
    {"--connect", true,
     [](Options& o, const std::string& v, const std::string& f) {
       set_host_port(o.connect_spec, v, f);
     },
     "dial a listening coordinator at HOST:PORT (empty host = loopback) "
     "and serve assignment rounds over the socket instead of on "
     "stdin/stdout",
     "worker"},
    {"--fail-after-shards", true,
     [](Options& o, const std::string& v, const std::string& f) {
       const int count = parse_int(v, f);
       if (count < 1) usage_error(f, "shard count must be >= 1");
       o.fail_after_shards = count;
     },
     "raise SIGKILL after emitting N shards — deterministic fault "
     "injection for the serve retry tests",
     "worker"},
};

const OptionSpec* find_option(const std::string& name) {
  for (const OptionSpec& spec : kOptions) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

[[noreturn]] void usage() {
  std::string text =
      "usage: amdrelc "
      "<analyze|partition|explore|serve|worker|dump-tac|dump-dot> "
      "<file.mc> [options]\n"
      "options:\n";
  for (const OptionSpec& spec : kOptions) {
    text += "  ";
    text += spec.name;
    if (spec.takes_value) text += " <value>";
    text += "\n      ";
    if (spec.commands != nullptr) {
      text += spec.commands;
      text += " only: ";
    }
    text += spec.help;
    text += '\n';
  }
  text +=
      "(explore/serve/worker accept --corpus in place of the positional "
      "file; serve forks `amdrelc worker` processes that speak the wire "
      "protocol on stdin/stdout — or, with --listen, accepts `worker "
      "--connect` dial-ins — and its sweep output is byte-identical to "
      "explore)\n";
  std::fprintf(stderr, "%s", text.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  if (argc < 3) usage();
  Options options;
  options.command = argv[1];
  // The positional file may be omitted when a later flag provides the
  // work (explore --corpus); anything starting with '-' is a flag.
  int first_flag = 2;
  if (argv[2][0] != '-') {
    options.file = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const OptionSpec* spec = find_option(arg)) {
      std::string value;
      if (spec->takes_value) {
        if (++i >= argc) usage_error(arg, "missing value");
        value = argv[i];
      }
      if (!accepts(*spec, options.command)) {
        usage_error(arg, cat("wrong command `", options.command, "` (",
                             spec->commands, " only)"));
      }
      spec->apply(options, value, arg);
    } else {
      usage();
    }
  }
  const bool sweep_command = options.command == "explore" ||
                             options.command == "serve" ||
                             options.command == "worker";
  // Every command needs a source file except the sweep family, which may
  // draw its whole corpus from --corpus.
  if (options.file.empty() && !(sweep_command && !options.corpus.empty())) {
    usage();
  }
  // --cache-stats reports on a cache that actually ran; without one the
  // counters would be an all-zero file indistinguishable from a broken
  // cache, so asking for stats without --cache is a usage error.
  if (!options.cache_stats_path.empty() && options.cache_path.empty()) {
    usage_error("--cache-stats", "requires --cache");
  }
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open ", path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct CompiledApp {
  ir::Cdfg cdfg{"app"};
  ir::ProfileData profile;
};

constexpr std::uint64_t kProfileBudget = 4'000'000'000ULL;

// The dynamic-analysis pipeline behind both the positional file and
// compiled --corpus entries: optional optimizer pass, CDFG construction,
// profiling interpreter run. The CDFG is built first so the program can
// move into the interpreter instead of being copied. --input arrays only
// apply to the positional file (apply_inputs) — corpus entries profile on
// zero-initialized inputs, since they need not share array names.
CompiledApp profile_tac(ir::TacProgram tac, const Options& options,
                        const std::string& label, bool apply_inputs) {
  if (options.optimize) {
    const int rewrites = minic::optimize(tac);
    std::fprintf(stderr, "optimizer(%s): %d rewrites\n", label.c_str(),
                 rewrites);
  }
  CompiledApp app;
  app.cdfg = ir::build_cdfg(tac);
  interp::Interpreter interp(std::move(tac));
  if (apply_inputs) {
    for (const auto& [name, values] : options.inputs) {
      interp.set_input(name, values);
    }
  }
  auto run = interp.run(kProfileBudget);
  std::fprintf(stderr,
               "profiled %s: %llu instructions, main returned %d\n",
               label.c_str(),
               static_cast<unsigned long long>(run.instructions_executed),
               run.return_value);
  app.profile = std::move(run.profile);
  return app;
}

CompiledApp compile_and_profile(const Options& options) {
  return profile_tac(minic::compile(read_file(options.file), options.file),
                     options, options.file, /*apply_inputs=*/true);
}

int cmd_analyze(const Options& options) {
  const CompiledApp app = compile_and_profile(options);
  const auto kernels = analysis::extract_kernels(app.cdfg, app.profile);
  core::TextTable table(
      {"rank", "block", "exec freq", "op weight", "total weight", "depth"});
  for (std::size_t i = 0; i < kernels.size() &&
                          i < static_cast<std::size_t>(options.top);
       ++i) {
    const auto& k = kernels[i];
    table.add_row({std::to_string(i + 1), app.cdfg.block(k.block).name,
                   std::to_string(k.exec_freq), std::to_string(k.op_weight),
                   core::with_thousands(k.total_weight),
                   std::to_string(k.loop_depth)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

core::MethodologyOptions methodology_options(const Options& options) {
  core::MethodologyOptions mo;
  mo.strategy = options.strategy.value_or(core::StrategyKind::kGreedyPaper);
  mo.ordering =
      options.ordering.value_or(core::KernelOrdering::kWeightDescending);
  mo.cost.objective.kind =
      options.objective.value_or(core::ObjectiveKind::kTiming);
  mo.cost.energy_budget_pj = options.energy_budget.value_or(0.0);
  mo.cost.reconfig.bitstream_cycles_per_unit =
      options.reconfig_latency.value_or(0.0);
  mo.cost.reconfig.prefetch_overlap = options.prefetch_overlap.value_or(0.0);
  mo.cost.reconfig.floorplan_cost_per_unit =
      options.floorplan_cost.value_or(0.0);
  if (options.timing_weight) {
    mo.cost.objective.cycle_weight = *options.timing_weight;
  }
  if (options.energy_weight) {
    mo.cost.objective.energy_weight = *options.energy_weight;
  }
  mo.random_seed = options.seed;
  return mo;
}

int cmd_partition(const Options& options) {
  const CompiledApp app = compile_and_profile(options);
  const auto p = platform::make_paper_platform(options.area, options.cgcs);
  core::HybridMapper mapper(app.cdfg, p);
  const std::int64_t all_fine = mapper.all_fine_cycles(app.profile);
  const std::int64_t constraint = options.constraint.value_or(all_fine / 2);
  core::MethodologyOptions mo = methodology_options(options);
  if (mo.cost.objective.needs_energy() && !options.energy_budget) {
    // Mirror the timing default (half of all-fine cycles): without an
    // explicit budget, ask for half of the all-fine-grain energy.
    mo.cost.energy_budget_pj =
        core::estimate_energy(mapper, app.profile, {},
                              mo.cost.objective.energy)
            .total_pj() *
        0.5;
  }
  const auto report =
      core::run_methodology(mapper, app.profile, constraint, mo);
  std::fprintf(stderr, "strategy: %s, ordering: %s, objective: %s\n",
               core::strategy_name(mo.strategy),
               core::kernel_ordering_name(mo.ordering),
               core::objective_name(mo.cost.objective.kind));
  std::printf("%s", core::describe(report, app.cdfg).c_str());
  return report.met ? 0 : 1;
}

// Resolves one --corpus entry: the paper's calibrated models by name,
// the bundled MiniC sources (profiled through the interpreter on
// zero-initialized inputs), or a path to a MiniC file. Unknown names are
// usage errors, like unknown --strategy values.
core::CorpusApp corpus_app(const std::string& name, const Options& options) {
  core::CorpusApp app;
  app.name = name;
  if (name == "ofdm" || name == "jpeg") {
    workloads::PaperApp model = name == "ofdm"
                                    ? workloads::build_ofdm_model()
                                    : workloads::build_jpeg_model();
    app.cdfg = std::move(model.cdfg);
    app.profile = std::move(model.profile);
    return app;
  }
  std::string source;
  if (name == "fir") {
    source = workloads::fir_source();
  } else if (name == "sobel") {
    source = workloads::sobel_source();
  } else if (name.find('.') != std::string::npos ||
             name.find('/') != std::string::npos) {
    source = read_file(name);
  } else {
    usage_error("--corpus", "unknown app '" + name + "'");
  }
  CompiledApp compiled = profile_tac(minic::compile(source, name), options,
                                     name, /*apply_inputs=*/false);
  app.profile = std::move(compiled.profile);
  app.cdfg = std::move(compiled.cdfg);
  return app;
}

void write_output_file(const std::string& path, const std::string& content,
                       const char* what) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();  // surface ENOSPC-style errors before the good() check
  require(out.good(), "cannot write ", path);
  std::fprintf(stderr, "wrote sweep %s to %s\n", what, path.c_str());
}

// The corpus of a sweep-family command (explore/serve/worker): the
// positional file plus every --corpus entry. Duplicate app names are a
// spec mistake, caught here as a usage error (exit 2) like every other
// malformed sweep flag; the library's own require() guard stays as the
// API-level backstop.
std::vector<core::CorpusApp> build_corpus(const Options& options) {
  std::vector<core::CorpusApp> corpus;
  if (!options.file.empty()) {
    CompiledApp app = compile_and_profile(options);
    core::CorpusApp entry;
    entry.name = options.file;
    entry.cdfg = std::move(app.cdfg);
    entry.profile = std::move(app.profile);
    corpus.push_back(std::move(entry));
  }
  for (const std::string& name : options.corpus) {
    corpus.push_back(corpus_app(name, options));
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (std::size_t j = i + 1; j < corpus.size(); ++j) {
      if (corpus[i].name == corpus[j].name) {
        usage_error("--corpus", "duplicate app name '" + corpus[i].name + "'");
      }
    }
  }
  return corpus;
}

// The sweep grid from the flags, identically for explore, serve and
// every worker — the distributed split only partitions WORK; a
// divergence in flag interpretation here would break serve's
// byte-identity with explore.
// Plural flags win; a singular --constraint/--strategy/--ordering
// narrows the sweep to that one value rather than being ignored, and
// --area/--cgcs define the single-platform grid when --grid is absent.
core::SweepSpec build_sweep_spec(const Options& options) {
  core::SweepSpec spec;
  spec.grid = options.grid.value_or(
      core::PlatformGrid{{options.area}, {options.cgcs}});
  spec.base = methodology_options(options);
  spec.threads = options.threads;
  spec.constraints = options.constraints;  // empty = per-cell defaults
  if (spec.constraints.empty() && options.constraint) {
    spec.constraints = {*options.constraint};
  }
  // The energy axis: an explicit --energy-budgets list, else the single
  // --energy-budget already in spec.base (0 when neither is given).
  spec.energy_budgets = options.energy_budgets;
  if (!options.strategies.empty()) {
    spec.strategies = options.strategies;
  } else if (options.strategy) {
    spec.strategies = {*options.strategy};
  }
  if (!options.orderings.empty()) {
    spec.orderings = options.orderings;
  } else if (options.ordering) {
    spec.orderings = {*options.ordering};
  } else {
    spec.orderings = {core::KernelOrdering::kWeightDescending,
                      core::KernelOrdering::kBenefitDescending};
  }
  return spec;
}

// The persistent cache warms repeated invocations. Every load-side
// failure (missing file, corrupt line, schema/fingerprint version
// mismatch) degrades to a cold run with a warning — the cache can cost
// a recompute, never a wrong result. A missing file is the normal
// first-run case and warns with a gentler message. Returns whether the
// cache is in use (the caller wires it into the spec and saves after).
bool setup_cache(const Options& options, core::SweepCache& cache) {
  if (options.cache_path.empty()) return false;
  if (!std::ifstream(options.cache_path).good()) {
    std::fprintf(stderr, "cache: %s not found, starting cold\n",
                 options.cache_path.c_str());
  } else {
    std::string error;
    if (cache.load(options.cache_path, &error)) {
      std::fprintf(stderr, "cache: loaded %llu entr%s from %s\n",
                   static_cast<unsigned long long>(
                       cache.stats().entries_loaded),
                   cache.stats().entries_loaded == 1 ? "y" : "ies",
                   options.cache_path.c_str());
    } else {
      std::fprintf(stderr,
                   "amdrelc: warning: ignoring cache (%s); recomputing "
                   "from scratch\n",
                   error.c_str());
    }
  }
  return true;
}

// Reports the cache traffic, persists the cache (merge-on-save) and
// writes --cache-stats, for explore and worker alike. The stats line
// goes to stderr so worker stdout stays pure wire protocol.
void report_and_save_cache(const Options& options, core::SweepCache& cache) {
  const core::SweepCacheStats stats = cache.stats();
  std::fprintf(stderr,
               "cache: %llu cell hits, %llu misses, %llu mapper restores, "
               "%llu cold builds\n",
               static_cast<unsigned long long>(stats.cell_hits),
               static_cast<unsigned long long>(stats.cell_misses),
               static_cast<unsigned long long>(stats.mapper_restores),
               static_cast<unsigned long long>(stats.mapper_builds));
  std::string error;
  if (cache.save(options.cache_path, &error)) {
    std::fprintf(stderr, "cache: saved %llu cell(s) to %s\n",
                 static_cast<unsigned long long>(stats.cells),
                 options.cache_path.c_str());
  } else {
    // Results are already computed and emitted; a write failure only
    // costs the next run its warm start.
    std::fprintf(stderr, "amdrelc: warning: cannot write cache: %s\n",
                 error.c_str());
  }
  if (!options.cache_stats_path.empty()) {
    write_output_file(options.cache_stats_path,
                      core::cache_stats_to_json(cache.stats()), "cache stats");
  }
}

void write_sweep_outputs(const Options& options,
                         const core::SweepSummary& summary) {
  if (!options.json_path.empty()) {
    write_output_file(options.json_path, core::sweep_to_json(summary),
                      "JSON");
  }
  if (!options.csv_path.empty()) {
    write_output_file(options.csv_path, core::sweep_to_csv(summary), "CSV");
  }
}

int cmd_explore(const Options& options) {
  const std::vector<core::CorpusApp> corpus = build_corpus(options);
  core::SweepSpec spec = build_sweep_spec(options);
  core::SweepCache cache;
  const bool use_cache = setup_cache(options, cache);
  if (use_cache) spec.cache = &cache;

  const auto summary = core::sweep_design_space(corpus, spec);
  std::printf("design-space sweep: %zu app(s) x %zu platform(s), "
              "%zu cells, %d thread(s)\n",
              summary.apps.size(), spec.grid.size(), summary.cells.size(),
              core::worker_count(core::sweep_shard_count(corpus, spec),
                                 spec.threads));
  std::printf("%s", core::describe(summary).c_str());
  write_sweep_outputs(options, summary);
  if (use_cache) report_and_save_cache(options, cache);
  return 0;
}

// The fork transport's worker command: this binary re-run as `amdrelc
// worker` with the original sweep flags; it serves rounds on the
// stdin/stdout the transport hands it. The original argv is forwarded
// verbatim EXCEPT the flags kOptions gives to serve (coordinator
// concerns and the --stream-partial artifact) and the artifact outputs
// --json/--csv (workers emit wire protocol on stdout, not artifacts;
// --cache-stats is explore/worker only, so serve never has it). --cache
// IS forwarded: each worker loads the shared file and persists with
// merge-on-save, exactly the concurrent-writer regime the cache's file
// lock exists for.
std::vector<std::string> forked_worker_command(int argc, char** argv) {
  std::vector<std::string> command;
  command.push_back(argv[0]);
  command.push_back("worker");
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const OptionSpec* spec = find_option(arg);
    const bool serve_side = spec != nullptr &&
                            ((spec->commands != nullptr &&
                              std::strcmp(spec->commands, "serve") == 0) ||
                             arg == "--json" || arg == "--csv");
    if (!serve_side) {
      command.push_back(arg);
    } else if (spec->takes_value) {
      ++i;  // skip the flag's value too
    }
  }
  return command;
}

// Coordinator: reaches workers through the configured transport — forked
// `amdrelc worker` processes by default, TCP dial-ins with --listen —
// and merges their streams into the summary explore would have
// produced, retrying a dead worker's unfinished shards within the
// configured budget.
int cmd_serve(const Options& options, int argc, char** argv) {
  const std::vector<core::CorpusApp> corpus = build_corpus(options);
  const core::SweepSpec spec = build_sweep_spec(options);
  const std::size_t shards = core::sweep_shard_count(corpus, spec);

  core::ServeOptions serve;
  serve.workers = options.workers.value_or(2);
  if (options.max_retries) serve.max_shard_retries = *options.max_retries;
  if (options.worker_timeout_ms) {
    serve.idle_timeout_ms = *options.worker_timeout_ms;
  }

  std::unique_ptr<core::Transport> transport;
  if (!options.listen_spec.empty()) {
    std::string host;
    int port = 0;
    support::net::parse_host_port(options.listen_spec, host, port);
    auto tcp = std::make_unique<core::TcpTransport>(
        support::net::listen_tcp(host, port));
    // An ephemeral port (--listen :0) is only knowable here; scripts
    // scrape this line to learn where to point their workers.
    std::fprintf(stderr, "serve: listening on %s:%d\n",
                 host.empty() ? "0.0.0.0" : host.c_str(), tcp->port());
    transport = std::move(tcp);
  } else {
    transport = std::make_unique<core::ForkPipeTransport>(
        forked_worker_command(argc, argv));
  }
  serve.transport = transport.get();

  std::ofstream partial;
  std::vector<std::string> app_names;
  if (!options.stream_partial_path.empty()) {
    for (const core::CorpusApp& app : corpus) app_names.push_back(app.name);
    partial.open(options.stream_partial_path, std::ios::binary);
    require(partial.good(), "cannot write ", options.stream_partial_path);
    core::write_partial_stream_header(partial, shards);
    serve.on_shard_complete = [&partial, &app_names](
                                  std::size_t shard,
                                  const core::SweepCell* cells,
                                  std::size_t used) {
      core::write_partial_stream_shard(partial, app_names, shard, cells,
                                       used);
    };
  }

  const auto summary = core::serve_design_space(corpus, spec, serve);
  if (!options.stream_partial_path.empty()) {
    partial.flush();
    require(partial.good(), "cannot write ", options.stream_partial_path);
    std::fprintf(stderr, "wrote partial shard stream to %s\n",
                 options.stream_partial_path.c_str());
  }
  std::printf("distributed sweep: %zu app(s) x %zu platform(s), "
              "%zu cells, %d worker(s)\n",
              summary.apps.size(), spec.grid.size(), summary.cells.size(),
              std::min(serve.workers, static_cast<int>(shards)));
  std::printf("%s", core::describe(summary).c_str());
  write_sweep_outputs(options, summary);
  return 0;
}

// One serve worker. Forked by serve, it speaks the wire round protocol
// on stdin/stdout, so stdout carries ONLY the protocol (profiling and
// cache diagnostics already go to stderr); with --connect the same
// protocol rides the socket and stdout stays free. The cache is saved
// after the shutdown handshake, before the process exits.
int cmd_worker(const Options& options) {
  const std::vector<core::CorpusApp> corpus = build_corpus(options);
  core::SweepSpec spec = build_sweep_spec(options);
  core::SweepCache cache;
  const bool use_cache = setup_cache(options, cache);
  if (use_cache) spec.cache = &cache;

  core::ShardEmitHook after_shard;
  if (options.fail_after_shards) {
    // Deterministic fault injection for the serve retry tests: die the
    // instant the Nth shard has been flushed, exactly as a crashed host
    // would — no timing races, no partial lines.
    const auto limit =
        static_cast<std::size_t>(*options.fail_after_shards);
    after_shard = [limit](std::size_t emitted) {
      if (emitted >= limit) {
        std::raise(SIGKILL);
      }
    };
  }

  if (!options.connect_spec.empty()) {
    std::string host;
    int port = 0;
    support::net::parse_host_port(options.connect_spec, host, port);
    support::net::Socket conn =
        support::net::connect_tcp(host, port, /*timeout_ms=*/30000);
    support::net::FdIoStream stream(conn.fd());
    core::run_sweep_worker_connected(corpus, spec, stream, stream,
                                     after_shard);
    stream.flush();
    require(stream.good(), "worker: cannot write result stream to socket");
  } else {
    core::run_sweep_worker_connected(corpus, spec, std::cin, std::cout,
                                     after_shard);
    std::cout.flush();
    require(std::cout.good(),
            "worker: cannot write result stream to stdout");
  }
  if (use_cache) report_and_save_cache(options, cache);
  return 0;
}

int cmd_dump_tac(const Options& options) {
  ir::TacProgram tac = minic::compile(read_file(options.file), options.file);
  if (options.optimize) minic::optimize(tac);
  std::printf("%s", tac.to_string().c_str());
  return 0;
}

int cmd_dump_dot(const Options& options) {
  ir::TacProgram tac = minic::compile(read_file(options.file), options.file);
  if (options.optimize) minic::optimize(tac);
  const ir::Cdfg cdfg = ir::build_cdfg(tac);
  std::printf("%s", ir::to_dot(cdfg).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_args(argc, argv);
    if (options.command == "analyze") return cmd_analyze(options);
    if (options.command == "partition") return cmd_partition(options);
    if (options.command == "explore") return cmd_explore(options);
    if (options.command == "serve") return cmd_serve(options, argc, argv);
    if (options.command == "worker") return cmd_worker(options);
    if (options.command == "dump-tac") return cmd_dump_tac(options);
    if (options.command == "dump-dot") return cmd_dump_dot(options);
    usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "amdrelc: %s\n", e.what());
    return 1;
  }
}
