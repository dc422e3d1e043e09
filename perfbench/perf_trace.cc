// perf_trace — the benchmark's in-process helper, linked against the
// amdrel library it measures.
//
//   perf_trace info
//       Build facts as one JSON line (NDEBUG, compiler), so the driver
//       can refuse a non-Release build.
//   perf_trace gen DIR SEED S:N:F:COUNT:MIN_TAC:MAX_TAC ...
//       Writes a stratified synth::generate_minic_program corpus as .mc
//       files: per stratum, COUNT programs with S statements, loop nest
//       N and F helper functions that lower to MIN_TAC..MAX_TAC TAC
//       instructions and profile in at most kMaxCorpusInstructions.
//       Every program is compiled and profiled once here, so a corpus
//       that reaches `amdrelc` never fails. Prints one JSON line per
//       program.
//   perf_trace trace --mode cold|warm|serve --corpus A,B,... --grid G
//                    [--constraints C,...] --strategies S,...
//                    --orderings O,... --json REF --csv REF
//                    [--cache PATH --primed PATH] [--threads N]
//                    --seconds S --spans OUT
//       Replays one workload through the public entry points of every
//       layer, timing each call from outside with spans, and prints the
//       per-layer metrics as one JSON line. Untraced and traced replays
//       alternate until S seconds have passed; metrics are the medians
//       over the traced replays. Every replay's JSON and CSV must match
//       the reference bytes, or the run fails.
//
// The replay mirrors core::compute_sweep_shard call for call (the same
// cache probes in the same order, the same mapper reuse), so its counts
// equal those of the `amdrelc explore` invocation it shadows.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/kernels.h"
#include "core/energy.h"
#include "core/explorer.h"
#include "core/fingerprint.h"
#include "core/methodology.h"
#include "core/schema.h"
#include "core/strategy.h"
#include "core/sweep_cache.h"
#include "core/sweep_io.h"
#include "core/sweep_service.h"
#include "core/wire.h"
#include "interp/interpreter.h"
#include "ir/build_cdfg.h"
#include "minic/frontend.h"
#include "platform/platform.h"
#include "support/error.h"
#include "support/strings.h"
#include "synth/minic_fuzzer.h"
#include "workloads/minic_sources.h"
#include "workloads/paper_models.h"

using namespace amdrel;

namespace {

// Same instruction budget `amdrelc` profiles corpus entries with.
constexpr std::uint64_t kProfileBudget = 4'000'000'000ULL;

// Generated programs run at most this many instructions when profiled.
// The fuzzer's nested loops make run lengths heavy-tailed; the cap keeps
// one program from dominating the frontend's time in a corpus.
constexpr std::uint64_t kMaxCorpusInstructions = 100'000;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.flush();
  require(out.good(), "cannot write " + path);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory and written once at
// exit as Chrome trace-event JSON. A disabled tracer records nothing, so
// the untraced replay runs the same code without the clock reads.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;  ///< index into Tracer::spans, -1 for a root
  std::int32_t replay;  ///< which traced replay recorded it
};

class Tracer {
 public:
  std::vector<Span> spans;
  bool enabled = false;
  std::int32_t replay = 0;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
      if (!tracer_.enabled) return;
      index_ = static_cast<std::int32_t>(tracer_.spans.size());
      tracer_.spans.push_back(
          {name, now_ns(), 0, tracer_.open_, tracer_.replay});
      tracer_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& span = tracer_.spans[static_cast<std::size_t>(index_)];
      span.end = now_ns();
      tracer_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

 private:
  std::int32_t open_ = -1;
};

/// The layer a span's self time is charged to: the prefix of its name
/// before the first '.', folded onto the six source layers. Spans with no
/// dot (app, shard) are per-request parents; their self time is the
/// benchmark's own bookkeeping and belongs to no layer.
std::string layer_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos) return "";
  const std::string prefix = name.substr(0, dot);
  if (prefix == "minic" || prefix == "interp" || prefix == "ir" ||
      prefix == "finegrain" || prefix == "coarsegrain") {
    return prefix;
  }
  return "core";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i) os << ",\n";
    char line[320];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  s.name, layer_of(s.name).c_str(), s.replay,
                  static_cast<double>(s.start - origin) / 1e3,
                  static_cast<double>(s.end - s.start) / 1e3, i, s.parent);
    os << line;
  }
  os << "]}\n";
  write_file(path, os.str());
}

// ---------------------------------------------------------------------------
// The workload as the CLI would see it.
// ---------------------------------------------------------------------------

enum class Mode { kCold, kWarm, kServe };

struct Args {
  Mode mode = Mode::kCold;
  std::vector<std::string> corpus;
  core::SweepSpec spec;
  std::string json_ref;
  std::string csv_ref;
  std::string cache_path;
  std::string primed_path;
  std::string spans_path;
  double seconds = 1;
};

/// Counts and timings of one replay. Timings come from the spans; the
/// counts are gathered on the side.
struct Counters {
  double source_bytes = 0;
  double instructions = 0;
  double blocks = 0;
  double dfg_nodes = 0;
  double mapper_builds = 0;
  double blocks_scheduled = 0;
  double engine_iterations = 0;
  double cell_hit_ratio = 0;
  double cache_mapper_builds = 0;
  double cache_file_bytes = 0;
  double wire_bytes = 0;
  double shards = 0;
  double cells = 0;
  double json_bytes = 0;
  double elapsed_ms = 0;  ///< wall time of the replay's timed region
};

/// The default constraint axis of core::compute_sweep_shard: quarter
/// points of the all-fine-grain cycles, clamped to >= 1, deduplicated.
std::vector<std::int64_t> default_constraints(std::int64_t all_fine) {
  std::vector<std::int64_t> fractions;
  for (const std::int64_t raw :
       {all_fine / 4, all_fine / 2, (3 * all_fine) / 4}) {
    const std::int64_t clamped = std::max<std::int64_t>(1, raw);
    if (std::find(fractions.begin(), fractions.end(), clamped) ==
        fractions.end()) {
      fractions.push_back(clamped);
    }
  }
  return fractions;
}

const char* strategy_span(core::StrategyKind strategy) {
  switch (strategy) {
    case core::StrategyKind::kGreedyPaper: return "strategy.greedy";
    case core::StrategyKind::kExhaustive: return "strategy.exhaustive";
    case core::StrategyKind::kAnnealing: return "strategy.annealing";
  }
  return "strategy.other";
}

/// The corpus exactly as `amdrelc` resolves --corpus entries: the paper's
/// calibrated models by name, bundled MiniC sources, or .mc paths
/// compiled and profiled on zero-initialized inputs.
std::vector<core::CorpusApp> build_corpus(
    const std::vector<std::string>& names, Tracer& tracer,
    Counters& counters) {
  std::vector<core::CorpusApp> corpus;
  for (const std::string& name : names) {
    Tracer::Scope app_span(tracer, "app");
    core::CorpusApp app;
    app.name = name;
    if (name == "ofdm" || name == "jpeg") {
      Tracer::Scope span(tracer, "ir.paper_model");
      workloads::PaperApp model = name == "ofdm"
                                      ? workloads::build_ofdm_model()
                                      : workloads::build_jpeg_model();
      app.cdfg = std::move(model.cdfg);
      app.profile = std::move(model.profile);
    } else {
      const std::string source = name == "fir"     ? workloads::fir_source()
                                 : name == "sobel" ? workloads::sobel_source()
                                                   : read_file(name);
      counters.source_bytes += static_cast<double>(source.size());
      std::optional<ir::TacProgram> tac;
      {
        Tracer::Scope span(tracer, "minic.compile");
        tac.emplace(minic::compile(source, name));
      }
      {
        Tracer::Scope span(tracer, "interp.profile");
        interp::Interpreter interp(*tac);
        const interp::RunResult run = interp.run(kProfileBudget);
        counters.instructions +=
            static_cast<double>(run.instructions_executed);
        app.profile = run.profile;
      }
      {
        Tracer::Scope span(tracer, "ir.build_cdfg");
        app.cdfg = ir::build_cdfg(*tac);
      }
    }
    counters.blocks += static_cast<double>(app.cdfg.size());
    for (const ir::BasicBlock& block : app.cdfg.blocks()) {
      counters.dfg_nodes += static_cast<double>(block.dfg.size());
    }
    corpus.push_back(std::move(app));
  }
  return corpus;
}

class Replay {
 public:
  Replay(const Args& args, Tracer& tracer, const std::string& worker_stream)
      : args_(args), tracer_(tracer), worker_stream_(worker_stream) {}

  Counters run();

 private:
  std::size_t compute_shard(const std::vector<core::CorpusApp>& corpus,
                            const std::vector<core::Fingerprint>& app_fps,
                            std::size_t shard, core::SweepCell* slots);
  void round_trip_wire(const std::vector<core::CorpusApp>& corpus,
                       core::SweepSummary& summary,
                       std::vector<std::size_t>& shard_used);

  const Args& args_;
  Tracer& tracer_;
  const std::string& worker_stream_;
  core::SweepCache* cache_ = nullptr;
  Counters counters_;
};

std::size_t Replay::compute_shard(
    const std::vector<core::CorpusApp>& corpus,
    const std::vector<core::Fingerprint>& app_fps, std::size_t shard,
    core::SweepCell* slots) {
  Tracer::Scope shard_span(tracer_, "shard");
  const core::SweepSpec& spec = args_.spec;
  const std::vector<double> budgets =
      spec.energy_budgets.empty()
          ? std::vector<double>{spec.base.cost.energy_budget_pj}
          : spec.energy_budgets;
  const std::size_t app_index = shard / spec.grid.size();
  const std::size_t platform_index = shard % spec.grid.size();
  const double area =
      spec.grid.areas[platform_index / spec.grid.cgc_counts.size()];
  const int cgcs =
      spec.grid.cgc_counts[platform_index % spec.grid.cgc_counts.size()];
  const core::CorpusApp& app = corpus[app_index];
  const platform::Platform p = platform::make_paper_platform(area, cgcs);
  const double cost = platform::platform_cost(p);

  core::Fingerprint platform_fp;
  core::Fingerprint group_key;
  if (cache_) {
    Tracer::Scope span(tracer_, "fingerprint.platform");
    platform_fp = core::fingerprint(p);
    group_key = core::shard_key(app_fps[app_index], platform_fp);
  }

  std::optional<core::HybridMapper> mapper;
  bool scheduled = false;
  auto ensure_mapper = [&]() -> core::HybridMapper& {
    if (mapper) return *mapper;
    std::shared_ptr<const core::MapperState> state;
    if (cache_) {
      Tracer::Scope span(tracer_, "cache.find");
      state = cache_->find_mapper(group_key);
    }
    if (state) {
      Tracer::Scope span(tracer_, "cache.restore");
      mapper.emplace(app.cdfg, p, *state);
      return *mapper;
    }
    {
      Tracer::Scope span(tracer_, "finegrain.map");
      mapper.emplace(app.cdfg, p);
    }
    ++counters_.mapper_builds;
    if (cache_) {
      Tracer::Scope span(tracer_, "cache.store");
      cache_->store_mapper(group_key, std::make_shared<core::MapperState>(
                                          mapper->state()));
    }
    return *mapper;
  };
  // The strategies schedule kernels on the CGC lazily; scheduling every
  // eligible kernel once up front charges that work to its own layer and
  // leaves the walks to hit the mapper's memo.
  auto schedule_kernels = [&](core::HybridMapper& m,
                              const core::MethodologyOptions& options) {
    if (scheduled) return;
    scheduled = true;
    std::vector<analysis::KernelInfo> kernels;
    {
      Tracer::Scope span(tracer_, "core.extract_kernels");
      kernels = analysis::extract_kernels(app.cdfg, app.profile,
                                          options.analysis);
    }
    Tracer::Scope span(tracer_, "coarsegrain.schedule");
    for (const analysis::KernelInfo& kernel : kernels) {
      if (!m.cgc_eligible(kernel.block)) continue;
      m.coarse(kernel.block);
      ++counters_.blocks_scheduled;
    }
  };

  std::vector<std::int64_t> constraints = spec.constraints;
  if (constraints.empty()) {
    std::optional<std::int64_t> all_fine;
    if (cache_) {
      Tracer::Scope span(tracer_, "cache.find");
      all_fine = cache_->find_all_fine(group_key);
    }
    if (!all_fine) {
      core::HybridMapper& m = ensure_mapper();
      {
        Tracer::Scope span(tracer_, "finegrain.all_fine");
        all_fine = m.all_fine_cycles(app.profile);
      }
      if (cache_) {
        Tracer::Scope span(tracer_, "cache.store");
        cache_->store_all_fine(group_key, *all_fine);
      }
    }
    constraints = default_constraints(*all_fine);
  }
  const std::size_t strategy_count = spec.strategies.size();
  const std::size_t ordering_count = spec.orderings.size();
  const std::size_t used =
      constraints.size() * budgets.size() * strategy_count * ordering_count;

  for (std::size_t si = 0; si < strategy_count; ++si) {
    for (std::size_t oi = 0; oi < ordering_count; ++oi) {
      core::MethodologyOptions options = spec.base;
      options.strategy = spec.strategies[si];
      options.ordering = spec.orderings[oi];
      std::vector<std::size_t> indices;
      std::vector<core::Fingerprint> keys;
      for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
        for (std::size_t bi = 0; bi < budgets.size(); ++bi) {
          const std::size_t index =
              ((ci * budgets.size() + bi) * strategy_count + si) *
                  ordering_count +
              oi;
          core::SweepCell& cell = slots[index];
          cell.app = app_index;
          cell.a_fpga = area;
          cell.cgcs = cgcs;
          cell.platform_cost = cost;
          cell.constraint = constraints[ci];
          cell.energy_budget_pj = budgets[bi];
          cell.strategy = options.strategy;
          cell.ordering = options.ordering;
          indices.push_back(index);
        }
      }
      if (cache_) {
        Tracer::Scope span(tracer_, "fingerprint.cell_key");
        for (const std::size_t index : indices) {
          options.cost.energy_budget_pj = slots[index].energy_budget_pj;
          keys.push_back(core::cell_key(app_fps[app_index], platform_fp,
                                        options, slots[index].constraint));
        }
      }
      std::vector<std::size_t> missed;
      std::vector<core::AxisCell> axis;
      std::vector<core::Fingerprint> missed_keys;
      auto miss = [&](std::size_t index) {
        missed.push_back(index);
        axis.push_back({slots[index].constraint,
                        slots[index].energy_budget_pj});
      };
      if (cache_) {
        Tracer::Scope span(tracer_, "cache.find");
        for (std::size_t k = 0; k < indices.size(); ++k) {
          core::SweepCell& cell = slots[indices[k]];
          if (std::optional<core::CachedCell> hit =
                  cache_->find_cell(keys[k])) {
            cell.report = std::move(hit->report);
            cell.moved_names = std::move(hit->moved_names);
            continue;
          }
          missed_keys.push_back(keys[k]);
          miss(indices[k]);
        }
      } else {
        for (const std::size_t index : indices) miss(index);
      }
      if (missed.empty()) continue;
      core::HybridMapper& m = ensure_mapper();
      schedule_kernels(m, options);
      std::vector<core::PartitionReport> reports;
      {
        Tracer::Scope span(tracer_, strategy_span(options.strategy));
        reports = core::run_methodology_axis(m, app.profile, axis, options);
      }
      {
        // The axis reprices each distinct final split once; the replay
        // repeats that repricing from outside to time the energy layer.
        Tracer::Scope span(tracer_, "energy.reprice");
        std::vector<const std::vector<ir::BlockId>*> seen;
        for (const core::PartitionReport& report : reports) {
          const bool repeat =
              std::any_of(seen.begin(), seen.end(),
                          [&](const std::vector<ir::BlockId>* moved) {
                            return *moved == report.moved;
                          });
          if (repeat) continue;
          seen.push_back(&report.moved);
          core::estimate_energy(m, app.profile, report.moved,
                                options.cost.objective.energy);
        }
      }
      for (std::size_t k = 0; k < missed.size(); ++k) {
        core::SweepCell& cell = slots[missed[k]];
        cell.report = reports[k];
        counters_.engine_iterations += reports[k].engine_iterations;
        cell.moved_names.clear();
        for (const ir::BlockId block : cell.report.moved) {
          cell.moved_names.push_back(app.cdfg.block(block).name);
        }
      }
      if (cache_) {
        Tracer::Scope span(tracer_, "cache.store");
        for (std::size_t k = 0; k < missed.size(); ++k) {
          const core::SweepCell& cell = slots[missed[k]];
          cache_->store_cell(missed_keys[k],
                             core::CachedCell{cell.report, cell.moved_names});
        }
      }
    }
  }
  if (cache_ && mapper) {
    Tracer::Scope span(tracer_, "cache.store");
    cache_->store_mapper(group_key,
                         std::make_shared<core::MapperState>(mapper->state()));
  }
  return used;
}

// The coordinator's side of `amdrelc serve`: the replay's cells encoded
// as one worker stream (checked against the stream run_sweep_worker
// recorded), then that recorded stream decoded and merged into a fresh
// summary, which is what gets finalized and emitted.
void Replay::round_trip_wire(const std::vector<core::CorpusApp>& corpus,
                             core::SweepSummary& summary,
                             std::vector<std::size_t>& shard_used) {
  const core::SweepSpec& spec = args_.spec;
  const std::size_t shards = shard_used.size();
  const std::size_t cells_per_shard = core::sweep_cells_per_shard(spec);
  std::ostringstream encoded;
  {
    Tracer::Scope span(tracer_, "wire.encode");
    core::wire::Header header;
    header.protocol = core::kSweepWireProtocolVersion;
    header.schema_version = core::kSweepCacheSchemaVersion;
    header.fingerprint_algorithm = core::kFingerprintAlgorithmVersion;
    header.shards = shards;
    core::wire::encode_header(encoded, header);
    std::size_t total = 0;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      core::wire::encode_shard_begin(encoded, {shard, shard_used[shard]});
      for (std::size_t i = 0; i < shard_used[shard]; ++i) {
        const core::SweepCell& cell =
            summary.cells[shard * cells_per_shard + i];
        core::wire::encode_cell(encoded, shard, i, cell.report,
                                cell.moved_names);
      }
      total += shard_used[shard];
    }
    core::wire::encode_worker_done(encoded, {total});
  }
  const std::string bytes = encoded.str();
  require(bytes == worker_stream_,
          "replayed wire stream differs from run_sweep_worker's");
  counters_.wire_bytes = static_cast<double>(bytes.size());

  std::vector<std::size_t> assigned(shards);
  for (std::size_t s = 0; s < shards; ++s) assigned[s] = s;
  core::SweepSummary merged;
  merged.apps = summary.apps;
  merged.cells.resize(shards * cells_per_shard);
  std::vector<std::size_t> merged_used(shards, 0);
  {
    Tracer::Scope span(tracer_, "wire.decode_merge");
    std::istringstream in(worker_stream_);
    core::consume_worker_stream(in, corpus, spec, assigned, merged,
                                merged_used);
  }
  require(merged_used == shard_used, "decoded shard fill counts differ");
  summary = std::move(merged);
}

Counters Replay::run() {
  const core::SweepSpec& spec = args_.spec;
  // Cache-state hygiene, as before every CLI invocation and outside the
  // timed region: a cold run starts with no file and no sidecars; a warm
  // run loads (and later merges into) a pristine copy of the primed file.
  std::optional<core::SweepCache> cache;
  if (args_.mode != Mode::kServe) {
    cache.emplace();
    cache_ = &*cache;
    std::remove(args_.cache_path.c_str());
    std::remove((args_.cache_path + ".lock").c_str());
    if (args_.mode == Mode::kWarm) {
      write_file(args_.cache_path, read_file(args_.primed_path));
    }
  }

  const std::int64_t start = now_ns();
  const std::vector<core::CorpusApp> corpus =
      build_corpus(args_.corpus, tracer_, counters_);
  if (args_.mode == Mode::kWarm) {
    Tracer::Scope span(tracer_, "cache.load");
    std::string error;
    require(cache_->load(args_.cache_path, &error), error);
  }
  std::vector<core::Fingerprint> app_fps;
  if (cache_) {
    Tracer::Scope span(tracer_, "fingerprint.app");
    app_fps = core::sweep_app_fingerprints(corpus);
  }

  const std::size_t cells_per_shard = core::sweep_cells_per_shard(spec);
  const std::size_t shards = core::sweep_shard_count(corpus, spec);
  core::SweepSummary summary;
  for (const core::CorpusApp& app : corpus) summary.apps.push_back(app.name);
  summary.cells.resize(shards * cells_per_shard);
  std::vector<std::size_t> shard_used(shards, 0);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    shard_used[shard] =
        compute_shard(corpus, app_fps, shard,
                      summary.cells.data() + shard * cells_per_shard);
  }
  if (args_.mode == Mode::kServe) {
    round_trip_wire(corpus, summary, shard_used);
  }
  {
    Tracer::Scope span(tracer_, "pareto.finalize");
    core::finalize_sweep_summary(summary, shard_used, cells_per_shard);
  }
  std::string json;
  std::string csv;
  {
    Tracer::Scope span(tracer_, "emit.json");
    json = core::sweep_to_json(summary);
  }
  {
    Tracer::Scope span(tracer_, "emit.csv");
    csv = core::sweep_to_csv(summary);
  }
  if (cache_) {
    Tracer::Scope span(tracer_, "cache.save");
    std::string error;
    require(cache_->save(args_.cache_path, &error), error);
  }
  counters_.elapsed_ms = static_cast<double>(now_ns() - start) / 1e6;

  require(json == read_file(args_.json_ref),
          "replayed sweep JSON differs from the reference");
  require(csv == read_file(args_.csv_ref),
          "replayed sweep CSV differs from the reference");
  counters_.shards = static_cast<double>(shards);
  counters_.cells = static_cast<double>(summary.cells.size());
  counters_.json_bytes = static_cast<double>(json.size());
  if (cache_) {
    counters_.cache_file_bytes =
        static_cast<double>(read_file(args_.cache_path).size());
    const core::SweepCacheStats stats = cache_->stats();
    const double lookups =
        static_cast<double>(stats.cell_hits + stats.cell_misses);
    counters_.cell_hit_ratio =
        lookups == 0 ? 0 : static_cast<double>(stats.cell_hits) / lookups;
    counters_.cache_mapper_builds = static_cast<double>(stats.mapper_builds);
  }
  return counters_;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// One traced replay's metrics: summed span time per span name, self
/// time per layer, and the replay's counters.
std::map<std::string, double> replay_metrics(const std::vector<Span>& spans,
                                             std::size_t first,
                                             const Counters& c) {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms = {
      {"minic", 0},     {"interp", 0},      {"ir", 0},
      {"finegrain", 0}, {"coarsegrain", 0}, {"core", 0}};
  std::vector<double> child_ms(spans.size() - first, 0);
  double root_ms = 0;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const double ms = static_cast<double>(spans[i].end - spans[i].start) / 1e6;
    total_ms[spans[i].name] += ms;
    if (spans[i].parent >= 0) {
      child_ms[static_cast<std::size_t>(spans[i].parent) - first] += ms;
    } else {
      root_ms += ms;
    }
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    if (layer.empty()) continue;
    const double ms = static_cast<double>(spans[i].end - spans[i].start) / 1e6;
    self_ms[layer] += ms - child_ms[i - first];
  }
  auto span_ms = [&](const char* name) {
    const auto it = total_ms.find(name);
    return it == total_ms.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> m;
  m["minic.compile_ms"] = span_ms("minic.compile");
  m["minic.source_bytes"] = c.source_bytes;
  m["interp.profile_ms"] = span_ms("interp.profile");
  m["interp.instructions"] = c.instructions;
  m["ir.build_cdfg_ms"] = span_ms("ir.build_cdfg");
  m["ir.blocks"] = c.blocks;
  m["ir.dfg_nodes"] = c.dfg_nodes;
  m["finegrain.map_ms"] = span_ms("finegrain.map");
  m["finegrain.mapper_builds"] = c.mapper_builds;
  m["coarsegrain.schedule_ms"] = span_ms("coarsegrain.schedule");
  m["coarsegrain.blocks_scheduled"] = c.blocks_scheduled;
  m["strategy.greedy_ms"] = span_ms("strategy.greedy");
  m["strategy.annealing_ms"] = span_ms("strategy.annealing");
  m["strategy.exhaustive_ms"] = span_ms("strategy.exhaustive");
  m["strategy.engine_iterations"] = c.engine_iterations;
  m["energy.reprice_ms"] = span_ms("energy.reprice");
  m["fingerprint.ms"] = span_ms("fingerprint.app") +
                        span_ms("fingerprint.platform") +
                        span_ms("fingerprint.cell_key");
  m["cache.load_ms"] = span_ms("cache.load");
  m["cache.save_ms"] = span_ms("cache.save");
  m["cache.find_ms"] = span_ms("cache.find");
  m["cache.store_ms"] = span_ms("cache.store");
  m["cache.cell_hit_ratio"] = c.cell_hit_ratio;
  m["cache.mapper_builds"] = c.cache_mapper_builds;
  m["cache.file_bytes"] = c.cache_file_bytes;
  m["wire.encode_ms"] = span_ms("wire.encode");
  m["wire.decode_merge_ms"] = span_ms("wire.decode_merge");
  m["wire.bytes"] = c.wire_bytes;
  m["serve.shards"] = c.shards;
  m["pareto.finalize_ms"] = span_ms("pareto.finalize");
  m["pareto.cells"] = c.cells;
  m["emit.json_ms"] = span_ms("emit.json");
  m["emit.csv_ms"] = span_ms("emit.csv");
  m["emit.json_bytes"] = c.json_bytes;
  for (const auto& [layer, ms] : self_ms) {
    m["layer." + layer + ".self_ms"] = ms;
  }
  m["trace.traced_ms"] = c.elapsed_ms;
  // Share of the traced replay's wall time that its root spans cover;
  // the rest is the replay's own bookkeeping between spans.
  m["trace.span_cover_pct"] = 100.0 * root_ms / c.elapsed_ms;
  return m;
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

int cmd_info() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::printf("{\"ndebug\": %s, \"compiler\": \"%s\"}\n",
              ndebug ? "true" : "false", json_escape(compiler).c_str());
  return 0;
}

int cmd_gen(int argc, char** argv) {
  require(argc >= 5,
          "usage: perf_trace gen DIR SEED S:N:F:COUNT:MIN_TAC:MAX_TAC ...");
  const std::string dir = argv[2];
  const std::uint64_t seed = std::stoull(argv[3]);
  std::uint64_t sub_seed = seed * 1000003ULL;
  for (int k = 4; k < argc; ++k) {
    const std::vector<std::string> parts = split(argv[k], ':');
    require(parts.size() == 6, std::string("bad stratum ") + argv[k]);
    synth::FuzzConfig config;
    config.statements = std::stoi(parts[0]);
    config.max_loop_nest = std::stoi(parts[1]);
    config.functions = std::stoi(parts[2]);
    const int count = std::stoi(parts[3]);
    const std::size_t min_instrs = std::stoul(parts[4]);
    const std::size_t max_instrs = std::stoul(parts[5]);
    for (int i = 0; i < count; ++i) {
      // Redraw until the program compiles into the stratum's band of TAC
      // instructions and profiles within the cap. The band keeps each
      // stratum's frontend and mapping work nearly the same from seed to
      // seed; a program that fails can never reach the CLI.
      std::string source;
      std::size_t blocks = 0;
      std::size_t instrs = 0;
      std::uint64_t instructions = 0;
      for (int attempt = 0;; ++attempt) {
        require(attempt < 100000, std::string("no program fits ") + argv[k]);
        config.seed = ++sub_seed;
        source = synth::generate_minic_program(config);
        try {
          const ir::TacProgram tac = minic::compile(source, "gen");
          instrs = 0;
          for (const ir::TacBlock& block : tac.blocks) {
            instrs += block.body.size();
          }
          if (instrs < min_instrs || instrs > max_instrs) continue;
          blocks = tac.blocks.size();
          // Running past the cap throws, which rejects the program.
          instructions = interp::Interpreter(tac)
                             .run(kMaxCorpusInstructions)
                             .instructions_executed;
          break;
        } catch (const Error&) {
        }
      }
      char name[64];
      std::snprintf(name, sizeof name, "s%d_%02d.mc", k - 4, i);
      write_file(dir + "/" + name, source);
      std::printf("{\"file\": \"%s\", \"blocks\": %zu, \"tac\": %zu, "
                  "\"instructions\": %llu}\n",
                  name, blocks, instrs,
                  static_cast<unsigned long long>(instructions));
    }
  }
  return 0;
}

Args parse_trace_args(int argc, char** argv) {
  Args args;
  args.spec.threads = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    require(i + 1 < argc, "missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--mode") {
      require(value == "cold" || value == "warm" || value == "serve",
              "bad --mode " + value);
      args.mode = value == "cold"   ? Mode::kCold
                  : value == "warm" ? Mode::kWarm
                                    : Mode::kServe;
    } else if (flag == "--corpus") {
      args.corpus = split(value, ',');
    } else if (flag == "--grid") {
      const auto grid = core::parse_platform_grid(value);
      require(grid.has_value(), "bad --grid " + value);
      args.spec.grid = *grid;
    } else if (flag == "--constraints") {
      for (const std::string& item : split(value, ',')) {
        args.spec.constraints.push_back(std::stoll(item));
      }
    } else if (flag == "--strategies") {
      args.spec.strategies.clear();
      for (const std::string& item : split(value, ',')) {
        const auto strategy = core::parse_strategy(item);
        require(strategy.has_value(), "bad strategy " + item);
        args.spec.strategies.push_back(*strategy);
      }
    } else if (flag == "--orderings") {
      args.spec.orderings.clear();
      for (const std::string& item : split(value, ',')) {
        const auto ordering = core::parse_kernel_ordering(item);
        require(ordering.has_value(), "bad ordering " + item);
        args.spec.orderings.push_back(*ordering);
      }
    } else if (flag == "--json") {
      args.json_ref = value;
    } else if (flag == "--csv") {
      args.csv_ref = value;
    } else if (flag == "--cache") {
      args.cache_path = value;
    } else if (flag == "--primed") {
      args.primed_path = value;
    } else if (flag == "--threads") {
      args.spec.threads = std::stoi(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      fail("unknown flag " + flag);
    }
  }
  require(!args.corpus.empty() && !args.json_ref.empty() &&
              !args.csv_ref.empty() && !args.spans_path.empty(),
          "trace needs --corpus, --json, --csv and --spans");
  require(args.mode == Mode::kServe ||
              (!args.cache_path.empty() &&
               (args.mode == Mode::kCold || !args.primed_path.empty())),
          "cold needs --cache; warm needs --cache and --primed");
  return args;
}

int cmd_trace(int argc, char** argv) {
  const Args args = parse_trace_args(argc, argv);

  // What the serve replay's coordinator half decodes: one worker stream
  // over every shard, recorded once from the library's own worker.
  std::string worker_stream;
  if (args.mode == Mode::kServe) {
    Tracer off;
    Counters ignored;
    const std::vector<core::CorpusApp> corpus =
        build_corpus(args.corpus, off, ignored);
    std::vector<std::size_t> assigned(core::sweep_shard_count(corpus,
                                                              args.spec));
    for (std::size_t s = 0; s < assigned.size(); ++s) assigned[s] = s;
    std::ostringstream os;
    core::run_sweep_worker(corpus, args.spec, assigned, os);
    worker_stream = os.str();
  }

  // Single-threaded replays: untraced and traced alternate, so drift in
  // machine speed affects both sides alike. One warm-up replay runs
  // first, so neither side pays for faulting in the heap and page cache.
  Tracer tracer;
  Replay(args, tracer, worker_stream).run();
  std::vector<double> untraced_ms;
  std::map<std::string, std::vector<double>> samples;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  do {
    tracer.enabled = false;
    const Counters untraced = Replay(args, tracer, worker_stream).run();
    untraced_ms.push_back(untraced.elapsed_ms);

    tracer.enabled = true;
    const std::size_t first = tracer.spans.size();
    const Counters counters = Replay(args, tracer, worker_stream).run();
    for (const auto& [name, value] :
         replay_metrics(tracer.spans, first, counters)) {
      samples[name].push_back(value);
    }
    ++tracer.replay;
  } while (now_ns() < deadline);
  write_spans(args.spans_path, tracer.spans);

  std::map<std::string, double> metrics;
  for (const auto& [name, values] : samples) metrics[name] = median(values);
  metrics["trace.untraced_ms"] = median(untraced_ms);
  metrics["trace.overhead_pct"] =
      100.0 * (metrics["trace.traced_ms"] - metrics["trace.untraced_ms"]) /
      metrics["trace.untraced_ms"];
  metrics["trace.replays"] = static_cast<double>(untraced_ms.size());
  std::printf("{");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "info") return cmd_info();
    if (command == "gen") return cmd_gen(argc, argv);
    if (command == "trace") return cmd_trace(argc, argv);
    std::fprintf(stderr, "usage: perf_trace info | gen ... | trace ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_trace: %s\n", e.what());
    return 1;
  }
}
