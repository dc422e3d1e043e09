#include "core/sweep_cache.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <tuple>
#include <utility>

#ifndef _WIN32
#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

#include "support/strings.h"
#include "support/text.h"

namespace amdrel::core {

using jsonl::JsonParser;
using jsonl::JsonValue;
using jsonl::bits_to_double;
using jsonl::double_to_bits;
using jsonl::get_bool;
using jsonl::get_int;
using jsonl::get_string;
using jsonl::to_int;
using text::append;
using text::JsonEscaped;

// ---------------------------------------------------------------------------
// Cell payload codec — the canonical field order shared by the cache
// file's "cell" lines and the sweep service's wire "cell" lines. The
// JSON machinery itself lives in core/json_lines.h.
// ---------------------------------------------------------------------------

namespace {

template <typename T>
void append_int_array(std::string& out, const std::vector<T>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    append(out, i ? "," : "", values[i]);
  }
  out += ']';
}

// True when every item of `row` from index `first` on is an integer.
bool ints_from(const JsonValue& row, std::size_t first) {
  return std::all_of(row.items.begin() + static_cast<std::ptrdiff_t>(first),
                     row.items.end(), [](const JsonValue& item) {
                       return item.kind == JsonValue::Kind::kInt;
                     });
}

}  // namespace

void append_part(std::string& out, const CellPayload& payload) {
  const PartitionReport& r = payload.report;
  append(out, "\"app\":\"", JsonEscaped{r.app},
         "\",\"constraint\":", r.timing_constraint,
         ",\"objective\":", static_cast<int>(r.objective),
         ",\"energy_budget_bits\":", double_to_bits(r.energy_budget_pj),
         ",\"initial_cycles\":", r.initial_cycles,
         ",\"initial_energy_bits\":", double_to_bits(r.initial_energy_pj),
         ",\"initial_meets\":", r.initial_meets,
         ",\"kernels_found\":", r.kernels_found, ",\"moved\":");
  append_int_array(out, r.moved);
  out += ",\"moved_names\":[";
  for (std::size_t i = 0; i < payload.moved_names.size(); ++i) {
    append(out, i ? ",\"" : "\"", JsonEscaped{payload.moved_names[i]}, '"');
  }
  append(out, "],\"t_fpga\":", r.cost.t_fpga, ",\"t_coarse\":", r.cost.t_coarse,
         ",\"t_comm\":", r.cost.t_comm, ",\"t_reconfig\":", r.cost.t_reconfig,
         ",\"floorplan_bits\":", double_to_bits(r.floorplan_cost),
         ",\"final_cycles\":", r.final_cycles,
         ",\"cycles_in_cgc\":", r.cycles_in_cgc,
         ",\"energy_bits\":[", double_to_bits(r.energy.fine_pj), ',',
         double_to_bits(r.energy.coarse_pj), ',',
         double_to_bits(r.energy.reconfig_pj), ',',
         double_to_bits(r.energy.comm_pj), "],\"met\":", r.met,
         ",\"engine_iterations\":", r.engine_iterations);
}

bool read_cell_payload(const JsonValue& object, CachedCell& cell) {
  // A cell still carrying the pre-v5 kernel rows was written by an older
  // codec and spliced under a v5 header; never drop its fields silently.
  if (object.find("kernels")) return false;
  PartitionReport& r = cell.report;
  std::int64_t objective = 0;
  std::int64_t budget_bits = 0;
  std::int64_t initial_energy_bits = 0;
  std::int64_t floorplan_bits = 0;
  if (!get_string(object, "app", r.app) ||
      !get_int(object, "constraint", r.timing_constraint) ||
      !get_int(object, "objective", objective) ||
      !get_int(object, "energy_budget_bits", budget_bits) ||
      !get_int(object, "initial_cycles", r.initial_cycles) ||
      !get_int(object, "initial_energy_bits", initial_energy_bits) ||
      !get_bool(object, "initial_meets", r.initial_meets) ||
      !get_int(object, "kernels_found", r.kernels_found) ||
      !get_int(object, "t_fpga", r.cost.t_fpga) ||
      !get_int(object, "t_coarse", r.cost.t_coarse) ||
      !get_int(object, "t_comm", r.cost.t_comm) ||
      !get_int(object, "t_reconfig", r.cost.t_reconfig) ||
      !get_int(object, "floorplan_bits", floorplan_bits) ||
      !get_int(object, "final_cycles", r.final_cycles) ||
      !get_int(object, "cycles_in_cgc", r.cycles_in_cgc) ||
      !get_bool(object, "met", r.met) ||
      !get_int(object, "engine_iterations", r.engine_iterations)) {
    return false;
  }
  r.floorplan_cost = bits_to_double(floorplan_bits);
  if (objective < 0 ||
      objective > static_cast<int>(ObjectiveKind::kCombined)) {
    return false;
  }
  r.objective = static_cast<ObjectiveKind>(objective);
  r.energy_budget_pj = bits_to_double(budget_bits);
  r.initial_energy_pj = bits_to_double(initial_energy_bits);

  const JsonValue* energy = object.find("energy_bits");
  if (!energy || energy->kind != JsonValue::Kind::kArray ||
      energy->items.size() != 4 || !ints_from(*energy, 0)) {
    return false;
  }
  r.energy.fine_pj = bits_to_double(energy->items[0].integer);
  r.energy.coarse_pj = bits_to_double(energy->items[1].integer);
  r.energy.reconfig_pj = bits_to_double(energy->items[2].integer);
  r.energy.comm_pj = bits_to_double(energy->items[3].integer);

  const JsonValue* moved = object.find("moved");
  if (!moved || moved->kind != JsonValue::Kind::kArray) return false;
  r.moved.resize(moved->items.size());
  for (std::size_t i = 0; i < r.moved.size(); ++i) {
    if (!to_int(moved->items[i], r.moved[i])) return false;
  }

  const JsonValue* names = object.find("moved_names");
  if (!names || names->kind != JsonValue::Kind::kArray ||
      names->items.size() != r.moved.size()) {
    return false;
  }
  for (const JsonValue& name : names->items) {
    if (name.kind != JsonValue::Kind::kString) return false;
    cell.moved_names.push_back(name.string);
  }
  return true;
}

namespace {

// A mapper snapshot serializes the full MapperState: per block the
// fine-grain mapping (temporal partitioning + timing model) and, when
// present, the coarse-grain schedule. Partition areas are doubles and
// travel as IEEE-754 bit patterns like every other double in the file.
void append_mapper_payload(std::string& out, const MapperState& state) {
  out += "\"fine\":[";
  for (std::size_t b = 0; b < state.fine.size(); ++b) {
    const finegrain::FpgaBlockMapping& m = state.fine[b];
    out += b ? ",[" : "[";
    append_int_array(out, m.partitioning.partition_of);
    append(out, ',', m.partitioning.num_partitions, ",[");
    for (std::size_t i = 0; i < m.partitioning.partition_area.size(); ++i) {
      append(out, i ? "," : "",
             double_to_bits(m.partitioning.partition_area[i]));
    }
    append(out, "],", m.exec_cycles, ',', m.boundary_words, ',',
           m.boundary_cycles, ',', m.reconfigs_per_invocation, ',',
           m.amortized_reconfigs, ']');
  }
  out += "],\"coarse\":[";
  for (std::size_t b = 0; b < state.coarse.size(); ++b) {
    if (b) out += ',';
    if (!state.coarse[b].has_value()) {
      // The strict parser has no null; an empty array marks a block
      // whose coarse schedule was never (lazily) built.
      out += "[]";
      continue;
    }
    const coarsegrain::CgcBlockMapping& m = *state.coarse[b];
    out += '[';
    append_int_array(out, m.schedule.start);
    out += ',';
    append_int_array(out, m.schedule.finish);
    out += ",[";
    for (std::size_t i = 0; i < m.schedule.placement.size(); ++i) {
      const coarsegrain::CgcPlacement& p = m.schedule.placement[i];
      append(out, i ? "," : "", p.cgc, ',', p.row, ',', p.col);
    }
    append(out, "],", m.schedule.total_cgc_cycles, ',',
           m.schedule.configurations, ',', m.schedule.mem_accesses, ',',
           m.schedule.peak_registers, ',', m.cycles_per_invocation_fpga, ']');
  }
  out += ']';
}

template <typename T>
bool read_int_array(const JsonValue& value, std::vector<T>& out) {
  if (value.kind != JsonValue::Kind::kArray) return false;
  out.resize(value.items.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!to_int(value.items[i], out[i])) return false;
  }
  return true;
}

bool read_mapper_payload(const JsonValue& object, MapperState& state) {
  const JsonValue* fine = object.find("fine");
  const JsonValue* coarse = object.find("coarse");
  if (!fine || fine->kind != JsonValue::Kind::kArray || !coarse ||
      coarse->kind != JsonValue::Kind::kArray ||
      fine->items.size() != coarse->items.size()) {
    return false;
  }

  state.fine.reserve(fine->items.size());
  for (const JsonValue& row : fine->items) {
    // [partition_of, num_partitions, partition_area_bits, exec_cycles,
    //  boundary_words, boundary_cycles, reconfigs_per_invocation,
    //  amortized_reconfigs]
    if (row.kind != JsonValue::Kind::kArray || row.items.size() != 8) {
      return false;
    }
    finegrain::FpgaBlockMapping m;
    if (!read_int_array(row.items[0], m.partitioning.partition_of) ||
        !to_int(row.items[1], m.partitioning.num_partitions) ||
        m.partitioning.num_partitions < 0) {
      return false;
    }
    std::vector<std::int64_t> area_bits;
    if (!read_int_array(row.items[2], area_bits)) return false;
    m.partitioning.partition_area.reserve(area_bits.size());
    for (const std::int64_t bits : area_bits) {
      m.partitioning.partition_area.push_back(bits_to_double(bits));
    }
    if (!ints_from(row, 3)) return false;
    m.exec_cycles = row.items[3].integer;
    m.boundary_words = row.items[4].integer;
    m.boundary_cycles = row.items[5].integer;
    m.reconfigs_per_invocation = row.items[6].integer;
    m.amortized_reconfigs = row.items[7].integer;
    state.fine.push_back(std::move(m));
  }

  state.coarse.reserve(coarse->items.size());
  for (const JsonValue& row : coarse->items) {
    if (row.kind != JsonValue::Kind::kArray) return false;
    if (row.items.empty()) {
      state.coarse.emplace_back(std::nullopt);
      continue;
    }
    // [start, finish, placement_triples, total_cgc_cycles,
    //  configurations, mem_accesses, peak_registers,
    //  cycles_per_invocation_fpga]
    if (row.items.size() != 8) return false;
    coarsegrain::CgcBlockMapping m;
    if (!read_int_array(row.items[0], m.schedule.start) ||
        !read_int_array(row.items[1], m.schedule.finish) ||
        m.schedule.start.size() != m.schedule.finish.size()) {
      return false;
    }
    std::vector<int> triples;
    if (!read_int_array(row.items[2], triples) ||
        triples.size() != 3 * m.schedule.start.size()) {
      return false;
    }
    m.schedule.placement.reserve(m.schedule.start.size());
    for (std::size_t i = 0; i < triples.size(); i += 3) {
      m.schedule.placement.push_back({triples[i], triples[i + 1],
                                      triples[i + 2]});
    }
    if (!ints_from(row, 3) ||
        !to_int(row.items[6], m.schedule.peak_registers)) {
      return false;
    }
    m.schedule.total_cgc_cycles = row.items[3].integer;
    m.schedule.configurations = row.items[4].integer;
    m.schedule.mem_accesses = row.items[5].integer;
    m.cycles_per_invocation_fpga = row.items[7].integer;
    state.coarse.emplace_back(std::move(m));
  }
  return true;
}

// The optional "gen" stamp on entry lines (and "generation" on the
// header): absent means 0 (oldest), present must be a non-negative
// integer — anything else is a malformed line.
bool read_gen(const JsonValue& object, const char* name, std::uint64_t& out) {
  const JsonValue* v = object.find(name);
  if (!v) {
    out = 0;
    return true;
  }
  return to_int(*v, out);
}

/// Exclusive advisory lock on a sidecar lock file, held for the
/// load-merge-evict-write cycle in save(). The lock file is created on
/// first use and intentionally never unlinked: deleting it would let a
/// late locker open the old inode while a new one locks a fresh file,
/// i.e. two "exclusive" holders. Failure to lock (exotic filesystem,
/// unwritable directory) degrades to an unlocked save — the unique-temp
/// +rename write is still atomic, we only lose the cross-process union
/// window; the caller surfaces the degrade via held().
class ScopedFileLock {
 public:
  explicit ScopedFileLock(const std::string& path) {
#ifndef _WIN32
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0666);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
#else
    (void)path;
#endif
  }

  ScopedFileLock(const ScopedFileLock&) = delete;
  ScopedFileLock& operator=(const ScopedFileLock&) = delete;

  ~ScopedFileLock() {
#ifndef _WIN32
    if (fd_ >= 0) ::close(fd_);  // releases the flock
#endif
  }

  bool held() const {
#ifndef _WIN32
    return fd_ >= 0;
#else
    // No locking on this platform; report held so single-process saves
    // stay silent (there is no cross-process union window to lose).
    return true;
#endif
  }

 private:
#ifndef _WIN32
  int fd_ = -1;
#endif
};

// One-shot operator-facing warning for the degraded-lock path: losing
// the cross-process union window silently would make fleet-level entry
// loss undiagnosable. Per process, not per cache — the condition is
// environmental (filesystem/permissions), so once is signal, every save
// would be noise.
void warn_lock_degraded(const std::string& path) {
  static std::atomic<bool> warned{false};
  if (warned.exchange(true, std::memory_order_relaxed)) return;
  std::fprintf(stderr,
               "warning: cannot lock %s.lock; saving unlocked (entries "
               "written concurrently by another process may be lost)\n",
               path.c_str());
}

// Unique per-process temp name: "<path>.tmp.<pid>.<seq>". The pid keeps
// two DEGRADED-lock writers (who by definition do not exclude each
// other) on distinct temp files, so neither can truncate, promote or
// remove the other's half-written data; the sequence number keeps
// threads of one process distinct without consulting thread ids.
std::string unique_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> sequence{0};
#ifndef _WIN32
  const long long pid = static_cast<long long>(::getpid());
#else
  const long long pid = 0;
#endif
  return cat(path, ".tmp.", pid, ".",
             sequence.fetch_add(1, std::memory_order_relaxed));
}

// Sweeps "<path>.tmp.*" leftovers from writers that crashed between
// write and rename. ONLY called with the file lock held: under the lock
// no other writer can have a live temp, so everything matching is
// garbage; in degraded mode a matching temp might be another writer's
// in-flight data and must be left alone.
void remove_stale_temps(const std::string& path) {
#ifndef _WIN32
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".")
      : slash == 0               ? std::string("/")
                                 : path.substr(0, slash);
  const std::string prefix =
      (slash == std::string::npos ? path : path.substr(slash + 1)) + ".tmp.";
  DIR* d = ::opendir(dir.c_str());
  if (!d) return;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() > prefix.size() &&
        name.compare(0, prefix.size(), prefix) == 0) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::closedir(d);
#else
  (void)path;
#endif
}

}  // namespace

using MapperPtr = std::shared_ptr<const MapperState>;

// The three entry kinds. Each knows its line name, eviction rank
// (lowest goes first at equal age) and payload codec; every per-kind
// loop below visits them through for_each_kind, in file order.

template <>
struct SweepCache::Kind<std::int64_t> {
  using Value = std::int64_t;
  static constexpr const char* kName = "all_fine";
  static constexpr int kEvictRank = 1;
  static constexpr auto kTable = &Tables::all_fine;
  static void write(std::string& out, std::int64_t cycles) {
    append(out, "\"cycles\":", cycles);
  }
  static bool read(const JsonValue& object, std::int64_t& cycles) {
    return get_int(object, "cycles", cycles);
  }
  static bool same(std::int64_t a, std::int64_t b) { return a == b; }
};

template <>
struct SweepCache::Kind<CachedCell> {
  using Value = CachedCell;
  static constexpr const char* kName = "cell";
  static constexpr int kEvictRank = 2;
  static constexpr auto kTable = &Tables::cells;
  static void write(std::string& out, const CachedCell& cell) {
    append(out, CellPayload{cell.report, cell.moved_names});
  }
  static constexpr auto read = &read_cell_payload;
  // Content-addressed keys mean a collision must carry an identical
  // payload; compare via the canonical serialization so every field
  // participates.
  static bool same(const CachedCell& a, const CachedCell& b) {
    std::string sa;
    std::string sb;
    write(sa, a);
    write(sb, b);
    return sa == sb;
  }
};

template <>
struct SweepCache::Kind<MapperPtr> {
  using Value = MapperPtr;
  static constexpr const char* kName = "mapper";
  static constexpr int kEvictRank = 0;  // bulky and rebuildable
  static constexpr auto kTable = &Tables::mappers;
  static void write(std::string& out, const MapperPtr& state) {
    append_mapper_payload(out, *state);
  }
  static bool read(const JsonValue& object, MapperPtr& out) {
    auto state = std::make_shared<MapperState>();
    out = state;
    return read_mapper_payload(object, *state);
  }
  // A snapshot's coarse half accumulates lazily, so two correct
  // snapshots of one key can differ; any of them may win a collision.
  static bool same(const MapperPtr&, const MapperPtr&) { return true; }
};

template <typename F>
void SweepCache::for_each_kind(F&& f) {
  f(Kind<std::int64_t>{});
  f(Kind<CachedCell>{});
  f(Kind<MapperPtr>{});
}

template <typename V>
std::optional<V> SweepCache::find(const Fingerprint& key, Counter hits,
                                  Counter misses) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Table<V>& table = tables_.*Kind<V>::kTable;
  const auto it = table.find(key);
  if (it == table.end()) {
    ++(stats_.*misses);
    return std::nullopt;
  }
  ++(stats_.*hits);
  it->second.untouched_gen.reset();  // touched: stamped fresh on the next save
  return it->second.value;
}

template <typename V>
void SweepCache::store(const Fingerprint& key, V value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  (tables_.*Kind<V>::kTable)
      .insert_or_assign(key, Entry<V>{std::move(value), std::nullopt});
}

std::optional<CachedCell> SweepCache::find_cell(const Fingerprint& key) {
  return find<CachedCell>(key, &SweepCacheStats::cell_hits,
                          &SweepCacheStats::cell_misses);
}

void SweepCache::store_cell(const Fingerprint& key, CachedCell cell) {
  store(key, std::move(cell));
}

std::optional<std::int64_t> SweepCache::find_all_fine(const Fingerprint& key) {
  return find<std::int64_t>(key, &SweepCacheStats::all_fine_hits,
                            &SweepCacheStats::all_fine_misses);
}

void SweepCache::store_all_fine(const Fingerprint& key, std::int64_t cycles) {
  store(key, cycles);
}

MapperPtr SweepCache::find_mapper(const Fingerprint& key) {
  return find<MapperPtr>(key, &SweepCacheStats::mapper_restores,
                         &SweepCacheStats::mapper_builds)
      .value_or(nullptr);
}

void SweepCache::store_mapper(const Fingerprint& key, MapperPtr state) {
  store(key, std::move(state));
}

void SweepCache::set_save_size_cap(std::uint64_t bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  save_size_cap_ = bytes;
}

SweepCacheStats SweepCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SweepCacheStats total = stats_;
  total.cells = tables_.cells.size();
  return total;
}

void SweepCache::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = SweepCacheStats{};
}

SweepCache::Tables SweepCache::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tables_;
}

void SweepCache::merge_from(const SweepCache& other) {
  if (&other == this) return;

  // Snapshot the source first, so the two caches' locks are never held
  // together (no lock-order cycle if callers merge in both directions).
  // Merging counts as touching: the merged key is wanted by this cache,
  // so the next save stamps it with the fresh generation. An existing
  // entry wins a collision.
  Tables from = other.snapshot();
  const std::lock_guard<std::mutex> lock(mutex_);
  for_each_kind([&](auto kind) {
    using K = decltype(kind);
    for (auto& [key, entry] : from.*K::kTable) {
      [[maybe_unused]] const auto [it, inserted] =
          (tables_.*K::kTable).try_emplace(key, std::move(entry));
      assert(inserted || K::same(it->second.value, entry.value));
      it->second.untouched_gen.reset();
    }
  });
}

/// Parses a whole cache file with the strict whole-file rejection
/// contract (shared by load() and the merge-on-save re-read inside
/// save()). Every parsed entry is untouched at its on-disk generation.
/// Returns the header's generation counter; a rejected file returns
/// nullopt and leaves `out` empty.
std::optional<std::uint64_t> SweepCache::parse_file(const std::string& path,
                                                    Tables& out,
                                                    std::string* error) {
  auto reject = [&](const std::string& why) -> std::optional<std::uint64_t> {
    if (error) *error = why;
    out = Tables{};
    return std::nullopt;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return reject("cannot open " + path);

  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  std::uint64_t generation = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue object;
    if (!JsonParser(line).parse(object) ||
        object.kind != JsonValue::Kind::kObject) {
      return reject(cat(path, ":", line_no, ": not a JSON object"));
    }
    std::string kind;
    if (!get_string(object, "kind", kind)) {
      return reject(cat(path, ":", line_no, ": missing \"kind\""));
    }
    if (!saw_header) {
      std::int64_t schema = 0;
      std::int64_t algorithm = 0;
      if (kind != "header" ||
          !get_int(object, "schema_version", schema) ||
          !get_int(object, "fingerprint_algorithm", algorithm)) {
        return reject(cat(path, ":", line_no, ": missing header line"));
      }
      if (schema != kSweepCacheSchemaVersion) {
        return reject(cat(path, ": schema_version ", schema,
                          " (this build reads ", kSweepCacheSchemaVersion,
                          ")"));
      }
      if (algorithm != kFingerprintAlgorithmVersion) {
        return reject(cat(path, ": fingerprint_algorithm ", algorithm,
                          " (this build uses ", kFingerprintAlgorithmVersion,
                          ")"));
      }
      if (!read_gen(object, "generation", generation)) {
        return reject(cat(path, ":", line_no, ": malformed generation"));
      }
      saw_header = true;
      continue;
    }

    std::string key_hex;
    if (!get_string(object, "key", key_hex)) {
      return reject(cat(path, ":", line_no, ": missing \"key\""));
    }
    const std::optional<Fingerprint> key = Fingerprint::from_hex(key_hex);
    if (!key) {
      return reject(cat(path, ":", line_no, ": malformed key"));
    }
    std::uint64_t gen = 0;
    if (!read_gen(object, "gen", gen)) {
      return reject(cat(path, ":", line_no, ": malformed gen"));
    }
    std::string why = cat("unknown kind \"", kind, "\"");
    for_each_kind([&](auto k) {
      using K = decltype(k);
      if (kind != K::kName) return;
      Entry<typename K::Value> entry{{}, gen};
      if (!K::read(object, entry.value)) {
        why = cat("malformed ", K::kName, " entry");
      } else if (!(out.*K::kTable).emplace(*key, std::move(entry)).second) {
        why = "duplicate key";
      } else {
        why.clear();
      }
    });
    if (!why.empty()) return reject(cat(path, ":", line_no, ": ", why));
  }
  if (in.bad()) return reject("read error on " + path);
  if (!saw_header) return reject(path + ": empty cache file (no header)");
  return generation;
}

bool SweepCache::load(const std::string& path, std::string* error) {
  Tables file;
  if (!parse_file(path, file, error)) return false;

  const std::lock_guard<std::mutex> lock(mutex_);
  tables_ = std::move(file);
  stats_.entries_loaded = 0;
  for_each_kind([&](auto kind) {
    stats_.entries_loaded += (tables_.*decltype(kind)::kTable).size();
  });
  return true;
}

bool SweepCache::save(const std::string& path, std::string* error) const {
  // Serialize the whole load-merge-evict-write cycle against other
  // processes saving to the same path. The lock lives in a sidecar so it
  // survives the rename below (locking `path` itself would lock an
  // inode the rename is about to orphan).
  const ScopedFileLock file_lock(path + ".lock");
  if (!file_lock.held()) warn_lock_degraded(path);

  // Merge-on-save: union whatever another writer persisted since we
  // loaded (or a pre-existing file we never loaded). Our in-memory
  // entry wins a collision — both sides computed it from the same
  // fingerprinted inputs, so the payloads match (asserted in debug for
  // cells). A corrupt or version-mismatched file fails the strict parse
  // and is simply overwritten; that is the strict-rejection backstop.
  Tables disk;
  const std::uint64_t new_gen = parse_file(path, disk, nullptr).value_or(0) + 1;

  // The whole file is rendered into one buffer, header first, so the
  // eviction policy can work in serialized bytes — the unit the size cap
  // is expressed in. Each entry line is recorded by its byte range. Lines
  // come out in canonical file order: the kinds in for_each_kind order,
  // each the key-ordered merge of the in-memory and on-disk tables.
  struct Line {
    std::uint64_t gen;
    int rank;
    std::size_t begin;
    std::size_t end;
  };
  std::string content;
  append(content, "{\"kind\":\"header\",\"schema_version\":",
         kSweepCacheSchemaVersion, ",\"fingerprint_algorithm\":",
         kFingerprintAlgorithmVersion, ",\"generation\":", new_gen,
         ",\"generator\":\"amdrel\"}\n");
  const std::size_t header_size = content.size();
  std::vector<Line> lines;
  std::uint64_t cap = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!file_lock.held()) ++stats_.lock_degraded;
    cap = save_size_cap_;
    for_each_kind([&](auto kind) {
      using K = decltype(kind);
      const auto& ours = tables_.*K::kTable;
      const auto& theirs = disk.*K::kTable;
      auto add = [&](const Fingerprint& key, std::uint64_t gen,
                     const auto& value) {
        const std::size_t begin = content.size();
        append(content, "{\"kind\":\"", K::kName, "\",\"key\":\"", key,
               "\",\"gen\":", gen, ',');
        K::write(content, value);
        content += "}\n";
        lines.push_back(Line{gen, K::kEvictRank, begin, content.size()});
      };
      // Touched-in-memory entries get the fresh generation; loaded but
      // untouched entries keep aging, unless a concurrent writer's save
      // stamped the disk copy younger.
      for (auto a = ours.begin(), b = theirs.begin();
           a != ours.end() || b != theirs.end();) {
        if (a == ours.end() || (b != theirs.end() && b->first < a->first)) {
          add(b->first, *b->second.untouched_gen, b->second.value);
          ++b;
          continue;
        }
        std::uint64_t gen = a->second.untouched_gen.value_or(new_gen);
        if (b != theirs.end() && !(a->first < b->first)) {
          assert(K::same(a->second.value, b->second.value));
          gen = std::max(gen, *b->second.untouched_gen);
          ++b;
        }
        add(a->first, gen, a->second.value);
        ++a;
      }
    });
  }

  // Eviction, inside the same critical section and strictly AFTER the
  // union: drop lines until the file fits the cap, oldest generation
  // first; at equal age by eviction rank (mapper snapshots, then
  // all-fine entries, then cells), then by key — a kind's lines are in
  // key order, so their offsets break that tie. Deterministic, so
  // identical caches still serialize byte-identically.
  if (cap > 0 && content.size() > cap) {
    std::vector<std::size_t> oldest(lines.size());
    std::iota(oldest.begin(), oldest.end(), std::size_t{0});
    std::sort(oldest.begin(), oldest.end(), [&](std::size_t a, std::size_t b) {
      return std::tie(lines[a].gen, lines[a].rank, lines[a].begin) <
             std::tie(lines[b].gen, lines[b].rank, lines[b].begin);
    });
    std::uint64_t total = content.size();
    std::size_t dropped = 0;
    while (dropped < oldest.size() && total > cap) {
      Line& line = lines[oldest[dropped++]];
      total -= line.end - line.begin;
      line.end = line.begin;
    }
    std::string kept = content.substr(0, header_size);
    for (const Line& line : lines) {
      kept.append(content, line.begin, line.end - line.begin);
    }
    content = std::move(kept);
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.entries_evicted += dropped;
  }

  // With the lock held no other writer can have an in-flight temp, so
  // any "<path>.tmp.*" leftover is from a crashed writer and is swept.
  // In degraded mode a matching temp may be live — leave it alone.
  if (file_lock.held()) remove_stale_temps(path);

  // Write-to-temp + rename keeps the save atomic: a failed or
  // interrupted write can never destroy the previously valid cache, and
  // a concurrent reader sees either the old file or the new one, never
  // a truncated half. The temp name is unique per (process, sequence),
  // so even two DEGRADED-lock writers cannot stomp each other's temp —
  // the last rename wins wholesale, losing the other's entries but
  // never mixing bytes.
  const std::string temp = unique_temp_path(path);
  {
    std::ofstream out(temp, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out.good()) {
      if (error) *error = "cannot write " + temp;
      std::remove(temp.c_str());
      return false;
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    if (error) *error = "cannot rename " + temp + " to " + path;
    std::remove(temp.c_str());
    return false;
  }
  return true;
}

}  // namespace amdrel::core
