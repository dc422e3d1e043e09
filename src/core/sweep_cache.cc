#include "core/sweep_cache.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <fstream>
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

// True when every item of `row` is an integer.
bool all_ints(const JsonValue& row) {
  return std::all_of(row.items.begin(), row.items.end(),
                     [](const JsonValue& item) {
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
      energy->items.size() != 4 || !all_ints(*energy)) {
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

/// Exclusive advisory lock on a sidecar lock file, held for the
/// load-merge-write cycle in save(). The lock file is created on
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

// The two persisted entry kinds. Each knows its line name and payload
// codec; every per-kind loop below visits them through for_each_kind, in
// file order.

template <>
struct SweepCache::Kind<std::int64_t> {
  using Value = std::int64_t;
  static constexpr const char* kName = "all_fine";
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

template <typename F>
void SweepCache::for_each_kind(F&& f) {
  f(Kind<std::int64_t>{});
  f(Kind<CachedCell>{});
}

template <typename V>
std::optional<V> SweepCache::find(const Table<V>& table, const Fingerprint& key,
                                  Counter hits, Counter misses) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = table.find(key);
  if (it == table.end()) {
    ++(stats_.*misses);
    return std::nullopt;
  }
  ++(stats_.*hits);
  return it->second;
}

template <typename V>
void SweepCache::store(Table<V>& table, const Fingerprint& key, V value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  table.insert_or_assign(key, std::move(value));
}

std::optional<CachedCell> SweepCache::find_cell(const Fingerprint& key) {
  return find(tables_.cells, key, &SweepCacheStats::cell_hits,
              &SweepCacheStats::cell_misses);
}

void SweepCache::store_cell(const Fingerprint& key, CachedCell cell) {
  store(tables_.cells, key, std::move(cell));
}

std::optional<std::int64_t> SweepCache::find_all_fine(const Fingerprint& key) {
  return find(tables_.all_fine, key, &SweepCacheStats::all_fine_hits,
              &SweepCacheStats::all_fine_misses);
}

void SweepCache::store_all_fine(const Fingerprint& key, std::int64_t cycles) {
  store(tables_.all_fine, key, cycles);
}

void SweepCache::count_mapper_build() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.mapper_builds;
}

MapperPtr SweepCache::find_mapper(const Fingerprint& key) {
  return find(mappers_, key, &SweepCacheStats::mapper_restores,
              &SweepCacheStats::mapper_builds)
      .value_or(nullptr);
}

void SweepCache::store_mapper(const Fingerprint& key, MapperPtr state) {
  store(mappers_, key, std::move(state));
}

SweepCacheStats SweepCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SweepCacheStats total = stats_;
  total.cells = tables_.cells.size();
  return total;
}

/// Parses a whole cache file with the strict whole-file rejection
/// contract (shared by load() and the merge-on-save re-read inside
/// save()). A rejected file returns false and leaves `out` empty.
bool SweepCache::parse_file(const std::string& path, Tables& out,
                            std::string* error) {
  auto reject = [&](const std::string& why) {
    if (error) *error = why;
    out = Tables{};
    return false;
  };

  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return reject("cannot open " + path);

  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
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
    std::string why = cat("unknown kind \"", kind, "\"");
    for_each_kind([&](auto k) {
      using K = decltype(k);
      if (kind != K::kName) return;
      typename K::Value value{};
      if (!K::read(object, value)) {
        why = cat("malformed ", K::kName, " entry");
      } else if (!(out.*K::kTable).emplace(*key, std::move(value)).second) {
        why = "duplicate key";
      } else {
        why.clear();
      }
    });
    if (!why.empty()) return reject(cat(path, ":", line_no, ": ", why));
  }
  if (in.bad()) return reject("read error on " + path);
  if (!saw_header) return reject(path + ": empty cache file (no header)");
  return true;
}

bool SweepCache::load(const std::string& path, std::string* error) {
  Tables file;
  if (!parse_file(path, file, error)) return false;

  const std::lock_guard<std::mutex> lock(mutex_);
  tables_ = std::move(file);
  stats_.entries_loaded = tables_.all_fine.size() + tables_.cells.size();
  return true;
}

bool SweepCache::save(const std::string& path, std::string* error) const {
  // Serialize the whole load-merge-write cycle against other processes
  // saving to the same path. The lock lives in a sidecar so it survives
  // the rename below (locking `path` itself would lock an inode the
  // rename is about to orphan).
  const ScopedFileLock file_lock(path + ".lock");
  if (!file_lock.held()) warn_lock_degraded(path);

  // Merge-on-save: union whatever another writer persisted since we
  // loaded (or a pre-existing file we never loaded). Our in-memory
  // entry wins a collision — both sides computed it from the same
  // fingerprinted inputs, so the payloads match (asserted in debug for
  // cells). A corrupt or version-mismatched file fails the strict parse
  // and is simply overwritten; that is the strict-rejection backstop.
  Tables disk;
  parse_file(path, disk, nullptr);

  // The whole file is rendered into one buffer, header first. Lines come
  // out in canonical file order: the kinds in for_each_kind order, each
  // the key-ordered merge of the in-memory and on-disk tables.
  std::string content;
  append(content, "{\"kind\":\"header\",\"schema_version\":",
         kSweepCacheSchemaVersion, ",\"fingerprint_algorithm\":",
         kFingerprintAlgorithmVersion, ",\"generator\":\"amdrel\"}\n");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!file_lock.held()) ++stats_.lock_degraded;
    for_each_kind([&](auto kind) {
      using K = decltype(kind);
      const auto& ours = tables_.*K::kTable;
      const auto& theirs = disk.*K::kTable;
      auto add = [&](const Fingerprint& key, const auto& value) {
        append(content, "{\"kind\":\"", K::kName, "\",\"key\":\"", key,
               "\",");
        K::write(content, value);
        content += "}\n";
      };
      for (auto a = ours.begin(), b = theirs.begin();
           a != ours.end() || b != theirs.end();) {
        if (a == ours.end() || (b != theirs.end() && b->first < a->first)) {
          add(b->first, b->second);
          ++b;
          continue;
        }
        if (b != theirs.end() && !(a->first < b->first)) {
          assert(K::same(a->second, b->second));
          ++b;
        }
        add(a->first, a->second);
        ++a;
      }
    });
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
