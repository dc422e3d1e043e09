#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/hybrid_mapper.h"
#include "core/json_lines.h"
#include "core/methodology.h"
#include "core/schema.h"

namespace amdrel::core {

// The on-disk cache schema version (kSweepCacheSchemaVersion) lives with
// every other persisted-format constant in core/schema.h. Bump on any
// change to the field set or meaning of the JSON-lines layout written by
// SweepCache::save; load() rejects files written with a different
// version (or a different kFingerprintAlgorithmVersion) and the caller
// starts cold — a stale cache must never produce results a fresh run
// would not.
// v2: cell lines carry the cost objective and energy results. Energy
// doubles are stored as IEEE-754 bit patterns (signed 64-bit integers),
// not decimal text, so a cache hit returns bit-identical values and the
// warm-vs-cold byte-identity contract extends to the energy columns.
// v3: HybridMapper snapshots persisted as "mapper" lines; the header
// carried a "generation" counter and every entry a "gen" stamp, which
// drove a size-capped eviction policy.
// v4: cell lines carry the reconfiguration columns (t_reconfig cycles
// and the floorplan cost's IEEE-754 bit pattern).
// v5: cell lines carry "kernels_found", the kernel list's length, in
// place of the "kernels" rows; a cell line with "kernels" is malformed.
// v6: the file holds a header, "all_fine" lines and "cell" lines only.
// Mapper snapshots stay in memory, and there is no generation, "gen"
// stamp or eviction; a "mapper" line is an unknown kind.

/// One memoized sweep cell: everything sweep_design_space derives per
/// (app, platform, options, constraint) coordinate. moved_names duplicates report.moved as block names so a
/// hit never needs the CDFG.
struct CachedCell {
  PartitionReport report;
  std::vector<std::string> moved_names;
};

/// Canonical serialization of a cell result's payload fields (everything
/// after the "kind"/"key" envelope of a cache "cell" line, in fixed field
/// order, no surrounding braces), appended with
/// text::append(out, CellPayload{report, moved_names}). Shared verbatim
/// by the cache file and the sweep service's wire "cell" lines
/// (core/wire.cc), so a cell that travelled coordinator<->worker is
/// bit-identical to one that round-tripped through the cache.
struct CellPayload {
  const PartitionReport& report;
  const std::vector<std::string>& moved_names;
};
void append_part(std::string& out, const CellPayload& payload);

/// Inverse of the CellPayload serialization over a parsed JSON object; false on any
/// missing, mistyped or inconsistent field (never coerces).
bool read_cell_payload(const jsonl::JsonValue& object, CachedCell& cell);

/// Hit/miss counters. "builds" are cold HybridMapper constructions (the
/// full per-block fine-grain mapping); "restores" are snapshot copies.
/// Counter values depend on thread interleaving (two workers can miss
/// the same key concurrently) — only the memoized RESULTS are
/// deterministic, which the property tests pin.
struct SweepCacheStats {
  std::uint64_t cell_hits = 0;
  std::uint64_t cell_misses = 0;
  std::uint64_t mapper_restores = 0;
  std::uint64_t mapper_builds = 0;
  std::uint64_t all_fine_hits = 0;
  std::uint64_t all_fine_misses = 0;
  std::uint64_t cells = 0;           ///< cell entries currently held
  std::uint64_t entries_loaded = 0;  ///< entries read by the last load()
  std::uint64_t lock_degraded = 0;   ///< saves that ran without the file lock
};

/// Content-addressed memoization store for design-space sweeps. Three
/// entry kinds, all keyed by fingerprints of the inputs that determine
/// the value:
///   - whole cell results       (cell_key: app x platform x options x
///                               constraint; persisted),
///   - all-fine-grain cycles    (shard_key: app x platform; resolves
///                               default constraints without a mapper;
///                               persisted),
///   - HybridMapper snapshots   (shard_key; in memory only; see
///                               find_mapper).
///
/// Thread-safe AND process-safe:
///   - In memory one mutex guards the entry tables and the counters.
///   - On disk, save() is merge-on-save under an advisory file lock
///     (sidecar "<path>.lock"): it re-loads the target file, unions it
///     with the in-memory entries and atomically renames a temp file
///     over the target. Two processes persisting to the same path
///     therefore lose no entries — content-addressed keys make the union
///     safe (equal keys imply equal payloads, asserted in debug builds
///     for cells).
///
/// Cached values are byte-identical to recomputation by construction
/// (they ARE prior results, addressed by everything that influences
/// them).
class SweepCache {
 public:
  SweepCache() = default;
  SweepCache(const SweepCache&) = delete;
  SweepCache& operator=(const SweepCache&) = delete;

  std::optional<CachedCell> find_cell(const Fingerprint& key);
  void store_cell(const Fingerprint& key, CachedCell cell);

  std::optional<std::int64_t> find_all_fine(const Fingerprint& key);
  void store_all_fine(const Fingerprint& key, std::int64_t cycles);

  /// Counts one cold HybridMapper build; the sweep's only mapper call.
  void count_mapper_build();

  /// The snapshot memo, used only by perfbench/perf_trace.cc and tests
  /// (the sweep takes no snapshots); it goes with ROADMAP item 2.
  std::shared_ptr<const MapperState> find_mapper(const Fingerprint& key);
  void store_mapper(const Fingerprint& key,
                    std::shared_ptr<const MapperState> state);

  /// One consistent snapshot of the counters, taken under the lock.
  SweepCacheStats stats() const;

  /// Loads a cache file written by save(), replacing the cell and
  /// all-fine entries (mapper snapshots are untouched). Strict: any parse
  /// error, schema/algorithm version mismatch, unknown line kind,
  /// duplicate or malformed key rejects the WHOLE file, leaves the cache
  /// unchanged and returns false with a diagnostic in *error — the
  /// caller warns and runs cold. A missing file is also reported as
  /// false (with a distinct message); it is the normal first-run case.
  bool load(const std::string& path, std::string* error);

  /// Persists every all-fine and cell entry as versioned JSON lines
  /// (header line first, then entries sorted by key per kind, so
  /// identical caches serialize byte-identically). Concurrent-writer
  /// safe:
  ///   1. takes an exclusive advisory lock on "<path>.lock" (flock;
  ///      created if absent, never deleted — unlink would race the
  ///      lock). A failed acquisition degrades to an unlocked save with
  ///      a one-shot stderr warning and a lock_degraded stats bump,
  ///   2. merge-on-save: re-loads `path` and unions it with the
  ///      in-memory entries, so another process's save between our load
  ///      and now is preserved, not clobbered (a corrupt or
  ///      version-mismatched on-disk file is discarded — the strict
  ///      rejection backstop — and simply overwritten),
  ///   3. writes a uniquely named temp file ("<path>.tmp.<pid>.<seq>")
  ///      and renames it over the target, so readers and a crash
  ///      mid-write never observe a torn file AND two degraded-lock
  ///      writers can never promote or delete each other's half-written
  ///      temp (the historical "<path>.tmp" shared name could). Stale
  ///      temps left by crashed writers are swept when the lock is held.
  /// The in-memory cache is NOT mutated (disk-only entries stay on
  /// disk); load() afterwards to absorb them. The lines are rendered
  /// straight from the tables under the in-memory lock, so a concurrent
  /// find or store waits for the render, never for the disk. Returns
  /// false with a diagnostic on I/O failure.
  bool save(const std::string& path, std::string* error) const;

 private:
  template <typename V>
  using Table = std::map<Fingerprint, V>;

  /// The two persisted entry kinds, in file order. Kind<V>
  /// (sweep_cache.cc) gives each its line name and payload codec; every
  /// per-kind loop goes through for_each_kind there, which visits them
  /// in file order.
  struct Tables {
    Table<std::int64_t> all_fine;
    Table<CachedCell> cells;
  };
  template <typename V>
  struct Kind;
  template <typename F>
  static void for_each_kind(F&& f);

  using Counter = std::uint64_t SweepCacheStats::*;
  template <typename V>
  std::optional<V> find(const Table<V>& table, const Fingerprint& key,
                        Counter hits, Counter misses);
  template <typename V>
  void store(Table<V>& table, const Fingerprint& key, V value);

  static bool parse_file(const std::string& path, Tables& out,
                         std::string* error);

  // Everything below is guarded by mutex_. save() is const (it only
  // reads the tables) but still counts degraded locks, so the counters
  // are mutable. stats_.cells is derived in stats(), never counted.
  mutable std::mutex mutex_;
  Tables tables_;
  Table<std::shared_ptr<const MapperState>> mappers_;  ///< find_mapper
  mutable SweepCacheStats stats_;
};

}  // namespace amdrel::core
