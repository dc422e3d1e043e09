#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/explorer.h"
#include "core/schema.h"
#include "core/sweep_cache.h"

namespace amdrel::core {

// The artifact schema version (kSweepSchemaVersion) lives with every
// other persisted-format constant in core/schema.h. Bump on any change
// to the field set, field meaning, or formatting of sweep_to_json /
// sweep_to_csv — the golden tests pin the emissions byte-for-byte, so a
// format change must be an explicit, reviewed event.

/// Serializes a sweep as a stable-schema JSON document:
///
///   {
///     "schema_version": 3,
///     "generator": "amdrel",
///     "apps": ["ofdm", ...],
///     "cells": [ { "app": "ofdm", "a_fpga": 1500, "cgcs": 2,
///                  "platform_cost": 2076, "constraint": 60000,
///                  "strategy": "greedy", "ordering": "weight",
///                  "objective": "timing", "energy_budget_pj": 0.0000,
///                  "initial_cycles": N, "final_cycles": N,
///                  "cycles_in_cgc": N, "t_fpga": N, "t_coarse": N,
///                  "t_comm": N, "reconfig_cycles": N,
///                  "floorplan_cost": 0.0000,
///                  "initial_energy_pj": 202988452.0000,
///                  "energy_pj": 942580.0000, "moved": N,
///                  "moved_blocks": ["BB22", ...],
///                  "met": true, "reduction_percent": "46.10",
///                  "energy_reduction_percent": "99.54",
///                  "engine_iterations": N, "app_pareto": true,
///                  "global_pareto": false }, ... ],
///     "app_pareto": { "ofdm": [0, 3], ... },
///     "global_pareto": [0, 17]
///   }
///
/// Cells appear in SweepSummary order (app-major, then area, CGC count,
/// constraint, energy budget, strategy, ordering); pareto lists hold
/// indices into "cells". reduction_percent / energy_reduction_percent
/// are strings so the emission stays byte-stable (fixed "%.2f"
/// rendering, no float round-trip drift); energy pJ fields render with
/// fixed "%.4f". Output is deterministic: byte-identical for identical
/// sweeps, regardless of thread count.
std::string sweep_to_json(const SweepSummary& summary);

/// Serializes a sweep as CSV: a fixed header row then one row per cell,
/// same order and fields as the JSON (moved_blocks joined with ';',
/// booleans as true/false). Deterministic like sweep_to_json.
std::string sweep_to_csv(const SweepSummary& summary);

/// Serializes the sweep cache's hit/miss counters as a small JSON stats
/// document (`amdrelc explore --cache-stats`, the CI cache-efficacy
/// gate). Deliberately a SEPARATE document from sweep_to_json: counters
/// vary between cold and warm runs, while the sweep emission itself is
/// pinned byte-identical regardless of cache state.
///
///   {
///     "schema_version": <kSweepCacheSchemaVersion>,
///     "generator": "amdrel",
///     "cell_hits": N, "cell_misses": N, "cell_hit_rate": "0.50",
///     "mapper_restores": N, "mapper_builds": N,
///     "all_fine_hits": N, "all_fine_misses": N,
///     "cells": N, "entries_loaded": N,
///     "lock_degraded": N
///   }
///
/// cell_hit_rate is hits / (hits + misses) rendered "%.2f" ("0.00" when
/// no lookups happened), a string for the same byte-stability reason as
/// reduction_percent.
std::string cache_stats_to_json(const SweepCacheStats& stats);

/// Streaming partial results (`amdrelc serve --stream-partial`): a
/// schema-v3 NDJSON surface written shard-by-shard as workers deliver,
/// so a long fleet sweep is inspectable before the merged artifact
/// exists. One header line:
///
///   {"kind":"sweep_partial","schema_version":3,"generator":"amdrel",
///    "shards":N}
///
/// then, per finished shard — in COMPLETION order (nondeterministic
/// across runs; the final merged artifact is the deterministic one) — a
/// shard line and its cells in slot order:
///
///   {"kind":"shard","shard":S,"used":U}
///   {"kind":"cell","shard":S,"slot":I, "app": ..., ...}
///
/// Cell fields are exactly the sweep_to_json cell fields minus the
/// pareto markers (fronts exist only once every cell has landed),
/// rendered byte-identically.
void write_partial_stream_header(std::ostream& os, std::size_t shards);
void write_partial_stream_shard(std::ostream& os,
                                const std::vector<std::string>& apps,
                                std::size_t shard, const SweepCell* cells,
                                std::size_t used);

}  // namespace amdrel::core
