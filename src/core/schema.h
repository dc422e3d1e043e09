#pragma once

// The single home for every persisted-format version constant. Three
// surfaces persist or stream bytes across build boundaries — the sweep
// JSON/CSV artifact, the cache file, and the sweep-service wire — and
// each carries its own version so a reader can reject data written by an
// incompatible build before trusting a single field. Keeping all of them
// (plus the fingerprint algorithm version that keys the cache) in one
// header makes a bump a visible, reviewable event: tests/schema_test.cc
// golden-pins these values, so changing any of them requires touching
// both files in the same commit.

namespace amdrel::core {

/// Version of the fingerprint ALGORITHM (mix order, field set, seeds).
/// Mixed into every fingerprint, so any change to what gets hashed — not
/// just how — must bump it: otherwise stale cache entries keyed by the
/// old algorithm would collide with the new one.
///  v3: MethodologyOptions grew the reconfiguration model
///      (bitstream_cycles_per_unit, prefetch_overlap,
///      floorplan_cost_per_unit, regions).
///  v4: the FPGA clock period and CGC register-bank size left the keys.
inline constexpr int kFingerprintAlgorithmVersion = 4;

/// Schema version of the sweep JSON/CSV artifact (core/sweep_io.h).
///  v3: cells gained reconfig_cycles and floorplan_cost columns.
inline constexpr int kSweepSchemaVersion = 3;

/// Schema version of the cache FILE (core/sweep_cache.h). Distinct from
/// kSweepSchemaVersion: the artifact and the cache evolve independently.
///  v4: cell payloads gained t_reconfig and floorplan_bits fields.
///  v5: cell payloads carry "kernels_found" (the step-3 list's length)
///      in place of the "kernels" rows.
///  v6: the file holds only "all_fine" and "cell" lines; "mapper" lines,
///      the header's "generation" and each line's "gen" stamp are gone.
inline constexpr int kSweepCacheSchemaVersion = 6;

/// Version of the sweep-service wire protocol (core/wire.h). Covers the
/// framing lines; the cell payload itself is additionally guarded by
/// kSweepCacheSchemaVersion in the wire header.
///  v2: cell payloads gained t_reconfig and floorplan_bits fields.
///  v3: bidirectional control lines for socket transports — coordinator
///      -> worker "assign" (shard batch + retry generation) and
///      "shutdown", informational "shard_ack"; worker -> coordinator
///      "round_done" after each assign batch. The one-directional
///      static stream (wire_header / shard / cell / worker_done) is
///      unchanged byte-for-byte.
///  v4: "shard_ack" removed; forked workers speak the round protocol on
///      stdin/stdout, so every serve worker runs assign rounds.
///  v5: one grammar: a round ends at its last assigned shard, so
///      "round_done" and the assign line's "retry" are gone, and the
///      one-shot stream is a one-round session without "shutdown".
inline constexpr int kSweepWireProtocolVersion = 5;

}  // namespace amdrel::core
