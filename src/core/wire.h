#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/json_lines.h"
#include "core/sweep_cache.h"

namespace amdrel::core::wire {

// ---------------------------------------------------------------------------
// Line codecs for the sweep-service wire protocol (one JSON object per
// line; doubles travel as IEEE-754 bit patterns inside the canonical
// cell payload of core/sweep_cache.h). Promoted out of sweep_service.cc
// so transports, the coordinator, workers and tests all share ONE
// encode/decode per line kind instead of re-parsing ad hoc.
//
// One grammar. A serve worker, forked (over a socketpair on its
// stdin/stdout) or dialed in with `worker --connect`, reads control
// lines and answers with data lines:
//   coordinator -> worker:
//     {"kind":"assign","shards":[...]}          // compute these next
//     {"kind":"shutdown"}                       // no further work
//   worker -> coordinator:
//     {"kind":"wire_header","protocol":P,"schema_version":S,
//      "fingerprint_algorithm":F,"shards":N}    // exactly once, first
//     per assign batch, one group per shard:
//     {"kind":"shard","shard":S,"used":U}       //   the shard line,
//     {"kind":"cell","shard":S,"slot":I,...}    //   then its U cells,
//                                               //   slots 0..U-1 in order
//     {"kind":"worker_done","cells":M}          // after shutdown; M =
//                                               //   cells over all rounds
// A round ends when the last shard of its batch lands; nothing marks
// it on the wire. The one-shot stream of run_sweep_worker /
// consume_worker_stream (core/sweep_service.h) is this session with
// one implicit round and no shutdown line.
//
// Encoders for the potentially large data lines (header, shard, cell,
// worker_done) write a complete line INCLUDING the trailing newline to
// an ostream; the small control lines return the full line (also
// newline-terminated) as a string for channel writers. Decoders take a
// parsed JSON object (see parse_line) and return false on a missing or
// malformed field — never throwing, so callers own the error story.
//
// Cell lines, nearly all of a stream, also have decode_cell_line: a
// cursor over the line text that expects encode_cell's exact layout (key
// order, no whitespace) and builds no tree. It declines on the first
// byte that departs from it, and the caller takes the tree path, which
// still defines the accepted lines and their errors. A line the cursor
// accepts decodes to the cell the tree path gives.
// ---------------------------------------------------------------------------

enum class LineKind {
  kUnknown,
  kHeader,
  kShard,
  kCell,
  kWorkerDone,
  kAssign,
  kShutdown,
};

struct Header {
  int protocol = 0;
  int schema_version = 0;
  int fingerprint_algorithm = 0;
  std::size_t shards = 0;
};

struct ShardBegin {
  std::size_t shard = 0;
  std::size_t used = 0;
};

struct Cell {
  std::size_t shard = 0;
  std::size_t slot = 0;
  CachedCell payload;
};

struct WorkerDone {
  std::size_t cells = 0;
};

struct Assign {
  std::vector<std::size_t> shards;
};

/// Parses one wire line into a JSON object. False on anything that is
/// not a single well-formed JSON object.
bool parse_line(const std::string& line, jsonl::JsonValue& object);

/// The "kind" dispatch; kUnknown for a missing or unrecognized kind.
LineKind line_kind(const jsonl::JsonValue& object);

void encode_header(std::ostream& os, const Header& header);
bool decode_header(const jsonl::JsonValue& object, Header& header);

void encode_shard_begin(std::ostream& os, const ShardBegin& shard);
bool decode_shard_begin(const jsonl::JsonValue& object, ShardBegin& shard);

/// The cell payload is the canonical codec of core/sweep_cache.h, shared
/// with the cache file byte-for-byte.
void encode_cell(std::ostream& os, std::size_t shard, std::size_t slot,
                 const PartitionReport& report,
                 const std::vector<std::string>& moved_names);
bool decode_cell(const jsonl::JsonValue& object, Cell& cell);

/// The tree-free fast path for a cell line (no trailing newline), written
/// straight into the caller's slot. False, with the outputs partly
/// written, when `line` is not exactly in encode_cell's layout.
bool decode_cell_line(std::string_view line, std::size_t& shard,
                      std::size_t& slot, PartitionReport& report,
                      std::vector<std::string>& moved_names);

void encode_worker_done(std::ostream& os, const WorkerDone& done);
bool decode_worker_done(const jsonl::JsonValue& object, WorkerDone& done);

std::string encode_assign(const Assign& assign);
bool decode_assign(const jsonl::JsonValue& object, Assign& assign);

std::string encode_shutdown();

}  // namespace amdrel::core::wire
