#include "core/wire.h"

#include <ostream>

#include "support/text.h"

namespace amdrel::core::wire {

using jsonl::JsonParser;
using jsonl::JsonValue;
using jsonl::get_int;
using jsonl::get_string;
using jsonl::to_int;
using text::append;

namespace {

// Each data line is built in one reused per-thread buffer and handed to
// the stream in one write.
template <typename... Parts>
void write_line(std::ostream& os, const Parts&... parts) {
  thread_local std::string line;
  line.clear();
  append(line, parts...);
  os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

bool get_version(const JsonValue& object, const char* name, int& out) {
  return get_int(object, name, out) && out >= 0;
}

}  // namespace

bool parse_line(const std::string& line, JsonValue& object) {
  return JsonParser(line).parse(object) &&
         object.kind == JsonValue::Kind::kObject;
}

LineKind line_kind(const JsonValue& object) {
  std::string kind;
  if (!get_string(object, "kind", kind)) return LineKind::kUnknown;
  if (kind == "wire_header") return LineKind::kHeader;
  if (kind == "shard") return LineKind::kShard;
  if (kind == "cell") return LineKind::kCell;
  if (kind == "worker_done") return LineKind::kWorkerDone;
  if (kind == "assign") return LineKind::kAssign;
  if (kind == "shutdown") return LineKind::kShutdown;
  return LineKind::kUnknown;
}

void encode_header(std::ostream& os, const Header& header) {
  write_line(os, "{\"kind\":\"wire_header\",\"protocol\":", header.protocol,
             ",\"schema_version\":", header.schema_version,
             ",\"fingerprint_algorithm\":", header.fingerprint_algorithm,
             ",\"shards\":", header.shards, "}\n");
}

bool decode_header(const JsonValue& object, Header& header) {
  return line_kind(object) == LineKind::kHeader &&
         get_version(object, "protocol", header.protocol) &&
         get_version(object, "schema_version", header.schema_version) &&
         get_version(object, "fingerprint_algorithm",
                     header.fingerprint_algorithm) &&
         get_int(object, "shards", header.shards);
}

void encode_shard_begin(std::ostream& os, const ShardBegin& shard) {
  write_line(os, "{\"kind\":\"shard\",\"shard\":", shard.shard,
             ",\"used\":", shard.used, "}\n");
}

bool decode_shard_begin(const JsonValue& object, ShardBegin& shard) {
  return line_kind(object) == LineKind::kShard &&
         get_int(object, "shard", shard.shard) &&
         get_int(object, "used", shard.used);
}

void encode_cell(std::ostream& os, std::size_t shard, std::size_t slot,
                 const PartitionReport& report,
                 const std::vector<std::string>& moved_names) {
  write_line(os, "{\"kind\":\"cell\",\"shard\":", shard, ",\"slot\":", slot,
             ',', CellPayload{report, moved_names}, "}\n");
}

bool decode_cell(const JsonValue& object, Cell& cell) {
  return line_kind(object) == LineKind::kCell &&
         get_int(object, "shard", cell.shard) &&
         get_int(object, "slot", cell.slot) &&
         read_cell_payload(object, cell.payload);
}

void encode_worker_done(std::ostream& os, const WorkerDone& done) {
  write_line(os, "{\"kind\":\"worker_done\",\"cells\":", done.cells, "}\n");
}

bool decode_worker_done(const JsonValue& object, WorkerDone& done) {
  return line_kind(object) == LineKind::kWorkerDone &&
         get_int(object, "cells", done.cells);
}

std::string encode_assign(const Assign& assign) {
  std::string line = "{\"kind\":\"assign\",\"shards\":[";
  for (std::size_t i = 0; i < assign.shards.size(); ++i) {
    append(line, i ? "," : "", assign.shards[i]);
  }
  line += "]}\n";
  return line;
}

bool decode_assign(const JsonValue& object, Assign& assign) {
  if (line_kind(object) != LineKind::kAssign) return false;
  const JsonValue* shards = object.find("shards");
  if (!shards || shards->kind != JsonValue::Kind::kArray) return false;
  assign.shards.resize(shards->items.size());
  for (std::size_t i = 0; i < assign.shards.size(); ++i) {
    if (!to_int(shards->items[i], assign.shards[i])) return false;
  }
  return true;
}

std::string encode_shutdown() { return "{\"kind\":\"shutdown\"}\n"; }

}  // namespace amdrel::core::wire
