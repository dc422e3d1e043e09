#include "core/wire.h"

#include <cstdint>
#include <ostream>
#include <string_view>

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

// Walks a cell line in encode_cell's layout. Values go through the tree
// parser's own scanners and narrowing (core/json_lines.h), so a value
// the cursor reads is the value the tree would hold.
class CellCursor {
 public:
  explicit CellCursor(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool literal(std::string_view text) {
    const std::string_view rest(p_, static_cast<std::size_t>(end_ - p_));
    if (rest.substr(0, text.size()) != text) return false;
    p_ += text.size();
    return true;
  }

  template <typename T>
  bool integer(T& out) {
    std::int64_t value = 0;
    return jsonl::scan_int(p_, end_, value) && jsonl::narrow(value, out);
  }

  bool bits(double& out) {
    std::int64_t value = 0;
    if (!jsonl::scan_int(p_, end_, value)) return false;
    out = jsonl::bits_to_double(value);
    return true;
  }

  bool boolean(bool& out) {
    out = literal("true");
    return out || literal("false");
  }

  bool string(std::string& out) { return jsonl::scan_string(p_, end_, out); }

  /// A JSON array of `read(item)` items, "[]" included.
  template <typename T, typename Read>
  bool array(std::vector<T>& items, Read read) {
    items.clear();
    if (!literal("[")) return false;
    if (literal("]")) return true;
    do {
      if (!read(items.emplace_back())) return false;
    } while (literal(","));
    return literal("]");
  }

  bool at_end() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

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

bool decode_cell_line(std::string_view line, std::size_t& shard,
                      std::size_t& slot, PartitionReport& r,
                      std::vector<std::string>& moved_names) {
  CellCursor in(line);
  std::int64_t objective = 0;
  if (!(in.literal("{\"kind\":\"cell\",\"shard\":") && in.integer(shard) &&
        in.literal(",\"slot\":") && in.integer(slot) &&
        in.literal(",\"app\":") && in.string(r.app) &&
        in.literal(",\"constraint\":") && in.integer(r.timing_constraint) &&
        in.literal(",\"objective\":") && in.integer(objective) &&
        objective >= 0 &&
        objective <= static_cast<int>(ObjectiveKind::kCombined) &&
        in.literal(",\"energy_budget_bits\":") && in.bits(r.energy_budget_pj) &&
        in.literal(",\"initial_cycles\":") && in.integer(r.initial_cycles) &&
        in.literal(",\"initial_energy_bits\":") &&
        in.bits(r.initial_energy_pj) &&
        in.literal(",\"initial_meets\":") && in.boolean(r.initial_meets) &&
        in.literal(",\"kernels_found\":") && in.integer(r.kernels_found) &&
        in.literal(",\"moved\":") &&
        in.array(r.moved, [&](ir::BlockId& id) { return in.integer(id); }) &&
        in.literal(",\"moved_names\":") &&
        in.array(moved_names,
                 [&](std::string& name) { return in.string(name); }) &&
        moved_names.size() == r.moved.size() &&
        in.literal(",\"t_fpga\":") && in.integer(r.cost.t_fpga) &&
        in.literal(",\"t_coarse\":") && in.integer(r.cost.t_coarse) &&
        in.literal(",\"t_comm\":") && in.integer(r.cost.t_comm) &&
        in.literal(",\"t_reconfig\":") && in.integer(r.cost.t_reconfig) &&
        in.literal(",\"floorplan_bits\":") && in.bits(r.floorplan_cost) &&
        in.literal(",\"final_cycles\":") && in.integer(r.final_cycles) &&
        in.literal(",\"cycles_in_cgc\":") && in.integer(r.cycles_in_cgc) &&
        in.literal(",\"energy_bits\":[") && in.bits(r.energy.fine_pj) &&
        in.literal(",") && in.bits(r.energy.coarse_pj) && in.literal(",") &&
        in.bits(r.energy.reconfig_pj) && in.literal(",") &&
        in.bits(r.energy.comm_pj) && in.literal("],\"met\":") &&
        in.boolean(r.met) && in.literal(",\"engine_iterations\":") &&
        in.integer(r.engine_iterations) && in.literal("}") && in.at_end())) {
    return false;
  }
  r.objective = static_cast<ObjectiveKind>(objective);
  return true;
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
