// Wire codecs (core/wire.h): every line kind of the sweep-service
// protocol round-trips encode -> parse_line -> decode with its fields
// intact, and the data lines re-encode byte-identically — the property
// the coordinator's byte-identity guarantee stands on. Decoders must
// reject missing/mistyped fields with `false`, never by throwing.

#include "core/wire.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/json_lines.h"

namespace amdrel::core::wire {
namespace {

// Strips the trailing newline every encoder appends, so tests can also
// assert it was there.
std::string encoded_line(const std::string& with_newline) {
  EXPECT_FALSE(with_newline.empty());
  EXPECT_EQ(with_newline.back(), '\n');
  return with_newline.substr(0, with_newline.size() - 1);
}

jsonl::JsonValue parsed(const std::string& line) {
  jsonl::JsonValue object;
  EXPECT_TRUE(parse_line(line, object));
  return object;
}

TEST(WireTest, HeaderRoundTrips) {
  Header header;
  header.protocol = 3;
  header.schema_version = 7;
  header.fingerprint_algorithm = 2;
  header.shards = 12;

  std::ostringstream os;
  encode_header(os, header);
  const std::string line = encoded_line(os.str());
  const jsonl::JsonValue object = parsed(line);
  EXPECT_EQ(line_kind(object), LineKind::kHeader);

  Header out;
  ASSERT_TRUE(decode_header(object, out));
  EXPECT_EQ(out.protocol, 3);
  EXPECT_EQ(out.schema_version, 7);
  EXPECT_EQ(out.fingerprint_algorithm, 2);
  EXPECT_EQ(out.shards, 12u);

  std::ostringstream again;
  encode_header(again, out);
  EXPECT_EQ(again.str(), os.str());
}

TEST(WireTest, ShardBeginRoundTrips) {
  ShardBegin begin;
  begin.shard = 5;
  begin.used = 24;

  std::ostringstream os;
  encode_shard_begin(os, begin);
  const jsonl::JsonValue object = parsed(encoded_line(os.str()));
  EXPECT_EQ(line_kind(object), LineKind::kShard);

  ShardBegin out;
  ASSERT_TRUE(decode_shard_begin(object, out));
  EXPECT_EQ(out.shard, 5u);
  EXPECT_EQ(out.used, 24u);
}

TEST(WireTest, CellRoundTripsByteIdentically) {
  // A representative payload: doubles with non-terminating binary
  // fractions must survive bit-exactly (they travel as IEEE-754 bit
  // patterns, not decimal renderings).
  PartitionReport report;
  report.app = "ofdm \"quoted\"";
  report.timing_constraint = 60000;
  report.objective = ObjectiveKind::kCombined;
  report.energy_budget_pj = 0.1 + 0.2;  // 0.30000000000000004
  report.initial_cycles = 123456789;
  report.initial_energy_pj = 202988452.0625;
  report.initial_meets = false;
  report.final_cycles = 66543;
  report.cycles_in_cgc = 31234;
  report.floorplan_cost = 17.25;
  report.met = true;
  report.engine_iterations = 42;
  report.moved = {22, 7};  // ids must pair 1:1 with moved_names
  const std::vector<std::string> moved_names = {"BB22", "BB7"};

  std::ostringstream os;
  encode_cell(os, /*shard=*/3, /*slot=*/1, report, moved_names);
  const std::string line = encoded_line(os.str());
  const jsonl::JsonValue object = parsed(line);
  EXPECT_EQ(line_kind(object), LineKind::kCell);

  Cell cell;
  ASSERT_TRUE(decode_cell(object, cell));
  EXPECT_EQ(cell.shard, 3u);
  EXPECT_EQ(cell.slot, 1u);
  EXPECT_EQ(cell.payload.report.app, report.app);
  EXPECT_EQ(cell.payload.report.final_cycles, report.final_cycles);
  EXPECT_EQ(cell.payload.report.energy_budget_pj, report.energy_budget_pj);
  EXPECT_EQ(cell.payload.report.met, report.met);
  EXPECT_EQ(cell.payload.moved_names, moved_names);

  // decode -> re-encode is the identity on bytes: the guarantee the
  // coordinator's merged artifact rests on.
  std::ostringstream again;
  encode_cell(again, cell.shard, cell.slot, cell.payload.report,
              cell.payload.moved_names);
  EXPECT_EQ(again.str(), os.str());
}

// -0.0's bit pattern is INT64_MIN, whose magnitude (2^63) exceeds
// INT64_MAX; an energy budget of -0 must still cross the parser and the
// cell codec with its sign bit intact.
TEST(WireTest, Int64MinAndNegativeZeroRoundTrip) {
  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  jsonl::JsonValue value;
  ASSERT_TRUE(jsonl::JsonParser(std::to_string(min)).parse(value));
  EXPECT_EQ(value.kind, jsonl::JsonValue::Kind::kInt);
  EXPECT_EQ(value.integer, min);
  EXPECT_EQ(jsonl::double_to_bits(-0.0), min);
  EXPECT_FALSE(jsonl::JsonParser("-9223372036854775809").parse(value));
  EXPECT_FALSE(jsonl::JsonParser("9223372036854775808").parse(value));

  PartitionReport report;
  report.objective = ObjectiveKind::kEnergy;
  report.energy_budget_pj = -0.0;
  std::ostringstream os;
  encode_cell(os, /*shard=*/0, /*slot=*/0, report, {});
  Cell cell;
  ASSERT_TRUE(decode_cell(parsed(encoded_line(os.str())), cell));
  EXPECT_EQ(cell.payload.report.energy_budget_pj, 0.0);
  EXPECT_TRUE(std::signbit(cell.payload.report.energy_budget_pj));
}

TEST(WireTest, WorkerDoneRoundTrips) {
  WorkerDone done;
  done.cells = 96;

  std::ostringstream os;
  encode_worker_done(os, done);
  const jsonl::JsonValue object = parsed(encoded_line(os.str()));
  EXPECT_EQ(line_kind(object), LineKind::kWorkerDone);

  WorkerDone out;
  ASSERT_TRUE(decode_worker_done(object, out));
  EXPECT_EQ(out.cells, 96u);
}

TEST(WireTest, AssignRoundTrips) {
  Assign assign;
  assign.shards = {4, 0, 9};

  const std::string line = encoded_line(encode_assign(assign));
  const jsonl::JsonValue object = parsed(line);
  EXPECT_EQ(line_kind(object), LineKind::kAssign);

  Assign out;
  ASSERT_TRUE(decode_assign(object, out));
  EXPECT_EQ(out.shards, (std::vector<std::size_t>{4, 0, 9}));
  EXPECT_EQ(encode_assign(out), encode_assign(assign));
}

TEST(WireTest, EmptyAssignRoundTrips) {
  // An empty batch is legal on the wire, and a worker answers it with
  // no lines. The coordinator never sends one (it assigns only from a
  // non-empty queue); run_sweep_worker over no shards does.
  Assign assign;
  Assign out;
  ASSERT_TRUE(decode_assign(parsed(encoded_line(encode_assign(assign))),
                            out));
  EXPECT_TRUE(out.shards.empty());
}

TEST(WireTest, ShutdownEncodes) {
  const jsonl::JsonValue object = parsed(encoded_line(encode_shutdown()));
  EXPECT_EQ(line_kind(object), LineKind::kShutdown);
}

TEST(WireTest, ParseLineRejectsGarbage) {
  jsonl::JsonValue object;
  EXPECT_FALSE(parse_line("not json", object));
  EXPECT_FALSE(parse_line("", object));
  EXPECT_FALSE(parse_line("[1, 2]", object));  // array, not object
}

TEST(WireTest, UnknownKindIsUnknown) {
  EXPECT_EQ(line_kind(parsed("{\"kind\":\"mystery\"}")),
            LineKind::kUnknown);
  EXPECT_EQ(line_kind(parsed("{\"no_kind\":1}")), LineKind::kUnknown);
}

TEST(WireTest, DecodersRejectMissingFields) {
  Header header;
  EXPECT_FALSE(decode_header(parsed("{\"kind\":\"wire_header\"}"), header));

  ShardBegin begin;
  EXPECT_FALSE(
      decode_shard_begin(parsed("{\"kind\":\"shard\",\"used\":2}"), begin));

  Cell cell;
  EXPECT_FALSE(
      decode_cell(parsed("{\"kind\":\"cell\",\"shard\":0,\"slot\":0}"),
                  cell));

  WorkerDone done;
  EXPECT_FALSE(decode_worker_done(parsed("{\"kind\":\"worker_done\"}"),
                                  done));

  Assign assign;
  EXPECT_FALSE(decode_assign(parsed("{\"kind\":\"assign\"}"), assign));
  EXPECT_FALSE(decode_assign(
      parsed("{\"kind\":\"assign\",\"shards\":[-1]}"), assign));
}

// Every decode that narrows an int64 to a smaller field checks the
// range: 2^32 + k must not wrap to k.
TEST(WireTest, DecodersRejectIntegersPastTheFieldRange) {
  const std::string header =
      "{\"kind\":\"wire_header\",\"protocol\":4,\"schema_version\":5,"
      "\"fingerprint_algorithm\":3,\"shards\":1}";
  Header out;
  ASSERT_TRUE(decode_header(parsed(header), out));
  EXPECT_FALSE(decode_header(
      parsed("{\"kind\":\"wire_header\",\"protocol\":4294967300,"
             "\"schema_version\":4294967301,"
             "\"fingerprint_algorithm\":4294967299,\"shards\":1}"),
      out));
  EXPECT_FALSE(decode_header(
      parsed("{\"kind\":\"wire_header\",\"protocol\":4294967300,"
             "\"schema_version\":5,\"fingerprint_algorithm\":3,"
             "\"shards\":1}"),
      out));

  PartitionReport report;
  report.app = "a";
  report.engine_iterations = 2;
  report.kernels_found = 4;
  report.moved = {1, 2};
  std::ostringstream os;
  encode_cell(os, 0, 0, report, {"BB1", "BB2"});
  const std::string line = encoded_line(os.str());
  Cell cell;
  ASSERT_TRUE(decode_cell(parsed(line), cell));
  EXPECT_EQ(cell.payload.report.kernels_found, 4u);

  auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = line;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return parsed(text);
  };
  Cell bad;
  EXPECT_FALSE(decode_cell(
      edited("\"engine_iterations\":2", "\"engine_iterations\":4294967298"),
      bad));
  EXPECT_FALSE(decode_cell(edited("\"moved\":[1,2]", "\"moved\":[4294967297,2]"),
                           bad));
  EXPECT_FALSE(decode_cell(
      edited("\"kernels_found\":4", "\"kernels_found\":-4"), bad));
  EXPECT_FALSE(decode_cell(edited("\"kernels_found\":4,", ""), bad));
  EXPECT_FALSE(decode_cell(
      edited("\"kernels_found\":4,", "\"kernels\":[[1,1,1,1,1,1]],"), bad));
}

// No writer emits a leading zero, so "007" is malformed, not 7. A lone
// zero and -0 stay integers.
TEST(JsonLinesTest, RejectsLeadingZeros) {
  jsonl::JsonValue value;
  EXPECT_FALSE(jsonl::JsonParser("007").parse(value));
  EXPECT_FALSE(jsonl::JsonParser("-01").parse(value));
  EXPECT_FALSE(jsonl::JsonParser("00").parse(value));
  EXPECT_FALSE(parse_line("{\"kind\":\"shard\",\"shard\":007,\"used\":1}",
                          value));
  ASSERT_TRUE(jsonl::JsonParser("0").parse(value));
  EXPECT_EQ(value.integer, 0);
  ASSERT_TRUE(jsonl::JsonParser("-0").parse(value));
  EXPECT_EQ(value.integer, 0);
  ASSERT_TRUE(jsonl::JsonParser("[0,10,-105]").parse(value));
  EXPECT_EQ(value.items.at(2).integer, -105);
}

// RFC 8259 section 7: a byte below 0x20 inside a string must be escaped,
// and text::JsonEscaped always escapes it. DEL and UTF-8 bytes pass.
TEST(JsonLinesTest, RejectsRawControlBytesInStrings) {
  jsonl::JsonValue value;
  for (const char* text : {"\"a\tb\"", "\"a\nb\"", "\"\x01\"", "\"\x1f\""}) {
    EXPECT_FALSE(jsonl::JsonParser(text).parse(value)) << text;
  }
  EXPECT_FALSE(jsonl::JsonParser(std::string("\"a\0b\"", 5)).parse(value));
  ASSERT_TRUE(jsonl::JsonParser("\"a\\tb\\u001f\x7f\xc3\xa9\"").parse(value));
  EXPECT_EQ(value.string, "a\tb\x1f\x7f\xc3\xa9");
}

// A repeated key used to keep its first value, so a line could say
// "met":false and "met":true and read false.
TEST(JsonLinesTest, RejectsDuplicateKeys) {
  jsonl::JsonValue value;
  EXPECT_FALSE(
      jsonl::JsonParser("{\"met\":false,\"x\":1,\"met\":true}").parse(value));
  EXPECT_FALSE(parse_line("{\"kind\":\"shutdown\",\"kind\":\"assign\"}",
                          value));
  EXPECT_FALSE(jsonl::JsonParser("{\"a\":{\"b\":1,\"b\":1}}").parse(value));
  // The same key in two different objects is fine.
  EXPECT_TRUE(jsonl::JsonParser("{\"a\":{\"b\":1},\"c\":{\"b\":1}}")
                  .parse(value));
}

TEST(JsonLinesTest, ToIntAcceptsExactlyTheTargetRange) {
  auto value = [](std::int64_t v) {
    jsonl::JsonValue out;
    out.integer = v;
    return out;
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  int i = 7;
  EXPECT_TRUE(jsonl::to_int(value(kIntMax), i));
  EXPECT_EQ(i, std::numeric_limits<int>::max());
  EXPECT_TRUE(jsonl::to_int(value(kIntMin), i));
  EXPECT_EQ(i, std::numeric_limits<int>::min());
  i = 7;
  EXPECT_FALSE(jsonl::to_int(value(kIntMax + 1), i));
  EXPECT_FALSE(jsonl::to_int(value(kIntMin - 1), i));
  EXPECT_EQ(i, 7);  // a rejected value leaves the target untouched

  std::size_t size = 7;
  EXPECT_FALSE(jsonl::to_int(value(-1), size));
  EXPECT_TRUE(jsonl::to_int(value(std::numeric_limits<std::int64_t>::max()),
                            size));
  EXPECT_EQ(size, static_cast<std::size_t>(
                      std::numeric_limits<std::int64_t>::max()));

  std::int64_t wide = 0;
  EXPECT_TRUE(jsonl::to_int(value(std::numeric_limits<std::int64_t>::min()),
                            wide));
  EXPECT_EQ(wide, std::numeric_limits<std::int64_t>::min());

  jsonl::JsonValue text;
  text.kind = jsonl::JsonValue::Kind::kString;
  EXPECT_FALSE(jsonl::to_int(text, wide));
}

}  // namespace
}  // namespace amdrel::core::wire
