// Golden-file regression tests for core::Table rendering: the CSV and JSON
// byte streams consumed by dashboards, scripts/bench_check.py and the
// serial-vs-parallel byte-identity gates are pinned under tests/golden/.
// Column additions (like PR 10's flips/detected/detect_lat/miscorr) must show
// up as deliberate fixture diffs, never as silent format drift.
//
// Regenerating after an intentional format change:
//   ADCC_UPDATE_GOLDEN=1 ./build/adcc_tests --gtest_filter='GoldenTable.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/report.hpp"

namespace adcc::core {
namespace {

// The sweep deck's full header set (core axes + every metric column) as of
// the flip: fault family. Kept as a literal, NOT referenced from sweep.cpp:
// the golden test must fail when the sweep layout changes, prompting a
// deliberate fixture + consumer update.
Table fixture_table() {
  Table t({"cell", "workload", "mode", "crash", "units", "seconds", "normalized",
           "overhead", "lost", "partial", "corrected", "torn", "salvaged", "overlap",
           "detect/unit", "resume/unit", "victims", "epochs_rb", "replayed", "halo_kb",
           "flips", "detected", "detect_lat", "miscorr", "t_stage", "t_crc", "t_io",
           "t_drain", "t_kernel", "t_spmv", "t_gemm", "t_xs", "status"});
  // A timed cell with a detected-and-rolled-back flip.
  t.add_row({"0", "cg", "alg-nvm", "flip:7", "6", Table::fmt(0.0123, 4),
             Table::fmt(1.08, 3), Table::pct(0.082), "1", "1", "0", "0", "0",
             Table::fmt(0.0, 3), Table::fmt(0.4, 3), Table::fmt(1.1, 3), "0", "0", "0",
             "0", "1", "1", "1", "0", Table::fmt(0.002, 3), "-", "-", "-",
             Table::fmt(0.009, 3), Table::fmt(0.007, 3), "-", "-", "ok"});
  // A --no_timing cell: every timing-derived column is the blank marker, the
  // undetected flip keeps detect_lat blank too.
  t.add_row({"1", "mm", "ckpt-nvm", "flip:7", "4", "-", "-", "-", "0", "0", "0", "0",
             "0", "-", "-", "-", "0", "0", "0", "12", "1", "0", "-", "0", "-", "-",
             "-", "-", "-", "-", "-", "-", "ok"});
  // An ERROR cell: 28 blank metric columns, then a status message exercising
  // the CSV quote/comma escaping rules.
  t.add_row({"2", "mc", "pmem-tx", "step:2", "-", "-", "-", "-", "-", "-", "-", "-",
             "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-",
             "-", "-", "-", "-", "-", "-",
             "ERROR: malformed crash plan 'boom', axis \"crash\""});
  return t;
}

std::string golden_path(const char* name) {
  return std::string(ADCC_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void compare_or_update(const char* name, const std::string& rendered) {
  const std::string path = golden_path(name);
  if (std::getenv("ADCC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    return;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty())
      << path << " missing or empty; regenerate with ADCC_UPDATE_GOLDEN=1";
  EXPECT_EQ(rendered, expected)
      << "rendered " << name << " drifted from the golden fixture; if the "
      << "format change is deliberate, rerun with ADCC_UPDATE_GOLDEN=1 and "
      << "commit the diff";
}

TEST(GoldenTable, CsvRenderingMatchesFixture) {
  compare_or_update("sweep_table.csv", fixture_table().render(TableFormat::kCsv));
}

TEST(GoldenTable, JsonRenderingMatchesFixture) {
  compare_or_update("sweep_table.json", fixture_table().render(TableFormat::kJson));
}

TEST(GoldenTable, PlainRenderingMatchesFixture) {
  compare_or_update("sweep_table.txt", fixture_table().render(TableFormat::kPlain));
}

TEST(GoldenTable, EscapingRules) {
  // The fixture exercises these paths; pin the primitives directly too, so a
  // failure names the broken rule instead of a 34-column diff.
  Table t({"a", "b"});
  t.add_row({"x,y", "he said \"hi\""});
  t.add_row({"line\nbreak", "back\\slash"});
  EXPECT_EQ(t.render(TableFormat::kCsv),
            "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"line\nbreak\",back\\slash\n");
  EXPECT_EQ(t.render(TableFormat::kJson),
            "[\n  {\"a\": \"x,y\", \"b\": \"he said \\\"hi\\\"\"},\n"
            "  {\"a\": \"line\\nbreak\", \"b\": \"back\\\\slash\"}\n]\n");
}

}  // namespace
}  // namespace adcc::core
