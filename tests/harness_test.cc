#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/csv.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/window.h"

namespace hxwar::harness {
namespace {

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "long-header", "c"});
  t.addRow({"x", "1", "yy"});
  t.addRow({"longer-cell", "2", "z"});
  // Render into a pipe buffer via tmpfile.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.print(f);
  std::rewind(f);
  char buf[4096] = {};
  const auto n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string out(buf, n);
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("longer-cell"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::pct(0.5), "50.0%");
  EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Csv, WritesHeaderAndEscapedRows) {
  const std::string path = ::testing::TempDir() + "/hxwar_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.enabled());
    csv.row({"1", "plain"});
    csv.row({"2", "with,comma"});
    csv.row({"3", "with\"quote"});
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[512] = {};
  const auto n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string out(buf, n);
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("2,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(out.find("3,\"with\"\"quote\"\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, EmptyPathDisablesSilently) {
  CsvWriter csv("", {"a"});
  EXPECT_FALSE(csv.enabled());
  csv.row({"ignored"});  // must not crash
}

TEST(Experiment, BuildsAllAlgorithmPatternCombos) {
  for (const auto& algorithm : routing::hyperxAlgorithmNames()) {
    ExperimentSpec spec = scaleSpec("tiny");
    spec.routing = algorithm;
    spec.pattern = "ur";
    Experiment exp(spec);
    EXPECT_EQ(exp.network().numNodes(), 18u);
    EXPECT_FALSE(exp.routing().info().name.empty());
  }
}

TEST(Experiment, SaturationThroughputIsPositiveAndBounded) {
  ExperimentSpec spec = scaleSpec("tiny");
  spec.routing = "omniwar";
  spec.pattern = "ur";
  spec.steady.maxWarmupWindows = 10;
  const double accepted = saturationThroughput(spec, 1.0);
  EXPECT_GT(accepted, 0.3);
  EXPECT_LE(accepted, 1.01);
}

// Inter-router link utilization over a measured window, from the deltas of
// the network's cumulative per-link counters.
std::vector<double> linkUtilization(Experiment& exp, Tick warmup, Tick window) {
  exp.injector().start();
  exp.sim().run(warmup);
  std::vector<std::uint64_t> before;
  exp.network().forEachLinkStats(
      [&](const obs::LinkStatsRow& row) { before.push_back(row.flitsSent); });
  const Tick t0 = exp.sim().now();
  exp.sim().run(t0 + window);
  exp.injector().stop();
  const auto elapsed = static_cast<double>(exp.sim().now() - t0);
  std::vector<double> util;
  exp.network().forEachLinkStats([&](const obs::LinkStatsRow& row) {
    util.push_back(static_cast<double>(row.flitsSent - before[util.size()]) / elapsed);
  });
  return util;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / v.size();
}

TEST(LinkUtil, CountsMatchNetworkActivity) {
  ExperimentSpec spec = scaleSpec("tiny");
  spec.routing = "dor";
  spec.pattern = "ur";
  spec.injection.rate = 0.3;
  Experiment exp(spec);
  const std::vector<double> util = linkUtilization(exp, 500, 2000);
  ASSERT_FALSE(util.empty());
  const double max = *std::max_element(util.begin(), util.end());
  EXPECT_GT(mean(util), 0.0);
  EXPECT_LE(max, 1.0 + 1e-9);  // a link carries at most one flit per cycle
  EXPECT_GE(max / mean(util), 1.0);
}

TEST(LinkUtil, HotLinkVisibleUnderAdversarialDor) {
  // URBy under DOR creates saturated Y links; the imbalance must show.
  ExperimentSpec spec = scaleSpec("small");
  spec.routing = "dor";
  spec.pattern = "urby";
  spec.injection.rate = 0.35;
  Experiment exp(spec);
  const std::vector<double> util = linkUtilization(exp, 1500, 2500);
  const double max = *std::max_element(util.begin(), util.end());
  EXPECT_GT(max, 0.9);  // the funnel link is saturated
  EXPECT_GT(max / mean(util), 2.0);
}

}  // namespace
}  // namespace hxwar::harness
