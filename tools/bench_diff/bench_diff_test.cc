#include "tools/bench_diff/bench_diff.h"

#include <gtest/gtest.h>

#include <string>

#include "src/stat/json.h"

namespace drtm {
namespace bench_diff {
namespace {

using stat::Json;

Json MakeReport(const std::string& series, double tps, double p99_ns) {
  Json point = Json::Object();
  Json labels = Json::Object();
  labels.Set("threads", Json::Str("8"));
  Json values = Json::Object();
  values.Set("tps", Json::Number(tps));
  values.Set("p99_ns", Json::Number(p99_ns));
  point.Set("labels", std::move(labels));
  point.Set("values", std::move(values));
  Json points = Json::Array();
  points.Append(std::move(point));
  Json one = Json::Object();
  one.Set("name", Json::Str(series));
  one.Set("points", std::move(points));
  Json series_arr = Json::Array();
  series_arr.Append(std::move(one));
  Json report = Json::Object();
  report.Set("schema_version", Json::Number(1));
  report.Set("bench", Json::Str("unit"));
  report.Set("series", std::move(series_arr));
  return report;
}

TEST(DirectionForKey, ClassifiesMetricFamilies) {
  EXPECT_EQ(DirectionForKey("tps"), Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionForKey("mix_tps"), Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionForKey("lookups_per_sec"), Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionForKey("p99_ns"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("reads_per_lookup"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("doorbells_per_lookup"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("abort_rate"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("capacity_aborts"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("record_overhead_pct"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("fallbacks"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("invariant_violations"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionForKey("mystery_metric"), Direction::kUnknown);
}

TEST(Diff, MatchedValuesProduceDeltas) {
  const Json before = MakeReport("mix", 1000, 5000);
  const Json after = MakeReport("mix", 1100, 4500);
  DiffResult result;
  ASSERT_TRUE(Diff(before, after, 5.0, &result));
  EXPECT_EQ(result.bench, "unit");
  ASSERT_EQ(result.deltas.size(), 2u);
  EXPECT_TRUE(result.notes.empty());
  // Both values improved; nothing regresses.
  EXPECT_FALSE(HasRegressions(result));
  for (const ValueDelta& delta : result.deltas) {
    if (delta.key == "tps") {
      EXPECT_NEAR(delta.pct, 10.0, 1e-9);
    } else {
      EXPECT_EQ(delta.key, "p99_ns");
      EXPECT_NEAR(delta.pct, -10.0, 1e-9);
    }
  }
}

TEST(Diff, FlagsThroughputDropBeyondThreshold) {
  const Json before = MakeReport("mix", 1000, 5000);
  const Json after = MakeReport("mix", 900, 5000);  // -10% tps
  DiffResult result;
  ASSERT_TRUE(Diff(before, after, 5.0, &result));
  EXPECT_TRUE(HasRegressions(result));
  const std::string text = Format(result);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("tps"), std::string::npos);
}

TEST(Diff, FlagsLatencyRiseBeyondThreshold) {
  const Json before = MakeReport("mix", 1000, 5000);
  const Json after = MakeReport("mix", 1000, 6000);  // +20% p99
  DiffResult result;
  ASSERT_TRUE(Diff(before, after, 5.0, &result));
  EXPECT_TRUE(HasRegressions(result));
}

TEST(Diff, ThresholdToleratesSmallAdverseDrift) {
  const Json before = MakeReport("mix", 1000, 5000);
  const Json after = MakeReport("mix", 970, 5100);  // -3% tps, +2% p99
  DiffResult result;
  ASSERT_TRUE(Diff(before, after, 5.0, &result));
  EXPECT_FALSE(HasRegressions(result));
}

TEST(Diff, UnknownDirectionNeverRegresses) {
  Json before = MakeReport("mix", 1000, 5000);
  Json after = MakeReport("mix", 1000, 5000);
  // Mutate one value key into an untracked family on both sides.
  auto rename_key = [](Json* report, double v) {
    Json values = Json::Object();
    values.Set("mystery_metric", Json::Number(v));
    Json point = Json::Object();
    point.Set("labels", Json::Object());
    point.Set("values", std::move(values));
    Json points = Json::Array();
    points.Append(std::move(point));
    Json one = Json::Object();
    one.Set("name", Json::Str("odd"));
    one.Set("points", std::move(points));
    report->Find("series");  // keep structure; append a second series
    Json series_arr = Json::Array();
    series_arr.Append(std::move(one));
    report->Set("series", std::move(series_arr));
  };
  rename_key(&before, 100);
  rename_key(&after, 1);  // -99%: would regress if tracked
  DiffResult result;
  ASSERT_TRUE(Diff(before, after, 5.0, &result));
  EXPECT_FALSE(HasRegressions(result));
}

TEST(Diff, UnmatchedSeriesAndPointsBecomeNotes) {
  const Json before = MakeReport("old_series", 1000, 5000);
  const Json after = MakeReport("new_series", 1000, 5000);
  DiffResult result;
  ASSERT_TRUE(Diff(before, after, 5.0, &result));
  EXPECT_TRUE(result.deltas.empty());
  ASSERT_EQ(result.notes.size(), 2u);
  EXPECT_NE(result.notes[0].find("only in before"), std::string::npos);
  EXPECT_NE(result.notes[1].find("only in after"), std::string::npos);
  EXPECT_FALSE(HasRegressions(result));
}

TEST(Diff, RejectsNonSchemaDocuments) {
  Json not_a_report = Json::Object();
  not_a_report.Set("hello", Json::Str("world"));
  DiffResult result;
  EXPECT_FALSE(Diff(not_a_report, not_a_report, 5.0, &result));
  const Json report = MakeReport("mix", 1, 1);
  EXPECT_FALSE(Diff(report, not_a_report, 5.0, &result));
}

TEST(Diff, ZeroBaselineReportsZeroPct) {
  const Json before = MakeReport("mix", 0, 5000);
  const Json after = MakeReport("mix", 500, 5000);
  DiffResult result;
  ASSERT_TRUE(Diff(before, after, 5.0, &result));
  for (const ValueDelta& delta : result.deltas) {
    if (delta.key == "tps") {
      EXPECT_EQ(delta.pct, 0);
      EXPECT_FALSE(delta.regressed);
    }
  }
}

}  // namespace
}  // namespace bench_diff
}  // namespace drtm
