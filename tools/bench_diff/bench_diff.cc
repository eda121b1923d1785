#include "tools/bench_diff/bench_diff.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace drtm {
namespace bench_diff {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool Contains(const std::string& s, const std::string& sub) {
  return s.find(sub) != std::string::npos;
}

std::string PointKey(const stat::Json& labels) {
  std::string key;
  for (const auto& [name, value] : labels.members()) {
    if (!key.empty()) {
      key += ',';
    }
    key += name + '=' + value.AsString();
  }
  return key;
}

// series name -> point key -> value key -> value.
using ReportValues =
    std::map<std::string, std::map<std::string, std::map<std::string, double>>>;

bool ExtractValues(const stat::Json& report, ReportValues* out) {
  const stat::Json* version = report.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      version->AsNumber() != 1) {
    return false;
  }
  const stat::Json* series = report.Find("series");
  if (series == nullptr || !series->is_array()) {
    return false;
  }
  for (size_t i = 0; i < series->size(); ++i) {
    const stat::Json& one = series->at(i);
    const stat::Json* name = one.Find("name");
    const stat::Json* points = one.Find("points");
    if (name == nullptr || points == nullptr || !points->is_array()) {
      continue;
    }
    auto& by_point = (*out)[name->AsString()];
    for (size_t p = 0; p < points->size(); ++p) {
      const stat::Json& point = points->at(p);
      const stat::Json* labels = point.Find("labels");
      const stat::Json* values = point.Find("values");
      if (labels == nullptr || values == nullptr) {
        continue;
      }
      auto& by_key = by_point[PointKey(*labels)];
      for (const auto& [key, value] : values->members()) {
        if (value.is_number()) {
          by_key[key] = value.AsNumber();
        }
      }
    }
  }
  return true;
}

}  // namespace

Direction DirectionForKey(const std::string& value_key) {
  for (const char* good : {"tps", "ops", "mops", "per_sec", "throughput"}) {
    if (EndsWith(value_key, good) || value_key == good) {
      return Direction::kHigherIsBetter;
    }
  }
  for (const char* cost : {"_ns", "_us", "_ms"}) {
    if (EndsWith(value_key, cost)) {
      return Direction::kLowerIsBetter;
    }
  }
  for (const char* cost : {"latency", "abort", "fallback", "capacity",
                           "reads", "doorbells", "hops", "retries",
                           "violations", "ack", "overhead"}) {
    if (Contains(value_key, cost)) {
      return Direction::kLowerIsBetter;
    }
  }
  return Direction::kUnknown;
}

bool Diff(const stat::Json& before, const stat::Json& after,
          double threshold_pct, DiffResult* out) {
  ReportValues old_values;
  ReportValues new_values;
  if (!ExtractValues(before, &old_values) ||
      !ExtractValues(after, &new_values)) {
    return false;
  }
  if (const stat::Json* bench = after.Find("bench");
      bench != nullptr && bench->is_string()) {
    out->bench = bench->AsString();
  }
  for (const auto& [series, old_points] : old_values) {
    auto series_it = new_values.find(series);
    if (series_it == new_values.end()) {
      out->notes.push_back("series '" + series + "' only in before");
      continue;
    }
    for (const auto& [point, old_keys] : old_points) {
      auto point_it = series_it->second.find(point);
      if (point_it == series_it->second.end()) {
        out->notes.push_back("point '" + series + "[" + point +
                             "]' only in before");
        continue;
      }
      for (const auto& [key, old_value] : old_keys) {
        auto key_it = point_it->second.find(key);
        if (key_it == point_it->second.end()) {
          out->notes.push_back("value '" + series + "[" + point + "]." + key +
                               "' only in before");
          continue;
        }
        ValueDelta delta;
        delta.series = series;
        delta.point = point;
        delta.key = key;
        delta.before = old_value;
        delta.after = key_it->second;
        delta.pct = old_value == 0
                        ? 0
                        : (delta.after - delta.before) / std::abs(old_value) *
                              100.0;
        delta.direction = DirectionForKey(key);
        const double adverse =
            delta.direction == Direction::kHigherIsBetter  ? -delta.pct
            : delta.direction == Direction::kLowerIsBetter ? delta.pct
                                                           : 0;
        delta.regressed = adverse > threshold_pct;
        out->deltas.push_back(delta);
      }
    }
  }
  for (const auto& [series, new_points] : new_values) {
    if (old_values.find(series) == old_values.end()) {
      out->notes.push_back("series '" + series + "' only in after");
    }
  }
  return true;
}

bool HasRegressions(const DiffResult& result) {
  for (const ValueDelta& delta : result.deltas) {
    if (delta.regressed) {
      return true;
    }
  }
  return false;
}

std::string Format(const DiffResult& result) {
  std::string text;
  if (!result.bench.empty()) {
    text += "bench: " + result.bench + "\n";
  }
  char line[512];
  for (const ValueDelta& delta : result.deltas) {
    std::snprintf(line, sizeof(line), "%s %s[%s].%s  %.6g -> %.6g  (%+.2f%%)%s\n",
                  delta.regressed ? "REGRESSED" : "ok       ",
                  delta.series.c_str(), delta.point.c_str(), delta.key.c_str(),
                  delta.before, delta.after, delta.pct,
                  delta.direction == Direction::kUnknown ? " [untracked]" : "");
    text += line;
  }
  for (const std::string& note : result.notes) {
    text += "note: " + note + "\n";
  }
  return text;
}

}  // namespace bench_diff
}  // namespace drtm
