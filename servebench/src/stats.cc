#include "stats.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace servebench {

double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double rank = p * static_cast<double>(sample.size() - 1);
  const size_t idx = static_cast<size_t>(rank + 0.5);
  return sample[std::min(idx, sample.size() - 1)];
}

double Median(std::vector<double> sample) {
  return Percentile(std::move(sample), 0.5);
}

double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0;
  return std::accumulate(sample.begin(), sample.end(), 0.0) /
         static_cast<double>(sample.size());
}

double TrimmedMean(std::vector<double> sample) {
  if (sample.size() < 3) return Mean(sample);
  std::sort(sample.begin(), sample.end());
  return Mean(std::vector<double>(sample.begin() + 1, sample.end() - 1));
}

size_t CountAbove(const std::vector<double>& sample, double threshold) {
  return static_cast<size_t>(std::count_if(
      sample.begin(), sample.end(), [&](double v) { return v > threshold; }));
}

double WindowedPercentile(const std::vector<std::vector<double>>& windows,
                          const std::vector<double>& all, double p) {
  const double needed = 10.0 / (1.0 - p);
  bool every = !windows.empty();
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    every = every && static_cast<double>(w.size()) >= needed;
    per_window.push_back(Percentile(w, p));
  }
  return every ? Median(per_window) : Percentile(all, p);
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int64_t JsonCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
}

std::string JsonObject(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":{";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t open = at + needle.size() - 1;
  int depth = 0;
  bool in_string = false;
  for (size_t i = open; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return json.substr(open, i - open + 1);
    }
  }
  return "";
}

}  // namespace servebench
