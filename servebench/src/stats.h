// Small numeric and JSON helpers shared by the harness and the traced run.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Nearest-rank percentile (round half up on p * (n - 1)); 0 for an empty
/// sample. Same semantics as the repository's bench/percentile.h.
double Percentile(std::vector<double> sample, double p);
double Median(std::vector<double> sample);
double Mean(const std::vector<double>& sample);
/// Mean without the smallest and the largest sample (plain mean below 3).
double TrimmedMean(std::vector<double> sample);

/// Samples strictly above `threshold` (the "beyond p99" count).
size_t CountAbove(const std::vector<double>& sample, double threshold);

/// The p-th percentile of a run split into windows: the median over
/// `windows` of each window's percentile when every one holds enough
/// samples for ten to lie beyond p, else the percentile of `all` (every
/// sample of the run). A disturbance confined to a minority of the windows
/// then moves the result little.
double WindowedPercentile(const std::vector<std::vector<double>>& windows,
                          const std::vector<double>& all, double p);

/// A JSON number with every digit of the double.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);
std::string JsonArray(const std::vector<double>& values);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// {"name":{"value":v,"unit":"u"},...}
std::string MetricsJson(const std::vector<Metric>& metrics);

/// Counter value `"name":N` out of a flat JSON text (the /varz scrape);
/// -1 when absent.
int64_t JsonCounter(const std::string& json, const std::string& name);
/// The raw JSON value of `"key":{...}` (first object with that key), ""
/// when absent.
std::string JsonObject(const std::string& json, const std::string& key);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
