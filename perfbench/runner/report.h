// Measurement vocabulary shared by every workload of the benchmark: the
// metric catalogue (names, units, end-to-end or per-layer), exact order
// statistics over kept samples, the attempted/failed tally, the span log
// of a traced run, and the one-line JSON result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;  ///< false = per-layer (reported by traced runs)
};

/// Every metric the benchmark reports. An untraced run reports exactly
/// the end-to-end ones, a traced run exactly the per-layer ones.
const std::vector<MetricDef>& metric_catalog();

/// True for a non-empty name over [A-Za-z0-9_.-] of at most 64
/// characters that starts with a letter or digit.
bool valid_metric_name(std::string_view name);

/// Nearest-rank order statistic: the ceil(p * n)-th smallest sample
/// (p in (0, 1]). Exact — every sample of the run is kept. Throws
/// std::invalid_argument on an empty sample set.
double order_statistic(std::vector<double> samples, double p);

/// Kept latency samples with their percentile read-out.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const { return values_.size(); }
  /// order_statistic over the samples, or 0 when there are none (a run
  /// whose every step failed still prints its result).
  double percentile(double p) const {
    return values_.empty() ? 0.0 : order_statistic(values_, p);
  }
  /// Samples strictly after the nearest-rank position of percentile p.
  std::size_t beyond(double p) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Attempted / failed operations of a run. A failed operation is a
/// throw, a non-ok or refused reply, or a failed correctness check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void ok() { ++attempted; }
  void fail() {
    ++attempted;
    ++failed;
  }
  double success_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// Steady-clock nanoseconds (the clock fl::PhaseRecord stamps with).
std::uint64_t now_ns();

/// Spans recorded from the benchmark's own code around calls into the
/// program's layers. Kept in memory; written out once when the run ends.
class SpanLog {
 public:
  static constexpr std::uint64_t kNoParent = 0;

  /// Records a finished span and returns its id (ids start at 1).
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns);
  /// Opens a span starting now; end(id) closes it.
  std::uint64_t begin(std::string name, std::uint64_t parent);
  void end(std::uint64_t id);
  /// Appends another log's spans, renumbering their ids and parents.
  void append(const SpanLog& other);
  /// Durations, in milliseconds, of every span with this name.
  std::vector<double> durations_ms(std::string_view name) const;
  /// Sum of the durations, in milliseconds, of spans with this name.
  double total_ms(std::string_view name) const;
  /// One JSON object per line: id, parent, name, start_ns, end_ns.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id;
    std::uint64_t parent;
    std::string name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  std::vector<Span> spans_;
};

/// Median of `values`, or 0 when there are none (a layer the workload
/// does not pass through spends no time in it).
double median_or_zero(const std::vector<double>& values);

using MetricValues = std::map<std::string, double>;

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// each metric's value and catalogue unit. Throws std::logic_error
/// unless `values` holds exactly the catalogue metrics of the requested
/// kind.
std::string result_json(bool correct, const Tally& tally,
                        const MetricValues& values, bool per_layer);

}  // namespace perfbench
