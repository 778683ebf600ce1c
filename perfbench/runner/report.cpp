#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& metric_catalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end (untraced runs).
      {"setup_s", "s", true},
      {"step_ms_p50", "ms", true},
      {"peak_rss_mb", "MB", true},
      {"success_ratio", "ratio", true},
      {"final_accuracy", "ratio", true},
      {"sim_time_to_target_s", "sim_s", true},
      {"comm_mb_to_target", "MB", true},
      // Per layer (traced runs). Setup, timed around public calls.
      {"data.build_federated_data_s", "s", false},
      {"cluster.kmeans_s", "s", false},
      {"fl.session_build_s", "s", false},
      // Session phases, per-step medians from RoundObserver::on_phase.
      {"fl.select_ms", "ms", false},
      {"fl.train_cohort_ms", "ms", false},
      {"fl.fold_ms", "ms", false},
      {"fl.server_step_ms", "ms", false},
      {"fl.eval_ms", "ms", false},
      {"fl.phase_coverage", "ratio", false},
      {"ml.train_us_per_sample", "us", false},
      {"fl.warmup_ms", "ms", false},
      {"fl.step_ms_p95", "ms", false},
      // Deterministic per-step counts from RoundRecord.
      {"fl.dispatched_per_step", "count", false},
      {"fl.folded_per_step", "count", false},
      {"fl.useful_update_ratio", "ratio", false},
      {"net.crashed_per_step", "count", false},
      {"net.retried_per_step", "count", false},
      {"fl.dropped_stale_per_step", "count", false},
      {"net.up_kb_per_step", "KB", false},
      {"net.down_kb_per_step", "KB", false},
      // Serving.
      {"serve.inproc_step_ms_p50", "ms", false},
      {"serve.server_ms_p50", "ms", false},
      {"serve.queue_ms_p50", "ms", false},
      {"serve.wire_ms_p50", "ms", false},
      {"serve.reply_ms_p99", "ms", false},
      {"serve.rejected", "count", false},
      {"serve.reconnects", "count", false},
      // Meta.
      {"bench.steps_per_s", "1/s", false},
      {"bench.latency_samples", "count", false},
      {"bench.trace_overhead_ratio", "ratio", false},
  };
  return catalog;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double order_statistic(std::vector<double> samples, double p) {
  if (samples.empty()) {
    throw std::invalid_argument("order_statistic: no samples");
  }
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("order_statistic: p outside (0, 1]");
  }
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

std::size_t Samples::beyond(double p) const {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values_.size())));
  return values_.size() - std::min(rank, values_.size());
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent,
                           std::uint64_t start_ns, std::uint64_t end_ns) {
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({id, parent, std::move(name), start_ns, end_ns});
  return id;
}

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent) {
  const std::uint64_t start = now_ns();
  return add(std::move(name), parent, start, start);
}

void SpanLog::end(std::uint64_t id) { spans_.at(id - 1).end_ns = now_ns(); }

void SpanLog::append(const SpanLog& other) {
  const std::uint64_t offset = spans_.size();
  for (const Span& span : other.spans_) {
    spans_.push_back({span.id + offset,
                      span.parent == kNoParent ? kNoParent
                                               : span.parent + offset,
                      span.name, span.start_ns, span.end_ns});
  }
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

double SpanLog::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const double ms : durations_ms(name)) total += ms;
  return total;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"start_ns\":"
        << span.start_ns << ",\"end_ns\":" << span.end_ns << "}\n";
  }
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : order_statistic(values, 0.5);
}

std::string result_json(bool correct, const Tally& tally,
                        const MetricValues& values, bool per_layer) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  std::size_t expected = 0;
  for (const MetricDef& def : metric_catalog()) {
    if (def.end_to_end == per_layer) continue;
    const auto it = values.find(def.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") +
                             def.name);
    }
    // A non-finite value (a refused reply's latency) prints as the
    // largest double, so the line stays JSON and reads as a missed limit.
    const double v = std::isfinite(it->second)
                         ? it->second
                         : std::numeric_limits<double>::max();
    char number[32];
    std::snprintf(number, sizeof number, "%.17g", v);
    if (expected++ > 0) out += ", ";
    out += "\"";
    out += def.name;
    out += "\": {\"value\": ";
    out += number;
    out += ", \"unit\": \"";
    out += def.unit;
    out += "\"}";
  }
  if (values.size() != expected) {
    throw std::logic_error("result_json: metric outside the catalogue");
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
