#include "probe.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cluster/kmeans.h"
#include "common/stats.h"
#include "data/federated.h"

namespace perfbench {

void StepCounts::add(const StepCounts& other) {
  steps += other.steps;
  dispatched += other.dispatched;
  folded += other.folded;
  crashed += other.crashed;
  retried += other.retried;
  dropped_stale += other.dropped_stale;
  up_bytes += other.up_bytes;
  down_bytes += other.down_bytes;
}

void RoundLedger::on_round_end(std::size_t round,
                               const flips::fl::RoundRecord& record) {
  StepCounts c;
  c.steps = 1;
  c.dispatched = static_cast<double>(record.selected);
  c.folded = static_cast<double>(record.responded);
  c.crashed = static_cast<double>(record.crashed);
  c.retried = static_cast<double>(record.retried);
  c.dropped_stale = static_cast<double>(record.dropped_stale);
  c.up_bytes = static_cast<double>(record.upload_bytes);
  c.down_bytes = static_cast<double>(record.download_bytes);
  rounds.push_back(c);
  Trajectory& t = trajectory;
  t.accuracy.push_back(record.balanced_accuracy);
  t.sim_s.push_back((t.sim_s.empty() ? 0.0 : t.sim_s.back()) +
                    record.round_time_s);
  t.bytes.push_back((t.bytes.empty() ? 0.0 : t.bytes.back()) + c.up_bytes +
                    c.down_bytes);
  if (!target_round && record.balanced_accuracy >= target) {
    target_round = round;
  }
}

Crossing mean_curve_crossing(const std::vector<Trajectory>& runs,
                             double target, std::size_t eval_every,
                             std::size_t rounds) {
  Crossing out;
  if (runs.empty() || rounds == 0) return out;
  for (const Trajectory& t : runs) {
    if (t.accuracy.size() < rounds) {
      throw std::logic_error("a trajectory is shorter than the rounds read");
    }
  }
  const auto mean = [&](const std::vector<double> Trajectory::*series,
                        std::size_t i) {
    double sum = 0.0;
    for (const Trajectory& t : runs) sum += (t.*series)[i];
    return sum / static_cast<double>(runs.size());
  };
  std::optional<std::size_t> prev;  // index of the last evaluation below
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::size_t round = i + 1;
    if (round != 1 && eval_every != 0 && round % eval_every != 0) continue;
    const double acc = mean(&Trajectory::accuracy, i);
    if (acc < target) {
      prev = i;
      continue;
    }
    out.reached = true;
    double frac = 1.0;
    std::size_t from = i;
    if (prev) {
      from = *prev;
      const double below = mean(&Trajectory::accuracy, from);
      frac = (target - below) / (acc - below);
    }
    const auto at = [&](const std::vector<double> Trajectory::*series) {
      const double a = mean(series, from);
      return a + frac * (mean(series, i) - a);
    };
    out.sim_s = at(&Trajectory::sim_s);
    out.bytes = at(&Trajectory::bytes);
    return out;
  }
  out.sim_s = mean(&Trajectory::sim_s, rounds - 1);
  out.bytes = mean(&Trajectory::bytes, rounds - 1);
  return out;
}

void PhaseCollector::on_phase(std::size_t,
                              const flips::fl::PhaseRecord& record) {
  phases.push_back(record);
}

double timed_advance(flips::fl::FederationSession& session,
                     PhaseCollector* phases, SpanLog* spans,
                     const char* name, std::uint64_t parent) {
  if (phases != nullptr) phases->phases.clear();
  const std::uint64_t t0 = now_ns();
  session.advance();
  const std::uint64_t t1 = now_ns();
  if (spans != nullptr) {
    const std::uint64_t id = spans->add(name, parent, t0, t1);
    if (phases != nullptr) {
      for (const auto& ph : phases->phases) {
        spans->add(std::string("fl.") + flips::fl::to_string(ph.phase), id,
                   ph.start_ns, ph.end_ns);
      }
    }
  }
  return static_cast<double>(t1 - t0) * 1e-6;
}

void trace_setup_layers(const flips::bench::ExperimentConfig& config,
                        std::uint64_t seed, std::uint64_t parent,
                        SpanLog& spans) {
  flips::data::FederatedDataConfig dc;
  dc.spec = config.spec;
  dc.num_parties = config.scale.num_parties;
  dc.samples_per_party = config.scale.samples_per_party;
  dc.alpha = config.alpha;
  dc.test_per_class = 100;
  dc.seed = seed;
  std::uint64_t t0 = now_ns();
  const auto fed = flips::data::build_federated_data(dc);
  std::uint64_t t1 = now_ns();
  spans.add("data.build_federated_data", parent, t0, t1);

  // Hellinger space: Euclidean over sqrt-proportions.
  std::vector<flips::cluster::Point> points;
  points.reserve(fed.label_distributions.size());
  for (const auto& ld : fed.label_distributions) {
    auto p = flips::common::normalized(ld);
    for (auto& v : p) v = std::sqrt(v);
    points.push_back(std::move(p));
  }
  flips::cluster::KMeansConfig kc;
  kc.k = std::min(config.flips_clusters, points.size());
  kc.restarts = 3;
  flips::common::Rng rng(seed ^ 0xC1u);
  t0 = now_ns();
  const auto clusters = flips::cluster::kmeans(points, kc, rng);
  t1 = now_ns();
  spans.add("cluster.kmeans", parent, t0, t1);
  if (clusters.assignments.size() != points.size()) {
    throw std::runtime_error("k-means returned a partial assignment");
  }
}

namespace {

/// How much longer than make_session the replayed split may take in the
/// median setup before a traced run fails. The replay and make_session
/// run a second apart on a machine whose speed drifts over seconds: on
/// the reference machine single setups' replay / make_session ratios
/// ranged 0.70-1.15 around ~0.93, and the median over a run's setups
/// reached 1.03 in 1 of 15 traced runs. A replay that no longer does
/// what make_session does (say make_session builds in parallel) is off
/// by far more.
constexpr double kReplayTolerance = 0.15;

/// One traced setup: make_session and the replayed synthesis + k-means
/// of the same federation.
struct SetupSplit {
  double make_ms;
  double replay_ms;
};

/// Per setup, in order (each setup records its three spans once, in
/// the same order). Empty if the spans do not pair up.
std::vector<SetupSplit> setup_splits(const SpanLog& spans) {
  const auto data = spans.durations_ms("data.build_federated_data");
  const auto kmeans = spans.durations_ms("cluster.kmeans");
  const auto make = spans.durations_ms("fl.make_session");
  std::vector<SetupSplit> out;
  if (data.size() != make.size() || kmeans.size() != make.size()) return out;
  for (std::size_t i = 0; i < make.size(); ++i) {
    out.push_back({make[i], data[i] + kmeans[i]});
  }
  return out;
}

}  // namespace

void setup_metrics(const SpanLog& spans, MetricValues& out) {
  out["data.build_federated_data_s"] =
      median_or_zero(spans.durations_ms("data.build_federated_data")) * 1e-3;
  out["cluster.kmeans_s"] =
      median_or_zero(spans.durations_ms("cluster.kmeans")) * 1e-3;
  std::vector<double> rest;
  for (const SetupSplit& s : setup_splits(spans)) {
    rest.push_back(s.make_ms - s.replay_ms);
  }
  out["fl.session_build_s"] = median_or_zero(rest) * 1e-3;
}

std::optional<std::string> setup_split_error(const SpanLog& spans) {
  const auto splits = setup_splits(spans);
  if (splits.empty()) return "the traced setups recorded no paired spans";
  std::vector<double> ratios;
  for (const SetupSplit& s : splits) ratios.push_back(s.replay_ms / s.make_ms);
  const double ratio = median_or_zero(ratios);
  if (ratio <= 1.0 + kReplayTolerance) return std::nullopt;
  return "the replayed synthesis and k-means took " + std::to_string(ratio) +
         " times as long as make_session (median setup): "
         "trace_setup_layers no longer matches make_session";
}

void phase_metrics(const SpanLog& spans, double trained_samples,
                   MetricValues& out) {
  // Each step emits each phase once: per-step medians, except eval,
  // which only does work every eval_every steps, so its median would
  // read an idle step. It reports its mean cost per step instead.
  double phases_ms = 0.0;
  for (const char* phase :
       {"select", "train_cohort", "fold", "server_step", "eval"}) {
    const std::string span = std::string("fl.") + phase;
    const auto ms = spans.durations_ms(span);
    const double total = spans.total_ms(span);
    phases_ms += total;
    out[span + "_ms"] =
        span != "fl.eval" ? median_or_zero(ms)
        : ms.empty()      ? 0.0
                          : total / static_cast<double>(ms.size());
  }
  const double stepping_ms =
      spans.total_ms("fl.advance") + spans.total_ms("fl.warmup_step");
  out["fl.phase_coverage"] = stepping_ms > 0 ? phases_ms / stepping_ms : 0.0;
  out["ml.train_us_per_sample"] =
      trained_samples > 0
          ? spans.total_ms("fl.train_cohort") * 1e3 / trained_samples
          : 0.0;
}

void count_metrics(const StepCounts& c, MetricValues& out) {
  const double steps = std::max(1.0, c.steps);
  out["fl.dispatched_per_step"] = c.dispatched / steps;
  out["fl.folded_per_step"] = c.folded / steps;
  out["fl.useful_update_ratio"] =
      c.dispatched > 0 ? c.folded / c.dispatched : 0.0;
  out["net.crashed_per_step"] = c.crashed / steps;
  out["net.retried_per_step"] = c.retried / steps;
  out["fl.dropped_stale_per_step"] = c.dropped_stale / steps;
  out["net.up_kb_per_step"] = c.up_bytes / 1024.0 / steps;
  out["net.down_kb_per_step"] = c.down_bytes / 1024.0 / steps;
}

}  // namespace perfbench
