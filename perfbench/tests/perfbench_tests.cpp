// The benchmark's own tests: exact percentiles, the metric catalogue,
// failure accounting, the target-crossing read-out, the traced setup
// split, determinism of the deterministic metrics across thread counts,
// and seed-driven inputs.
//
//   python3 perfbench/run.py --test
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/federated.h"
#include "obs/metrics.h"
#include "report.h"
#include "serve.h"
#include "serve/protocol.h"
#include "sim.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++g_failures;                                                     \
    }                                                                   \
  } while (0)

using namespace perfbench;

void percentiles_are_exact_order_statistics() {
  flips::common::Rng rng(7);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 199u, 1000u}) {
    std::vector<double> values(n);
    for (auto& v : values) v = rng.uniform();
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    Samples samples;
    for (const double v : values) samples.add(v);
    for (const double p : {0.01, 0.5, 0.95, 0.99, 1.0}) {
      // Nearest rank: the ceil(p * n)-th smallest sample.
      const auto rank = static_cast<std::size_t>(
          std::ceil(p * static_cast<double>(n)));
      CHECK(samples.percentile(p) == sorted[std::max<std::size_t>(rank, 1) - 1]);
      CHECK(samples.beyond(p) == n - std::min(rank, n));
    }
  }
  CHECK(order_statistic({3.0, 1.0, 2.0}, 0.5) == 2.0);
  CHECK(order_statistic({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.0);
  bool threw = false;
  try {
    (void)order_statistic({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void metric_names_are_valid_and_carry_units() {
  std::set<std::string> seen;
  std::size_t end_to_end = 0;
  for (const MetricDef& def : metric_catalog()) {
    CHECK(valid_metric_name(def.name));
    CHECK(std::strlen(def.unit) > 0 && std::strlen(def.unit) <= 16);
    CHECK(seen.insert(def.name).second);
    if (def.end_to_end) ++end_to_end;
  }
  CHECK(seen.count("setup_s") == 1);
  CHECK(end_to_end >= 1 && end_to_end < metric_catalog().size());
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("_lead"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("p95%"));
  CHECK(valid_metric_name("fl.select_ms"));
}

void result_line_holds_exactly_the_catalogue() {
  MetricValues values;
  for (const MetricDef& def : metric_catalog()) {
    if (def.end_to_end) values[def.name] = 1.5;
  }
  Tally tally;
  tally.ok();
  const std::string line = result_json(true, tally, values, false);
  CHECK(line.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                   "\"metrics\": {",
                   0) == 0);
  CHECK(line.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}") !=
        std::string::npos);
  values.erase("setup_s");
  bool threw = false;
  try {
    (void)result_json(true, tally, values, false);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

flips::net::Frame step_reply(flips::net::FrameStatus status) {
  flips::net::Frame frame;
  frame.type = flips::net::FrameType::kStep;
  frame.status = status;
  frame.payload = flips::serve::encode_step_request(1);
  return frame;
}

void one_rejected_reply_lowers_success_ratio() {
  Tally tally;
  Samples reply_ms;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 99; ++i) {
    CHECK(account_step_reply(step_reply(flips::net::FrameStatus::kOk), 0.2,
                             tally, reply_ms, rejected));
  }
  CHECK(tally.success_ratio() == 1.0);
  CHECK(!account_step_reply(step_reply(flips::net::FrameStatus::kRejected),
                            0.1, tally, reply_ms, rejected));
  CHECK(rejected == 1);
  CHECK(tally.attempted == 100 && tally.failed == 1);
  CHECK(tally.success_ratio() == 0.99);
  // The refusal misses every latency limit: it is the slowest sample.
  CHECK(std::isinf(reply_ms.percentile(1.0)));
  CHECK(reply_ms.count() == 100);
}

void server_histogram_median() {
  // Two tenants' reply histograms, exposed as flips_serve exposes them.
  flips::obs::Registry& reg = flips::obs::Registry::global();
  const flips::obs::HistogramConfig config{1e-6, 100.0, 3};
  auto& t0 = reg.histogram("flips_serve_reply_seconds", {{"tenant", "t0"}},
                           config);
  auto& t1 = reg.histogram("flips_serve_reply_seconds", {{"tenant", "t1"}},
                           config);
  std::vector<double> all;
  for (int i = 0; i < 1000; ++i) {
    const double s = 2e-4 + 2e-4 * (i + 0.5) / 1000.0;  // 0.2 .. 0.4 ms
    (i % 3 == 0 ? t1 : t0).record(s);
    all.push_back(s * 1e3);
  }
  const double exact = order_statistic(all, 0.5);
  const double estimate = server_reply_ms_p50(reg.text_exposition());
  CHECK(std::abs(estimate - exact) < 0.01 * exact);
  CHECK(server_reply_ms_p50("") == 0.0);
}

void mean_curve_crossing_interpolates_between_evaluations() {
  // Evaluations at rounds 1, 2, 4 (eval_every 2); round 3 carries
  // round 2's accuracy forward.
  Trajectory a{{0.2, 0.4, 0.4, 0.8}, {1, 2, 3, 4}, {10, 20, 30, 40}};
  Trajectory b{{0.2, 0.6, 0.6, 1.0}, {2, 4, 6, 8}, {10, 20, 30, 40}};
  // Mean accuracy 0.2, 0.5, 0.5, 0.9: 0.7 lies halfway from round 2 to 4.
  Crossing c = mean_curve_crossing({a, b}, 0.7, 2, 4);
  CHECK(c.reached);
  CHECK(std::abs(c.sim_s - 4.5) < 1e-12);  // mean sim_s 3 -> 6
  CHECK(std::abs(c.bytes - 30.0) < 1e-12);  // mean bytes 20 -> 40
  // Reached at the first evaluation: no interpolation.
  c = mean_curve_crossing({a, b}, 0.1, 2, 4);
  CHECK(c.reached && c.sim_s == 1.5 && c.bytes == 10.0);
  // Never reached: censored at the last round read.
  c = mean_curve_crossing({a, b}, 0.95, 2, 4);
  CHECK(!c.reached && c.sim_s == 6.0 && c.bytes == 40.0);
  // Only the first `rounds` rounds are read, however long a federation
  // ran: the crossing at round 4 lies beyond a 3-round read.
  c = mean_curve_crossing({a, b}, 0.7, 2, 3);
  CHECK(!c.reached && c.sim_s == 4.5 && c.bytes == 30.0);
  bool threw = false;
  try {
    mean_curve_crossing({a, b}, 0.7, 2, 5);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

void setup_split_is_unclamped_and_checked() {
  // Setups of (synthesis, k-means, make_session) in ms.
  const auto log = [](std::initializer_list<std::array<double, 3>> setups) {
    SpanLog spans;
    std::uint64_t t = 0;
    for (const auto& [data, kmeans, make] : setups) {
      for (const auto& [name, ms] :
           {std::pair{"data.build_federated_data", data},
            std::pair{"cluster.kmeans", kmeans},
            std::pair{"fl.make_session", make}}) {
        const auto ns = static_cast<std::uint64_t>(ms * 1e6);
        spans.add(name, SpanLog::kNoParent, t, t + ns);
        t += ns;
      }
    }
    return spans;
  };
  MetricValues out;
  const SpanLog fits = log({{90, 5, 100}, {80, 5, 95}, {85, 5, 100}});
  setup_metrics(fits, out);
  CHECK(std::abs(out["fl.session_build_s"] - 0.010) < 1e-9);  // 5, 10, 10
  CHECK(!setup_split_error(fits));
  // Within the machine's noise, the remainder reads negative unclamped.
  const SpanLog noisy = log({{100, 5, 100}, {100, 5, 98}, {96, 5, 100}});
  setup_metrics(noisy, out);
  CHECK(out["fl.session_build_s"] < 0.0);
  CHECK(!setup_split_error(noisy));
  // A replay far slower than make_session no longer describes it.
  CHECK(setup_split_error(log({{150, 5, 100}, {140, 5, 100}})));
  // Spans that do not pair up.
  SpanLog partial = log({{90, 5, 100}});
  partial.add("cluster.kmeans", SpanLog::kNoParent, 0, 1000);
  CHECK(setup_split_error(partial));
}

SimWorkload shortened(const char* name) {
  SimWorkload w = sim_workload(name);
  flips::apply_override(w.spec, "parties=120");
  flips::apply_override(w.spec, "samples=20");
  // A target these small federations reach quickly: determinism, not
  // quality, is under test.
  flips::apply_override(w.spec, "target_accuracy=0.3");
  w.federations = 2;
  w.fixed_rounds = 6;
  w.max_rounds = 60;
  return w;
}

void deterministic_metrics_ignore_thread_count() {
  for (const char* name : {"sync-fedyogi", "async-faults"}) {
    SimWorkload one = shortened(name);
    SimWorkload two = shortened(name);
    flips::apply_override(one.spec, "threads=1");
    flips::apply_override(two.spec, "threads=2");
    const SimRun a = run_sim(one, 5, 0.05, false);
    const SimRun b = run_sim(two, 5, 0.05, false);
    CHECK(a.errors.empty() && b.errors.empty());
    CHECK(a.final_accuracy > 0.0);
    CHECK(a.final_accuracy == b.final_accuracy);
    CHECK(a.sim_time_to_target_s == b.sim_time_to_target_s);
    CHECK(a.comm_mb_to_target == b.comm_mb_to_target);
    MetricValues ca;
    MetricValues cb;
    count_metrics(a.counts, ca);
    count_metrics(b.counts, cb);
    CHECK(ca == cb);
    CHECK(a.counts.steps == 2.0 * 6);
  }
}

void seed_drives_the_inputs() {
  const SimWorkload w = sim_workload("sync-fedyogi");
  CHECK(federation_spec(w, 1, 0) == federation_spec(w, 1, 0));
  CHECK(federation_spec(w, 1, 0).to_key_values() !=
        federation_spec(w, 2, 0).to_key_values());
  CHECK(federation_spec(w, 1, 0) != federation_spec(w, 1, 1));
  CHECK(session_spec(1, 0) != session_spec(2, 0));
  // flips_loadgen's tenant stride.
  CHECK(session_spec(1, 1).seed - session_spec(1, 0).seed == 1000);

  // The generated data itself differs between seeds.
  const auto data = [](std::uint64_t seed) {
    const auto config = flips::to_experiment_config(
        federation_spec(shortened("sync-fedyogi"), seed, 0));
    flips::data::FederatedDataConfig dc;
    dc.spec = config.spec;
    dc.num_parties = config.scale.num_parties;
    dc.samples_per_party = config.scale.samples_per_party;
    dc.alpha = config.alpha;
    dc.seed = federation_seed(seed, 0);
    return flips::data::build_federated_data(dc).label_distributions;
  };
  CHECK(data(1) == data(1));
  CHECK(data(1) != data(2));
}

}  // namespace

int main() {
  percentiles_are_exact_order_statistics();
  metric_names_are_valid_and_carry_units();
  result_line_holds_exactly_the_catalogue();
  one_rejected_reply_lowers_success_ratio();
  mean_curve_crossing_interpolates_between_evaluations();
  server_histogram_median();
  setup_split_is_unclamped_and_checked();
  deterministic_metrics_ignore_thread_count();
  seed_drives_the_inputs();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
