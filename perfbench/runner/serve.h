// The serving workload: a flips_serve process driven over a unix-domain
// socket through serve::Client by one benchmark process, closed loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/scenario.h"
#include "net/codec.h"
#include "probe.h"
#include "report.h"

namespace perfbench {

/// The scenario of every served session: `ecg-fedavg` with
/// parties=20 samples=10 eval_every=20 threads=1 for 400 rounds.
flips::ScenarioSpec serve_tenant_spec();

/// The scenario the program receives for served session `index`.
flips::ScenarioSpec session_spec(std::uint64_t seed, std::size_t index);

/// Accounts one step reply seen by a tenant: an ok reply keeps its
/// latency; any other status (a refusal included) is a failure whose
/// latency is +infinity, so it misses every latency limit. Returns
/// whether the reply was ok.
bool account_step_reply(const flips::net::Frame& reply, double latency_ms,
                        Tally& tally, Samples& reply_ms,
                        std::uint64_t& rejected);

struct ServeRun {
  Tally tally;
  std::vector<std::string> errors;
  std::vector<double> setup_s;  ///< one per server start-up
  Samples reply_ms;             ///< every step reply, exact
  double window_s = 0.0;
  std::uint64_t steps_ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t reconnects = 0;
  std::size_t sessions = 0;     ///< sessions served in the window
  double server_peak_rss_mb = 0.0;
  // Deterministic outcomes over the served sessions.
  double final_accuracy = 0.0;
  double sim_time_to_target_s = 0.0;
  double comm_mb_to_target = 0.0;
  // From the in-process reference runs.
  Samples inproc_step_ms;
  double trained_samples = 0.0;  ///< over the traced reference runs
  StepCounts counts;  ///< over the served sessions
  // Traced runs only.
  std::string metrics_text;  ///< the server's kMetrics snapshot
  SpanLog spans;
};

/// One run: timed start-ups of `serve_bin`, then a window in which the
/// tenants serve a fixed number of sessions back to back, sized to last
/// about `seconds`, then the bit-identity check of every served session
/// against an in-process run of its scenario.
ServeRun run_serve(std::uint64_t seed, double seconds, bool traced,
                   const std::string& serve_bin,
                   const std::string& socket_path);

/// p50, in ms, of the flips_serve_reply_seconds histograms of a kMetrics
/// snapshot, pooled over tenants and interpolated inside the bucket that
/// holds it; 0 without samples.
double server_reply_ms_p50(const std::string& metrics_text);

void serve_metrics(const ServeRun& run, bool per_layer,
                   double untraced_steps_per_s, MetricValues& out);

double steps_per_s(const ServeRun& run);

}  // namespace perfbench
