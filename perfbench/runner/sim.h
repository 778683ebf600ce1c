// The two simulation workloads: federations built through
// bench::make_session and stepped through FederationSession::advance()
// in the benchmark process.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/scenario.h"
#include "probe.h"
#include "report.h"

namespace perfbench {

/// Untimed steps at the start of each federation.
constexpr std::size_t kWarmupSteps = 2;

/// Every field is set by sim_workload.
struct SimWorkload {
  /// Scenario of every federation of a run; `seed` and `rounds` are
  /// set per federation (see federation_spec).
  flips::ScenarioSpec spec;
  /// Federations built and stepped per run, each from its own seed.
  /// Setup is timed once per federation; the deterministic metrics are
  /// means over them.
  std::size_t federations;
  /// Every federation runs at least this many server steps; the
  /// accuracy, the per-step counts and the target crossing are read
  /// over exactly these.
  std::size_t fixed_rounds;
  /// A federation that has not reached the target within this many
  /// steps fails the run.
  std::size_t max_rounds;
};

/// "sync-fedyogi" or "async-faults". Throws std::invalid_argument on
/// any other name.
SimWorkload sim_workload(std::string_view name);

/// Seed of the `index`-th federation (or served session) of a run with
/// workload seed `seed`: consecutive federations are 1000 apart, the
/// stride flips_loadgen gives its tenants.
std::uint64_t federation_seed(std::uint64_t seed, std::size_t index);

/// The scenario the program receives for one federation of a run.
flips::ScenarioSpec federation_spec(const SimWorkload& workload,
                                    std::uint64_t seed, std::size_t index);

struct SimRun {
  Tally tally;
  std::vector<std::string> errors;
  std::vector<double> setup_s;  ///< one per federation
  Samples step_ms;              ///< every timed advance(), exact
  double timed_s = 0.0;         ///< wall time of the timed steps
  /// One per federation that passed its checks.
  std::vector<Trajectory> trajectories;
  // Deterministic outcomes: mean accuracy at fixed_rounds, and time and
  // traffic to where the mean accuracy curve reaches the target.
  double final_accuracy = 0.0;
  double sim_time_to_target_s = 0.0;
  double comm_mb_to_target = 0.0;
  StepCounts counts;
  /// Folded updates x samples x local epochs over every step run.
  double trained_samples = 0.0;
  SpanLog spans;  ///< traced runs only
};

/// Runs one workload: for each federation, a timed setup, untimed
/// warm-up steps, then timed steps until the federation has run
/// fixed_rounds, reached the target, and used its share of `seconds`.
/// With `traced`, spans are recorded around every call into a layer.
SimRun run_sim(const SimWorkload& workload, std::uint64_t seed,
               double seconds, bool traced);

/// Adds the workload's end-to-end metrics (untraced run) or per-layer
/// metrics (traced run, with the untraced pass's `untraced_steps_per_s`)
/// to `out`.
void sim_metrics(const SimWorkload& workload, const SimRun& run,
                 bool per_layer, double untraced_steps_per_s,
                 MetricValues& out);

/// Steps per second of the timed steps of a run.
double steps_per_s(const SimRun& run);

}  // namespace perfbench
