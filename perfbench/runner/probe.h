// Benchmark-side probes on a federation session: the observers that
// read each step's outcome and phases through the public RoundObserver
// seam, the traced setup split, and the per-layer metrics derived from
// them. Shared by the simulation and serving workloads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/experiment.h"
#include "fl/observer.h"
#include "fl/session.h"
#include "report.h"

namespace perfbench {

/// Per-step counts from RoundRecord, summed over a fixed set of steps.
struct StepCounts {
  double steps = 0;
  double dispatched = 0;  ///< RoundRecord::selected
  double folded = 0;      ///< RoundRecord::responded
  double crashed = 0;
  double retried = 0;
  double dropped_stale = 0;
  double up_bytes = 0;
  double down_bytes = 0;

  void add(const StepCounts& other);
};

/// One federation's course, per round: balanced accuracy (carried
/// forward between evaluations), and simulated seconds and uplink +
/// downlink bytes accumulated through that round.
struct Trajectory {
  std::vector<double> accuracy;
  std::vector<double> sim_s;
  std::vector<double> bytes;
};

/// What the benchmark keeps of each RoundRecord: the deterministic
/// outcomes a run is checked and scored on.
struct RoundLedger final : flips::fl::RoundObserver {
  explicit RoundLedger(double target) : target(target) {}
  void on_round_end(std::size_t round,
                    const flips::fl::RoundRecord& record) override;

  double target;
  std::vector<StepCounts> rounds;
  Trajectory trajectory;
  /// First round whose accuracy reached the target.
  std::optional<std::size_t> target_round;
};

/// Where the federations' mean accuracy curve first reaches `target`:
/// simulated seconds and bytes (means over the federations) at that
/// point, interpolated linearly between the evaluation rounds on either
/// side of it (round 1 and every eval_every-th round, as the session
/// evaluates). Read over the first `rounds` rounds only, so the result
/// does not depend on how far the clock let any federation run past
/// them; when the mean curve stays below the target there, `reached` is
/// false and the values are those of round `rounds`. Throws
/// std::logic_error if a trajectory is shorter than `rounds`.
struct Crossing {
  bool reached = false;
  double sim_s = 0.0;
  double bytes = 0.0;
};
Crossing mean_curve_crossing(const std::vector<Trajectory>& runs,
                             double target, std::size_t eval_every,
                             std::size_t rounds);

/// Collects the phases of the step in progress (traced runs).
struct PhaseCollector final : flips::fl::RoundObserver {
  void on_phase(std::size_t round,
                const flips::fl::PhaseRecord& record) override;
  std::vector<flips::fl::PhaseRecord> phases;
};

/// Runs one advance() and returns its wall time in ms. With `spans`,
/// records it as a span `name` under `parent` whose children are the
/// step's phases from `phases` (which must observe the session).
double timed_advance(flips::fl::FederationSession& session,
                     PhaseCollector* phases, SpanLog* spans,
                     const char* name, std::uint64_t parent);

/// The setup split of a traced run: the data synthesis and the
/// Hellinger k-means that make_session performs, repeated through their
/// public entry points with make_session's configuration, each under
/// its own span (data.build_federated_data, cluster.kmeans). It copies
/// the settings of build_federation in bench/common/experiment.cpp
/// (test_per_class, restarts, the k-means seed) and must change when
/// that code does; setup_split_error catches a replay that has drifted
/// to cost clearly more than make_session itself.
void trace_setup_layers(const flips::bench::ExperimentConfig& config,
                        std::uint64_t seed, std::uint64_t parent,
                        SpanLog& spans);

/// Setup metrics of a traced run, medians over its setups:
/// data.build_federated_data_s, cluster.kmeans_s, and
/// fl.session_build_s = make_session time minus the other two of the
/// same setup (not clamped: it reads negative if the replay drifts).
void setup_metrics(const SpanLog& spans, MetricValues& out);

/// An error if, in the median setup, the replayed split
/// (trace_setup_layers) took over 15% longer than the make_session call
/// it splits (more than the machine's own noise), or if the setup spans
/// do not pair up: the replay then no longer describes what
/// make_session does.
std::optional<std::string> setup_split_error(const SpanLog& spans);

/// Session-phase metrics of a traced run over its fl.advance and
/// fl.warmup_step spans and their phase children: fl.<phase>_ms,
/// fl.phase_coverage and ml.train_us_per_sample.
void phase_metrics(const SpanLog& spans, double trained_samples,
                   MetricValues& out);

/// The per-step count metrics (fl.dispatched_per_step ...).
void count_metrics(const StepCounts& counts, MetricValues& out);

}  // namespace perfbench
