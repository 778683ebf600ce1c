#include "sim.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <sys/resource.h>

#include "common/experiment.h"
#include "fl/session.h"

namespace perfbench {

namespace {

/// Sessions are configured far past any run length, so done() never
/// ends a timed window; FLIPS selection does not read the round budget.
constexpr std::size_t kOpenEndedRounds = 1'000'000;

flips::ScenarioSpec preset_with(std::string_view preset,
                                std::initializer_list<const char*> sets) {
  flips::ScenarioSpec spec = flips::scenario_preset(preset);
  for (const char* assignment : sets) flips::apply_override(spec, assignment);
  return spec;
}

void run_federation(const SimWorkload& workload, std::uint64_t seed,
                    std::size_t index, double slice_s, bool traced,
                    SimRun& run) {
  const flips::ScenarioSpec spec = federation_spec(workload, seed, index);
  const auto config = flips::to_experiment_config(spec);
  SpanLog* spans = traced ? &run.spans : nullptr;
  const std::uint64_t fed_span =
      traced ? run.spans.begin("federation", SpanLog::kNoParent) : 0;
  if (traced) trace_setup_layers(config, spec.seed, fed_span, run.spans);

  const std::uint64_t t0 = now_ns();
  auto session =
      flips::bench::make_session(config, flips::selector_kind(spec), spec.seed);
  const std::uint64_t t1 = now_ns();
  run.setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  if (traced) run.spans.add("fl.make_session", fed_span, t0, t1);

  RoundLedger ledger(spec.target_accuracy);
  PhaseCollector phases;
  session->add_observer(&ledger);
  if (traced) session->add_observer(&phases);

  // Warm-up: buffers and caches fill outside the timed window.
  for (std::size_t i = 0; i < kWarmupSteps; ++i) {
    timed_advance(*session, &phases, spans, "fl.warmup_step", fed_span);
    run.tally.ok();
  }
  double used_s = 0.0;
  for (;;) {
    const std::size_t done = session->rounds_completed();
    const bool more = done < workload.fixed_rounds || used_s < slice_s ||
                      (!ledger.target_round && done < workload.max_rounds);
    if (!more) break;
    const double ms =
        timed_advance(*session, &phases, spans, "fl.advance", fed_span);
    run.tally.ok();
    run.step_ms.add(ms);
    used_s += ms * 1e-3;
  }
  run.timed_s += used_s;
  if (traced) run.spans.end(fed_span);

  // Correctness: the target is reached within max_rounds steps (which
  // every federation runs if it has not reached it, whatever the clock),
  // the program's own accounting agrees on when, and the model stays
  // finite.
  const auto result = session->result();
  const auto& params = session->parameters();
  const bool finite = std::all_of(params.begin(), params.end(),
                                  [](double v) { return std::isfinite(v); });
  const auto& accuracy = ledger.trajectory.accuracy;
  const std::size_t budget = std::min(accuracy.size(), workload.max_rounds);
  const bool in_budget =
      std::any_of(accuracy.begin(), accuracy.begin() + budget,
                  [&](double a) { return a >= ledger.target; });
  const bool reached = in_budget && ledger.target_round &&
                       result.rounds_to_target && result.time_to_target_s &&
                       *result.rounds_to_target == *ledger.target_round;
  if (!reached || !finite) {
    run.tally.fail();
    run.errors.push_back("federation " + std::to_string(index) +
                         (finite ? " did not reach the target"
                                 : " has non-finite parameters"));
    return;
  }
  run.tally.ok();

  run.trajectories.push_back(std::move(ledger.trajectory));
  for (std::size_t r = 0; r < workload.fixed_rounds; ++r) {
    run.counts.add(ledger.rounds[r]);
  }
  const double samples_per_update =
      static_cast<double>(spec.samples_per_party * spec.local_epochs);
  for (const StepCounts& c : ledger.rounds) {
    run.trained_samples += c.folded * samples_per_update;
  }
}

}  // namespace

SimWorkload sim_workload(std::string_view name) {
  SimWorkload w{};
  if (name == "sync-fedyogi") {
    // The paper's main setting: FedYogi with FLIPS selection on
    // label-skewed data. Local training is ~99% of a step.
    w.spec = preset_with("ham-fedyogi",
                         {"selector=flips", "mode=sync", "codec=dense64",
                          "parties=1000", "samples=200",
                          "participation=0.1", "threads=2"});
    w.federations = 12;
    w.fixed_rounds = 30;
    w.max_rounds = 120;
  } else if (name == "async-faults") {
    // The same layers the other way round: per-arrival quant8 decode
    // and fold, 5x less local data per dispatch, and dispatches lost to
    // churn and crashes.
    w.spec = preset_with("ecg-fedprox",
                         {"mode=async", "churn=1", "fault_rate=0.1",
                          "codec=quant8", "parties=4000", "samples=40",
                          "participation=0.05", "threads=2"});
    w.federations = 36;
    w.fixed_rounds = 40;
    w.max_rounds = 600;
  } else {
    throw std::invalid_argument("unknown simulation workload: " +
                                std::string(name));
  }
  return w;
}

std::uint64_t federation_seed(std::uint64_t seed, std::size_t index) {
  return seed * 1'000'000 + 1000 * static_cast<std::uint64_t>(index);
}

flips::ScenarioSpec federation_spec(const SimWorkload& workload,
                                    std::uint64_t seed, std::size_t index) {
  flips::ScenarioSpec spec = workload.spec;
  spec.seed = federation_seed(seed, index);
  spec.rounds = kOpenEndedRounds;
  return spec;
}

SimRun run_sim(const SimWorkload& workload, std::uint64_t seed,
               double seconds, bool traced) {
  SimRun run;
  const double slice_s = seconds / static_cast<double>(workload.federations);
  for (std::size_t i = 0; i < workload.federations; ++i) {
    try {
      run_federation(workload, seed, i, slice_s, traced, run);
    } catch (const std::exception& error) {
      run.tally.fail();
      run.errors.push_back("federation " + std::to_string(i) + ": " +
                           error.what());
    }
  }
  if (traced) {
    if (const auto error = setup_split_error(run.spans)) {
      run.tally.fail();
      run.errors.push_back(*error);
    }
  }
  // Deterministic outcomes, read off the federations' mean curve over
  // the fixed rounds, as the paper reads its averaged runs.
  if (run.trajectories.empty()) return run;
  double accuracy = 0.0;
  for (const Trajectory& t : run.trajectories) {
    accuracy += t.accuracy[workload.fixed_rounds - 1];
  }
  run.final_accuracy =
      accuracy / static_cast<double>(run.trajectories.size());
  const Crossing crossing = mean_curve_crossing(
      run.trajectories, workload.spec.target_accuracy,
      workload.spec.eval_every, workload.fixed_rounds);
  if (!crossing.reached) {
    run.tally.fail();
    run.errors.push_back(
        "the mean accuracy curve did not reach the target within " +
        std::to_string(workload.fixed_rounds) + " rounds");
  }
  run.sim_time_to_target_s = crossing.sim_s;
  run.comm_mb_to_target = crossing.bytes * 1e-6;
  return run;
}

double steps_per_s(const SimRun& run) {
  return run.timed_s > 0.0
             ? static_cast<double>(run.step_ms.count()) / run.timed_s
             : 0.0;
}

void sim_metrics(const SimWorkload& workload, const SimRun& run,
                 bool per_layer, double untraced_steps_per_s,
                 MetricValues& out) {
  if (!per_layer) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out["setup_s"] = median_or_zero(run.setup_s);
    out["step_ms_p50"] = run.step_ms.percentile(0.50);
    out["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) * 1024.0 * 1e-6;
    out["success_ratio"] = run.tally.success_ratio();
    out["final_accuracy"] = run.final_accuracy;
    out["sim_time_to_target_s"] = run.sim_time_to_target_s;
    out["comm_mb_to_target"] = run.comm_mb_to_target;
    return;
  }
  const double k = static_cast<double>(workload.federations);
  setup_metrics(run.spans, out);
  phase_metrics(run.spans, run.trained_samples, out);
  out["fl.warmup_ms"] = run.spans.total_ms("fl.warmup_step") / k;
  out["fl.step_ms_p95"] = run.step_ms.percentile(0.95);
  count_metrics(run.counts, out);
  // A simulation workload spends no time in the serving layer.
  for (const char* name :
       {"serve.inproc_step_ms_p50", "serve.server_ms_p50",
        "serve.queue_ms_p50", "serve.wire_ms_p50", "serve.reply_ms_p99",
        "serve.rejected", "serve.reconnects"}) {
    out[name] = 0.0;
  }
  out["bench.steps_per_s"] = untraced_steps_per_s;
  out["bench.latency_samples"] = static_cast<double>(run.step_ms.count());
  out["bench.trace_overhead_ratio"] =
      untraced_steps_per_s > 0 ? steps_per_s(run) / untraced_steps_per_s
                               : 0.0;
}

}  // namespace perfbench
