// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload sync-fedyogi --seed 1 --seconds 10 --trace 0
//             [--serve-bin PATH] [--socket PATH] [--trace-out PATH]
//   perfbench --list-metrics
//
// Workloads: sync-fedyogi, async-faults (federations stepped in this
// process) and serve-closed (a flips_serve child driven over a unix
// socket). --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 measures an untraced and a traced pass of half the length
// each, reports the per-layer metrics of the traced pass and their
// overhead, and writes its spans to --trace-out. Every metric is printed
// by name with its unit; the last line of stdout is the JSON result.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "report.h"
#include "serve.h"
#include "sim.h"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string serve_bin = "flips_serve";
  std::string socket = "perfbench-serve.sock";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--serve-bin PATH] [--socket PATH] "
               "[--trace-out PATH]\n"
            << "       perfbench --list-metrics\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--serve-bin") {
        args.serve_bin = value;
      } else if (flag == "--socket") {
        args.socket = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

void print_metrics(const perfbench::MetricValues& values) {
  for (const auto& def : perfbench::metric_catalog()) {
    const auto it = values.find(def.name);
    if (it != values.end()) {
      std::cout << "  " << def.name << " = " << it->second << " " << def.unit
                << "\n";
    }
  }
}

void print_latency(const char* what, const perfbench::Samples& samples) {
  if (samples.count() == 0) return;
  std::cout << "  " << what << ": n=" << samples.count() << ", p50 "
            << samples.percentile(0.50) << " ms (" << samples.beyond(0.50)
            << " beyond), p95 " << samples.percentile(0.95) << " ms ("
            << samples.beyond(0.95) << " beyond), p99 "
            << samples.percentile(0.99) << " ms (" << samples.beyond(0.99)
            << " beyond)\n";
}

template <typename Run>
bool report_errors(const Run& run) {
  for (const auto& error : run.errors) {
    std::cout << "  error: " << error << "\n";
  }
  return run.errors.empty() && run.tally.failed == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--list-metrics") {
    for (const auto& def : perfbench::metric_catalog()) {
      std::cout << def.name << " " << def.unit << " "
                << (def.end_to_end ? "end_to_end" : "per_layer") << "\n";
    }
    return 0;
  }
  const Args args = parse(argc, argv);
  std::cout.precision(6);

  try {
    perfbench::MetricValues values;
    perfbench::Tally tally;
    bool correct = false;
    // Untraced: the whole run is the measurement. Traced: an untraced
    // and a traced pass of half the length each.
    const double pass_s = args.trace ? args.seconds / 2 : args.seconds;

    if (args.workload == "serve-closed") {
      const auto run = [&](bool traced) {
        return perfbench::run_serve(args.seed, pass_s, traced, args.serve_bin,
                                    args.socket);
      };
      const auto untraced = run(false);
      std::cout << "serve-closed untraced: " << untraced.sessions
                << " sessions, " << untraced.steps_ok << " steps in "
                << untraced.window_s << " s\n";
      print_latency("reply_ms", untraced.reply_ms);
      correct = report_errors(untraced);
      tally = untraced.tally;
      if (args.trace) {
        const auto traced = run(true);
        std::cout << "serve-closed traced: " << traced.sessions
                  << " sessions, " << traced.steps_ok << " steps\n";
        print_latency("reply_ms", traced.reply_ms);
        correct = report_errors(traced) && correct;
        tally.attempted += traced.tally.attempted;
        tally.failed += traced.tally.failed;
        perfbench::serve_metrics(traced, true,
                                 perfbench::steps_per_s(untraced), values);
        if (!args.trace_out.empty()) traced.spans.write_jsonl(args.trace_out);
      } else {
        perfbench::serve_metrics(untraced, false, 0.0, values);
      }
    } else {
      const auto workload = perfbench::sim_workload(args.workload);
      const auto untraced =
          perfbench::run_sim(workload, args.seed, pass_s, false);
      std::cout << args.workload << " untraced: "
                << untraced.step_ms.count() << " timed steps in "
                << untraced.timed_s << " s over " << workload.federations
                << " federations\n";
      print_latency("step_ms", untraced.step_ms);
      correct = report_errors(untraced);
      tally = untraced.tally;
      if (args.trace) {
        const auto traced =
            perfbench::run_sim(workload, args.seed, pass_s, true);
        std::cout << args.workload << " traced: " << traced.step_ms.count()
                  << " timed steps\n";
        correct = report_errors(traced) && correct;
        tally.attempted += traced.tally.attempted;
        tally.failed += traced.tally.failed;
        perfbench::sim_metrics(workload, traced, true,
                               perfbench::steps_per_s(untraced), values);
        if (!args.trace_out.empty()) traced.spans.write_jsonl(args.trace_out);
      } else {
        perfbench::sim_metrics(workload, untraced, false, 0.0, values);
      }
    }
    print_metrics(values);
    std::cout << perfbench::result_json(correct, tally, values, args.trace)
              << std::endl;
    return 0;
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
