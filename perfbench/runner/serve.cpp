#include "serve.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cerrno>
#include <cstring>
#include <exception>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "common/experiment.h"
#include "probe.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "sim.h"

namespace perfbench {

namespace {

using flips::net::Frame;
using flips::net::FrameStatus;
using flips::net::FrameType;

/// Rounds per served session. Sessions run back to back, so the
/// open-session cost is amortised over this many steps.
constexpr std::size_t kSessionRounds = 400;
/// Concurrent tenant connections, each with one outstanding step.
constexpr std::size_t kTenants = 2;
/// flips_serve --threads.
constexpr std::size_t kServerThreads = 1;
/// Server start-ups timed per run (setup_s is their median).
constexpr std::size_t kSetups = 9;
/// Sessions served per second of --seconds: a run serves a fixed number
/// of sessions, sized to last about --seconds at the ~6400 steps/s the
/// reference machine serves. A fixed amount of work keeps the server's
/// peak RSS (which grows with the connections it has served) and the
/// deterministic metrics independent of the machine's speed.
constexpr double kSessionsPerSecond = 16.0;
/// Threads re-running the served sessions in-process after the window.
constexpr std::size_t kVerifierThreads = 3;
/// A traced run records the phases of this many reference runs (the
/// first sessions): enough steps for the fl.* medians, and a trace file
/// of a few MB rather than tens.
constexpr std::size_t kTracedReferences = 16;

/// flips_serve evicts a tenant this long after its connection closed,
/// releasing the finished session: the server's peak RSS then measures
/// its working set, not how many sessions a run happened to serve.
constexpr const char* kIdleTimeoutS = "0.25";

double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// A flips_serve child process. The destructor kills and reaps it if
/// stop() did not.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::string& socket,
                std::size_t threads)
      : socket_(socket) {
    std::vector<std::string> args = {bin,          "--uds",
                                     socket,       "--threads",
                                     std::to_string(threads),
                                     "--idle-timeout", kIdleTimeoutS};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    if (pid_ == 0) {
      // Child: async-signal-safe calls only. The server dies with the
      // benchmark, however the benchmark ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0 && null_fd != STDOUT_FILENO) {
        ::dup2(null_fd, STDOUT_FILENO);
        ::close(null_fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// Connects to the server, retrying until it listens (10 s limit).
  flips::serve::Client connect() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (;;) {
      flips::serve::Client client;
      try {
        client.connect_uds(socket_);
        return client;
      } catch (const std::runtime_error&) {
        if (std::chrono::steady_clock::now() > deadline) throw;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Asks the server to drain, waits for it to exit (10 s limit, then
  /// SIGKILL) and returns its peak RSS in MB.
  double stop() {
    try {
      auto client = connect();
      client.shutdown_server();
    } catch (const std::exception&) {
      ::kill(pid_, SIGTERM);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      rusage usage{};
      int status = 0;
      const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
      if (got == pid_) {
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          throw std::runtime_error("flips_serve exited abnormally");
        }
        return static_cast<double>(usage.ru_maxrss) * 1024.0 * 1e-6;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("flips_serve did not drain within 10 s");
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Shared state of the tenants during the timed window.
struct Window {
  Window(std::uint64_t seed, std::size_t sessions, bool traced)
      : seed(seed), sessions(sessions), traced(traced) {}

  const std::uint64_t seed;
  const std::size_t sessions;  ///< served in the window, 0..sessions-1
  const bool traced;

  std::mutex mu;
  std::size_t next_session = kTenants;  ///< the first ones open in setup
  std::map<std::size_t, std::vector<double>> served;  ///< final params

  /// The next session to serve, until every session is taken.
  std::optional<std::size_t> take() {
    std::lock_guard<std::mutex> lock(mu);
    if (next_session >= sessions) return std::nullopt;
    return next_session++;
  }
};

/// One tenant's measurements (merged after the window).
struct TenantLog {
  Tally tally;
  Samples reply_ms;
  std::uint64_t steps_ok = 0;
  std::uint64_t rejected = 0;
  std::vector<std::string> errors;
  SpanLog spans;
};

Frame request(FrameType type) {
  Frame frame;
  frame.type = type;
  return frame;
}

/// connect + hello + open-session for served session `index`.
flips::serve::Client open_session(const ServerProcess& server,
                                  std::uint64_t seed, std::size_t index) {
  flips::serve::Client client = server.connect();
  client.hello("tenant-" + std::to_string(index));
  client.open_session(session_spec(seed, index).to_key_values());
  return client;
}

/// Steps session `index` to its end over `client`, then fetches its
/// final parameters.
void serve_session(flips::serve::Client& client, std::size_t index,
                   Window& window, TenantLog& log, std::uint64_t parent) {
  for (std::size_t r = 1; r <= kSessionRounds; ++r) {
    Frame step = request(FrameType::kStep);
    step.payload = flips::serve::encode_step_request(r);
    const std::uint64_t t0 = now_ns();
    const Frame reply = client.call(step);
    const std::uint64_t t1 = now_ns();
    if (window.traced) log.spans.add("serve.step", parent, t0, t1);
    if (!account_step_reply(reply, ms_between(t0, t1), log.tally,
                            log.reply_ms, log.rejected)) {
      log.errors.push_back("session " + std::to_string(index) +
                           ": step refused: " +
                           flips::serve::decode_text(reply.payload));
      return;
    }
    ++log.steps_ok;
    flips::serve::StepReply body;
    if (!flips::serve::decode_step_reply(reply.payload, body) ||
        body.request_id != r || body.round != r ||
        body.finished != (r == kSessionRounds)) {
      ++log.tally.failed;  // the reply itself was already counted
      log.errors.push_back("session " + std::to_string(index) +
                           ": step reply out of sequence");
      return;
    }
  }
  const std::uint64_t t0 = now_ns();
  const Frame reply = client.call(request(FrameType::kResult));
  if (window.traced) log.spans.add("serve.result", parent, t0, now_ns());
  std::vector<double> params;
  if (reply.status != FrameStatus::kOk ||
      !flips::serve::decode_result_reply(reply.payload, params)) {
    log.tally.fail();
    log.errors.push_back("session " + std::to_string(index) +
                         ": result fetch failed");
    return;
  }
  log.tally.ok();
  std::lock_guard<std::mutex> lock(window.mu);
  window.served[index] = std::move(params);
}

/// A tenant: serves its first session over the connection opened in
/// setup, then opens and serves sessions back to back until the window
/// closes.
void tenant_loop(const ServerProcess& server, Window& window,
                 flips::serve::Client client, std::size_t index,
                 TenantLog& log) {
  try {
    for (;;) {
      const std::uint64_t session_span =
          window.traced ? log.spans.begin("serve.session", SpanLog::kNoParent)
                        : 0;
      serve_session(client, index, window, log, session_span);
      client.close();
      if (window.traced) log.spans.end(session_span);
      const auto next = window.take();
      if (!next) return;
      index = *next;
      const std::uint64_t t0 = now_ns();
      client = open_session(server, window.seed, index);
      log.tally.ok();
      if (window.traced) {
        log.spans.add("serve.open", SpanLog::kNoParent, t0, now_ns());
      }
    }
  } catch (const std::exception& error) {
    log.tally.fail();
    log.errors.push_back("tenant: " + std::string(error.what()));
  }
}

/// One served session re-run in-process.
struct Verdict {
  bool checked = false;
  bool identical = false;
  bool traced = false;
  Trajectory trajectory;
  double trained_samples = 0.0;
  StepCounts counts;
};

/// What one verifier thread measured.
struct VerifierLog {
  Samples inproc_step_ms;
  SpanLog spans;
};

Verdict reference_run(std::uint64_t seed, std::size_t index,
                      const std::vector<double>& served, bool traced,
                      VerifierLog& log) {
  const flips::ScenarioSpec spec = session_spec(seed, index);
  const auto config = flips::to_experiment_config(spec);
  SpanLog* spans = traced ? &log.spans : nullptr;
  const std::uint64_t ref_span =
      traced ? log.spans.begin("serve.reference", SpanLog::kNoParent) : 0;
  if (traced) trace_setup_layers(config, spec.seed, ref_span, log.spans);
  const std::uint64_t t0 = now_ns();
  auto session = flips::bench::make_session(config, flips::selector_kind(spec),
                                            spec.seed);
  if (traced) log.spans.add("fl.make_session", ref_span, t0, now_ns());
  RoundLedger ledger(spec.target_accuracy);
  PhaseCollector phases;
  session->add_observer(&ledger);
  if (traced) session->add_observer(&phases);
  while (!session->done()) {
    log.inproc_step_ms.add(
        timed_advance(*session, &phases, spans, "fl.advance", ref_span));
  }
  if (traced) log.spans.end(ref_span);

  Verdict v;
  v.checked = true;
  v.traced = traced;
  const auto& reference = session->parameters();
  v.identical = reference.size() == served.size() &&
                std::memcmp(reference.data(), served.data(),
                            served.size() * sizeof(double)) == 0 &&
                std::all_of(served.begin(), served.end(),
                            [](double x) { return std::isfinite(x); });
  const double samples_per_update =
      static_cast<double>(spec.samples_per_party * spec.local_epochs);
  for (const StepCounts& c : ledger.rounds) {
    v.counts.add(c);
    v.trained_samples += c.folded * samples_per_update;
  }
  v.trajectory = std::move(ledger.trajectory);
  return v;
}

/// Re-runs every served session in-process and compares its final
/// parameters bitwise; their courses also give the deterministic
/// metrics, gathered in session order. Outside the timed window.
void verify(const Window& window, bool traced, ServeRun& run) {
  const std::size_t sessions = window.sessions;
  std::vector<Verdict> verdicts(sessions);
  std::vector<VerifierLog> logs(kVerifierThreads);
  const auto check = [&](std::size_t i, VerifierLog& log) {
    const auto served = window.served.find(i);
    if (served == window.served.end()) return;  // failed earlier
    try {
      verdicts[i] = reference_run(window.seed, i, served->second,
                                  traced && i < kTracedReferences, log);
    } catch (const std::exception&) {
      verdicts[i].checked = true;  // identical stays false
    }
  };
  // The traced references run one at a time, first, so that their setup
  // is not timed while another verifier builds a federation.
  const std::size_t sequential =
      traced ? std::min(sessions, kTracedReferences) : 0;
  for (std::size_t i = 0; i < sequential; ++i) check(i, logs.front());
  std::atomic<std::size_t> next{sequential};
  {
    std::vector<std::thread> verifiers;
    for (auto& log : logs) {
      verifiers.emplace_back([&, &log = log] {
        for (std::size_t i = next++; i < sessions; i = next++) check(i, log);
      });
    }
    for (auto& thread : verifiers) thread.join();
  }
  for (auto& log : logs) {
    for (const double ms : log.inproc_step_ms.values()) {
      run.inproc_step_ms.add(ms);
    }
    run.spans.append(log.spans);
  }
  if (traced) {
    if (const auto error = setup_split_error(run.spans)) {
      run.tally.fail();
      run.errors.push_back(*error);
    }
  }
  std::vector<Trajectory> courses;
  for (std::size_t i = 0; i < sessions; ++i) {
    const Verdict& v = verdicts[i];
    if (!v.checked) continue;  // its failure is already counted
    if (!v.identical) {
      run.tally.fail();
      run.errors.push_back("session " + std::to_string(i) +
                           ": served parameters differ from the "
                           "in-process run");
      continue;
    }
    run.tally.ok();
    if (v.traced) run.trained_samples += v.trained_samples;
    run.counts.add(v.counts);
    courses.push_back(v.trajectory);
  }
  if (courses.size() != sessions) return;  // the failures are counted
  double accuracy = 0.0;
  for (const Trajectory& t : courses) accuracy += t.accuracy.back();
  run.final_accuracy = accuracy / static_cast<double>(courses.size());
  // The tiny tenant federations plateau below the preset's target, so
  // their mean curve usually stays under it: time and traffic to target
  // then read the whole session (censored), which is deterministic too.
  const flips::ScenarioSpec spec = serve_tenant_spec();
  const Crossing crossing =
      mean_curve_crossing(courses, spec.target_accuracy, spec.eval_every,
                          spec.rounds);
  run.sim_time_to_target_s = crossing.sim_s;
  run.comm_mb_to_target = crossing.bytes * 1e-6;
}

}  // namespace

flips::ScenarioSpec serve_tenant_spec() {
  // Tiny steps, so framing, queueing and the reply are a visible share
  // of each step: the only workload with serve/ and the net/codec
  // framing on the critical path.
  flips::ScenarioSpec spec = flips::scenario_preset("ecg-fedavg");
  for (const char* assignment :
       {"parties=20", "samples=10", "eval_every=20", "threads=1"}) {
    flips::apply_override(spec, assignment);
  }
  spec.rounds = kSessionRounds;
  return spec;
}

flips::ScenarioSpec session_spec(std::uint64_t seed, std::size_t index) {
  flips::ScenarioSpec spec = serve_tenant_spec();
  spec.seed = federation_seed(seed, index);
  return spec;
}

bool account_step_reply(const Frame& reply, double latency_ms, Tally& tally,
                        Samples& reply_ms, std::uint64_t& rejected) {
  if (reply.type == FrameType::kStep && reply.status == FrameStatus::kOk) {
    tally.ok();
    reply_ms.add(latency_ms);
    return true;
  }
  if (reply.status == FrameStatus::kRejected) ++rejected;
  tally.fail();
  reply_ms.add(INFINITY);
  return false;
}

ServeRun run_serve(std::uint64_t seed, double seconds, bool traced,
                   const std::string& serve_bin,
                   const std::string& socket_path) {
  ServeRun run;
  std::optional<ServerProcess> server;
  std::vector<flips::serve::Client> clients;
  try {
    // Setup: server ready, then hello + open-session for every tenant.
    for (std::size_t s = 0; s < kSetups; ++s) {
      if (server) {
        clients.clear();
        server->stop();
        server.reset();
      }
      const std::uint64_t t0 = now_ns();
      server.emplace(serve_bin, socket_path, kServerThreads);
      for (std::size_t t = 0; t < kTenants; ++t) {
        clients.push_back(open_session(*server, seed, t));
      }
      const std::uint64_t t1 = now_ns();
      run.setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      if (traced) run.spans.add("serve.setup", SpanLog::kNoParent, t0, t1);
      run.tally.ok();
    }
  } catch (const std::exception& error) {
    run.tally.fail();
    run.errors.push_back(std::string("setup: ") + error.what());
    return run;
  }

  // Whole rounds of sessions, at least one per tenant.
  const auto rounds_of_sessions = static_cast<std::size_t>(
      std::ceil(seconds * kSessionsPerSecond / static_cast<double>(kTenants)));
  Window window(seed, kTenants * std::max<std::size_t>(1, rounds_of_sessions),
                traced);
  std::vector<TenantLog> logs(kTenants);
  const std::uint64_t start = now_ns();
  {
    std::vector<std::thread> tenants;
    for (std::size_t t = 0; t < kTenants; ++t) {
      tenants.emplace_back(tenant_loop, std::cref(*server), std::ref(window),
                           std::move(clients[t]), t, std::ref(logs[t]));
    }
    for (auto& thread : tenants) thread.join();
  }
  run.window_s = static_cast<double>(now_ns() - start) * 1e-9;
  run.sessions = window.sessions;
  for (TenantLog& log : logs) {
    run.tally.attempted += log.tally.attempted;
    run.tally.failed += log.tally.failed;
    for (const double ms : log.reply_ms.values()) run.reply_ms.add(ms);
    run.steps_ok += log.steps_ok;
    run.rejected += log.rejected;
    run.errors.insert(run.errors.end(), log.errors.begin(), log.errors.end());
    run.spans.append(log.spans);
  }

  try {
    if (traced) {
      const std::uint64_t t0 = now_ns();
      auto client = server->connect();
      run.metrics_text = client.metrics();
      run.spans.add("serve.metrics", SpanLog::kNoParent, t0, now_ns());
    }
    run.server_peak_rss_mb = server->stop();
    run.tally.ok();
  } catch (const std::exception& error) {
    run.tally.fail();
    run.errors.push_back(std::string("shutdown: ") + error.what());
  }
  server.reset();

  verify(window, traced, run);
  return run;
}

double server_reply_ms_p50(const std::string& text) {
  // flips_serve_reply_seconds_bucket{tenant="t",le="x"} <cumulative>
  // lines, sparse and cumulative per tenant: difference them back into
  // per-bucket counts and pool the tenants.
  const std::string family = "flips_serve_reply_seconds_bucket{";
  std::map<std::string, double> last_cum;  // per tenant label set
  std::map<double, double> buckets;        // upper edge -> count
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind(family, 0) != 0) continue;
    const std::size_t le_at = line.find("le=\"");
    const std::size_t close = line.find("\"}", le_at);
    if (le_at == std::string::npos || close == std::string::npos) continue;
    const std::string tenant = line.substr(family.size(), le_at - family.size());
    const std::string le = line.substr(le_at + 4, close - le_at - 4);
    const double edge = le == "+Inf" ? INFINITY : std::stod(le);
    const double cum = std::stod(line.substr(close + 2));
    buckets[edge] += cum - last_cum[tenant];
    last_cum[tenant] = cum;
  }
  double total = 0.0;
  for (const auto& [edge, n] : buckets) total += n;
  if (total <= 0.0) return 0.0;
  // The server's histogram keeps 2^3 linear buckets per octave (the top
  // three mantissa bits), so a bucket's lower edge is its upper edge
  // with that key decremented. Interpolate linearly inside the bucket.
  constexpr int kShift = 52 - 3;
  const double rank = total / 2;
  double seen = 0.0;
  for (const auto& [edge, n] : buckets) {
    if (seen + n >= rank) {
      if (!std::isfinite(edge)) return INFINITY;
      const double lower = std::bit_cast<double>(
          ((std::bit_cast<std::uint64_t>(edge) >> kShift) - 1) << kShift);
      return (lower + (edge - lower) * (rank - seen) / n) * 1e3;
    }
    seen += n;
  }
  return 0.0;
}

double steps_per_s(const ServeRun& run) {
  return run.window_s > 0.0 ? static_cast<double>(run.steps_ok) / run.window_s
                            : 0.0;
}

void serve_metrics(const ServeRun& run, bool per_layer,
                   double untraced_steps_per_s, MetricValues& out) {
  if (!per_layer) {
    out["setup_s"] = median_or_zero(run.setup_s);
    out["step_ms_p50"] = run.reply_ms.percentile(0.50);
    out["peak_rss_mb"] = run.server_peak_rss_mb;
    out["success_ratio"] = run.tally.success_ratio();
    out["final_accuracy"] = run.final_accuracy;
    out["sim_time_to_target_s"] = run.sim_time_to_target_s;
    out["comm_mb_to_target"] = run.comm_mb_to_target;
    return;
  }
  setup_metrics(run.spans, out);
  phase_metrics(run.spans, run.trained_samples, out);
  out["fl.warmup_ms"] = 0.0;  // every served step is timed
  out["fl.step_ms_p95"] = run.inproc_step_ms.percentile(0.95);
  count_metrics(run.counts, out);
  const double inproc = run.inproc_step_ms.percentile(0.50);
  const double server = server_reply_ms_p50(run.metrics_text);
  const double reply = run.reply_ms.percentile(0.50);
  out["serve.inproc_step_ms_p50"] = inproc;
  out["serve.server_ms_p50"] = server;
  out["serve.queue_ms_p50"] = server - inproc;
  out["serve.wire_ms_p50"] = reply - server;
  out["serve.reply_ms_p99"] = run.reply_ms.percentile(0.99);
  out["serve.rejected"] = static_cast<double>(run.rejected);
  out["serve.reconnects"] = static_cast<double>(run.reconnects);
  out["bench.steps_per_s"] = untraced_steps_per_s;
  out["bench.latency_samples"] = static_cast<double>(run.reply_ms.count());
  out["bench.trace_overhead_ratio"] =
      untraced_steps_per_s > 0 ? steps_per_s(run) / untraced_steps_per_s
                               : 0.0;
}

}  // namespace perfbench
