#include "fl/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/stats.h"

namespace flips::fl {

namespace {

/// Steady-clock nanoseconds for phase telemetry (wall overhead of each
/// pipeline stage; orthogonal to the simulated clock).
std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct EvalResult {
  double balanced_accuracy = 0.0;
  std::vector<double> per_label_accuracy;
};

/// Balanced accuracy over the test set. Predictions are computed in
/// parallel chunks (each chunk forwards through its own clone of the
/// model, since layers cache activations) into per-row slots; the
/// per-class tally runs on one thread, so the result does not depend
/// on the chunking.
EvalResult evaluate(const ml::Sequential& model, const ml::Tensor& features,
                    const std::vector<std::uint32_t>& labels,
                    std::size_t num_classes, common::ThreadPool& pool) {
  EvalResult eval;
  const std::size_t n = features.rows();
  if (n == 0) return eval;
  eval.per_label_accuracy.assign(num_classes, 0.0);
  std::vector<double> totals(num_classes, 0.0);

  std::vector<std::uint32_t> preds(n, 0);
  // Fixed chunk granularity, NOT pool.size()-derived: the ML kernels
  // build with -ffast-math, where a row's position inside its chunk
  // decides which SIMD-body/remainder code path computes it. Constant
  // boundaries keep every row's arithmetic identical for every thread
  // count; the pool merely distributes the chunks.
  constexpr std::size_t kEvalChunkRows = 64;
  const std::size_t num_chunks = (n + kEvalChunkRows - 1) / kEvalChunkRows;
  // Scratch models are recycled through a small checkout stack so the
  // number of deep clones is bounded by the worker count, not the
  // chunk count (a clone exists only to give each in-flight chunk
  // private activation buffers).
  std::vector<std::unique_ptr<ml::Sequential>> scratch_models;
  std::mutex scratch_mutex;
  pool.parallel_for(num_chunks, [&](std::size_t c) {
    const std::size_t begin = c * kEvalChunkRows;
    const std::size_t end = std::min(n, begin + kEvalChunkRows);
    if (begin >= end) return;
    std::unique_ptr<ml::Sequential> local;
    {
      std::lock_guard<std::mutex> lock(scratch_mutex);
      if (!scratch_models.empty()) {
        local = std::move(scratch_models.back());
        scratch_models.pop_back();
      }
    }
    if (!local) local = std::make_unique<ml::Sequential>(model);
    ml::Tensor slice(end - begin, features.cols());
    std::memcpy(slice.data(), features.row(begin),
                slice.size() * sizeof(double));
    const ml::Tensor& logits = local->forward(slice);
    for (std::size_t i = begin; i < end; ++i) {
      const double* row = logits.row(i - begin);
      std::size_t best = 0;
      for (std::size_t k = 1; k < logits.cols(); ++k) {
        if (row[k] > row[best]) best = k;
      }
      preds[i] = static_cast<std::uint32_t>(best);
    }
    std::lock_guard<std::mutex> lock(scratch_mutex);
    scratch_models.push_back(std::move(local));
  });

  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t truth = labels[i];
    totals[truth] += 1.0;
    if (preds[i] == truth) eval.per_label_accuracy[truth] += 1.0;
  }
  std::size_t live_classes = 0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (totals[c] > 0.0) {
      eval.per_label_accuracy[c] /= totals[c];
      eval.balanced_accuracy += eval.per_label_accuracy[c];
      ++live_classes;
    }
  }
  if (live_classes > 0) {
    eval.balanced_accuracy /= static_cast<double>(live_classes);
  }
  return eval;
}

/// RNG-stream salt for async dispatches: streams are keyed by the
/// monotone dispatch sequence (not the step number), so a party
/// re-dispatched at the same server version still draws fresh noise.
constexpr std::uint64_t kAsyncStreamSalt = 0x0A57'0000'0000'0000ull;

/// Seed salt for the session's fault plan: its churn/crash/link streams
/// must never alias the party training streams.
constexpr std::uint64_t kFaultPlanSalt = 0xFA17'0000'0000'0000ull;

}  // namespace

// ---------------------------------------------------------------------
// ResultAccounting (fl/observer.h)

void ResultAccounting::on_party_feedback(std::size_t round,
                                         const PartyFeedback& feedback) {
  (void)round;
  if (feedback.party_id < selection_counts_.size() &&
      selection_counts_[feedback.party_id]++ == 0) {
    ++covered_;
  }
}

void ResultAccounting::on_round_end(std::size_t round,
                                    const RoundRecord& record) {
  download_bytes_ += record.download_bytes;
  upload_bytes_ += record.upload_bytes;
  total_bytes_ +=
      record.download_bytes + record.upload_bytes + record.setup_bytes;
  total_time_s_ += record.round_time_s;
  peak_accuracy_ = std::max(peak_accuracy_, record.balanced_accuracy);
  if (!rounds_to_target_ && target_accuracy_ > 0.0 &&
      record.balanced_accuracy >= target_accuracy_) {
    rounds_to_target_ = round;
    time_to_target_s_ = total_time_s_;
  }
  if (!coverage_round_ && covered_ == selection_counts_.size()) {
    coverage_round_ = round;
  }
}

// ---------------------------------------------------------------------
// FederationSession

/// Everything a party produces inside the parallel phase. Workers
/// write only their own slot; the sequential phase folds the slots
/// into shared state in cohort order.
struct FederationSession::PartyOutcome {
  PartyFeedback fb;
  bool trained = false;
  std::vector<double> scaffold_ci_new;  ///< SCAFFOLD only
  /// Arena-leased wire update (decoded under a lossy codec, clipped
  /// under DP) — what the aggregator folds. Moved into fb.delta after
  /// the fold so selectors can read it, then returned to the arena.
  std::vector<double> delta;
  std::uint64_t wire_bytes = 0;  ///< encoded uplink size
  // Fault plan (sync): the stepping thread sets the dispatch key and
  // the churn verdict before the parallel wave; the worker records how
  // the dispatch failed. fault_failed slots are what backfill replaces.
  std::uint64_t event = 0;   ///< fault-stream key (dispatch sequence)
  bool churned = false;      ///< unreachable at dispatch (set pre-wave)
  bool fault_failed = false; ///< lost to churn / crash / link fault
  bool link_failed = false;  ///< trained but the uplink was lost
};

/// One async in-flight dispatch slot. The stepping thread fills the
/// dispatch metadata, a worker fills the training outcome, and the
/// slot stays occupied until its arrival is processed (folded slots
/// keep their delta borrowed by the aggregator until the server step).
struct FederationSession::InFlight {
  PartyFeedback fb;
  std::vector<double> delta;     ///< arena-leased wire update
  std::uint64_t wire_bytes = 0;  ///< encoded uplink size
  std::uint64_t seq = 0;         ///< dispatch sequence (RNG stream key)
  std::size_t dispatch_version = 0;  ///< server_version_ at dispatch
  bool trained = false;
  // Fault plan (async): churn is checked on the stepping thread at
  // dispatch/retry time; crash and link draws happen inside
  // train_one_dispatch (stateless streams, worker-safe).
  std::size_t attempt = 0;   ///< retries consumed for this occupancy
  bool churned = false;      ///< unreachable at dispatch
  bool link_failed = false;  ///< trained but the uplink was lost
};

FederationSession::FederationSession(
    FlJobConfig config, std::shared_ptr<const std::vector<Party>> parties,
    std::shared_ptr<const data::Dataset> global_test, ml::Sequential model,
    std::unique_ptr<ParticipantSelector> selector,
    common::ThreadPool* shared_pool)
    : config_(std::move(config)),
      parties_(std::move(parties)),
      global_test_(std::move(global_test)),
      model_(std::move(model)),
      selector_(std::move(selector)),
      shared_pool_(shared_pool),
      accounting_(parties_->size(), config_.target_accuracy),
      rng_(config_.seed),
      server_(config_.server, model_.num_parameters()),
      local_sgd_(config_.local.sgd),
      codec_(config_.codec),
      broadcast_rng_(common::mix_seed(config_.seed, 0, 0xB0ADCA57ull)) {
  const std::size_t n = parties_->size();
  inert_ = n == 0 || config_.rounds == 0;
  if (shared_pool_ == nullptr) {
    owned_pool_ = std::make_unique<common::ThreadPool>(config_.threads);
  }

  global_params_ = model_.parameters();
  dim_ = global_params_.size();
  model_bytes_ = static_cast<std::uint64_t>(dim_ * sizeof(double));

  // Drift-correction state (lazily touched per party).
  if (config_.local.algo == ClientAlgo::kScaffold) {
    scaffold_ci_.assign(n, {});
    scaffold_c_.assign(dim_, 0.0);
  } else if (config_.local.algo == ClientAlgo::kFedDyn) {
    feddyn_hi_.assign(n, {});
  }

  dp_on_ = config_.privacy.mechanism == PrivacyMechanism::kDp &&
           config_.privacy.dp.noise_multiplier > 0.0;
  masking_on_ = config_.privacy.mechanism == PrivacyMechanism::kMasking;

  codec_on_ = config_.codec.codec != net::Codec::kDense64;
  if (codec_on_) {
    ef_residuals_.assign(n, {});
    server_residual_.assign(dim_, 0.0);
  }

  config_.faults.validate();
  faults_on_ = config_.faults.enabled();
  if (faults_on_) {
    faults_ = net::FaultPlan(
        common::mix_seed(config_.seed, kFaultPlanSalt, 0), config_.faults,
        n);
  }

  if (config_.mode == FederationMode::kAsync) {
    // Round-synchronous algorithms need every cohort member to train
    // against the same server state and fold at the same barrier —
    // structurally incompatible with buffered stepping.
    if (config_.local.algo != ClientAlgo::kSgd) {
      throw std::invalid_argument(
          "FederationSession: async mode supports ClientAlgo::kSgd only "
          "(SCAFFOLD/FedDyn are round-synchronous)");
    }
    if (masking_on_) {
      throw std::invalid_argument(
          "FederationSession: pairwise-mask SecAgg needs a round barrier "
          "and is not available in async mode");
    }
    if (config_.stragglers.mode == StragglerMode::kDeadline &&
        config_.stragglers.deadline_s > 0.0) {
      // There is no round to bound in async mode: slow updates are
      // discounted and eventually dropped by the staleness cutoff, so a
      // configured deadline would be silently ignored. Fail fast like
      // SCAFFOLD/masking rather than run a config that means nothing.
      throw std::invalid_argument(
          "FederationSession: StragglerMode::kDeadline has no effect in "
          "async mode (the bounded-staleness cutoff subsumes it) — use "
          "async.max_staleness instead, or clear deadline_s");
    }
    const std::size_t cohort = std::max<std::size_t>(
        1, std::min(config_.parties_per_round, n == 0 ? 1 : n));
    buffer_k_ = config_.async.buffer_k > 0 ? config_.async.buffer_k
                                           : (cohort + 1) / 2;
    buffer_k_ = std::min(buffer_k_, cohort);
    inflight_.resize(cohort);
    free_slots_.resize(cohort);
    // Pop order is cosmetic (slot ids never feed the math) but keep it
    // deterministic: slot 0 dispatches first.
    for (std::size_t k = 0; k < cohort; ++k) {
      free_slots_[k] = cohort - 1 - k;
    }
    party_in_flight_.assign(n, 0);
  }

  observers_.push_back(&accounting_);
}

FederationSession::FederationSession(
    FlJobConfig config, std::vector<Party> parties,
    data::Dataset global_test, ml::Sequential model,
    std::unique_ptr<ParticipantSelector> selector,
    common::ThreadPool* shared_pool)
    : FederationSession(
          std::move(config),
          std::make_shared<const std::vector<Party>>(std::move(parties)),
          std::make_shared<const data::Dataset>(std::move(global_test)),
          std::move(model), std::move(selector), shared_pool) {}

FederationSession::~FederationSession() = default;

void FederationSession::add_observer(RoundObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

void FederationSession::add_observer(
    std::shared_ptr<RoundObserver> observer) {
  if (!observer) return;
  observers_.push_back(observer.get());
  owned_observers_.push_back(std::move(observer));
}

bool FederationSession::done() const {
  return inert_ || exhausted_ || next_round_ > config_.rounds;
}

std::vector<std::size_t> FederationSession::select_cohort(
    std::size_t round) {
  std::vector<std::size_t> cohort =
      selector_->select(round, config_.parties_per_round);
  // Defensive: clamp ids and dedupe (selectors should already comply).
  const std::size_t n = parties_->size();
  std::unordered_set<std::size_t> seen;
  std::vector<std::size_t> valid;
  for (const std::size_t p : cohort) {
    if (p < n && seen.insert(p).second) valid.push_back(p);
  }
  return valid;
}

double FederationSession::train_cohort(std::size_t round,
                                       std::vector<std::size_t>& cohort,
                                       RoundRecord& record) {
  // SCAFFOLD: every party in the cohort must train against the SAME
  // round-start control variate; updates to c are folded in after the
  // parallel phase so results do not depend on cohort order or
  // scheduling.
  if (config_.local.algo == ClientAlgo::kScaffold) {
    scaffold_c_round_ = scaffold_c_;
  }

  // Under a fault plan the round reserves a backfill budget of one
  // extra slot per cohort member; unused slots are skipped at the end.
  const std::size_t base = cohort.size();
  const std::size_t budget = faults_on_ ? base : 0;
  aggregator_.begin_round(dim_, base + budget);
  outcomes_.clear();
  outcomes_.reserve(base + budget);

  double elapsed_s = train_wave(round, cohort, 0, sim_time_s_);

  if (faults_on_ && budget > 0) {
    // Backfill waves: each wave replaces the previous wave's
    // fault-failed slots with fresh selector picks, dispatched after an
    // exponential backoff. Wave count is capped by max_retries and the
    // slot budget; everything runs on the stepping thread, so the
    // schedule is a pure function of the seed.
    std::unordered_set<std::size_t> dispatched(cohort.begin(),
                                               cohort.end());
    std::size_t wave_begin = 0;
    for (std::size_t wave = 1; wave <= config_.faults.max_retries;
         ++wave) {
      std::size_t failures = 0;
      for (std::size_t k = wave_begin; k < outcomes_.size(); ++k) {
        if (outcomes_[k].fault_failed) ++failures;
      }
      const std::size_t room = base + budget - outcomes_.size();
      const std::size_t need = std::min(failures, room);
      if (need == 0) break;
      std::vector<std::size_t> extra;
      for (const std::size_t p : selector_->select(round, need)) {
        if (extra.size() == need) break;
        if (p < parties_->size() && dispatched.insert(p).second) {
          extra.push_back(p);
        }
      }
      if (extra.empty()) break;
      const double backoff_s = config_.faults.backoff_s(wave - 1);
      elapsed_s += backoff_s;
      for (const std::size_t p : extra) {
        RetryRecord retry;
        retry.party_id = p;
        retry.attempt = wave;
        retry.backoff_s = backoff_s;
        retry.time_s = sim_time_s_ + elapsed_s;
        for (RoundObserver* obs : observers_) {
          obs->on_retry(round, retry);
        }
      }
      record.backfilled += extra.size();
      wave_begin = outcomes_.size();
      cohort.insert(cohort.end(), extra.begin(), extra.end());
      elapsed_s +=
          train_wave(round, extra, wave_begin, sim_time_s_ + elapsed_s);
    }
  }

  // Resolve unused budget slots so finalize() can drain.
  for (std::size_t k = outcomes_.size(); k < base + budget; ++k) {
    aggregator_.skip(k);
  }
  return elapsed_s;
}

double FederationSession::train_wave(std::size_t round,
                                     const std::vector<std::size_t>& wave,
                                     std::size_t slot_offset,
                                     double dispatch_time_s) {
  const double local_lr = local_sgd_.learning_rate_for_round(round);

  outcomes_.resize(slot_offset + wave.size());
  // Fault pre-pass on the stepping thread: assign each dispatch its
  // fault-stream key and query the (stateful) churn trace at the
  // wave's dispatch time. Workers then only use the stateless streams.
  if (faults_on_) {
    for (std::size_t i = 0; i < wave.size(); ++i) {
      PartyOutcome& out = outcomes_[slot_offset + i];
      out.event = dispatch_seq_++;
      const PartyProfile& profile = (*parties_)[wave[i]].profile();
      out.churned = !faults_.available(wave[i], dispatch_time_s,
                                       profile.mean_up_s,
                                       profile.mean_down_s);
    }
  }

  // ---- Parallel phase: each selected party simulates its round
  // (straggler draws + local training) into its own outcome slot and
  // submits its wire update to the streaming aggregator, which folds
  // complete cohort-order blocks while later parties still train.
  // Shared state (model_, global_params_, round-start control
  // variates) is read-only here.
  auto simulate_party = [&](std::size_t i) {
    const std::size_t k = slot_offset + i;
    const std::size_t p = wave[i];
    const Party& party = (*parties_)[p];
    PartyOutcome& out = outcomes_[k];
    PartyFeedback& fb = out.fb;
    fb.party_id = p;
    fb.num_samples = party.size();

    common::Rng prng(common::mix_seed(config_.seed, round, p));

    fb.duration_s =
        net::simulated_duration_s(
            party.profile().speed_factor, static_cast<double>(party.size()),
            static_cast<double>(config_.local.epochs),
            config_.compute_s_per_sample,
            static_cast<double>(model_bytes_),
            party.profile().network_mbps) *
        prng.uniform(0.85, 1.15);

    bool responds = true;
    if (config_.stragglers.mode == StragglerMode::kDropFraction) {
      if (prng.uniform() < config_.stragglers.rate) responds = false;
    } else if (config_.stragglers.deadline_s > 0.0 &&
               fb.duration_s > config_.stragglers.deadline_s) {
      responds = false;
    }
    if (!faults_on_) {
      // Legacy per-pick reliability draws (kept byte-identical when no
      // fault plan is configured).
      if (prng.uniform() > party.profile().availability) responds = false;
      if (prng.uniform() < party.profile().fault_rate) responds = false;
    } else if (out.churned) {
      // Unreachable at dispatch: the server notices immediately — no
      // compute, no wire time.
      responds = false;
      out.fault_failed = true;
      fb.duration_s = 0.0;
    } else if (responds &&
               faults_.crashes(p, out.event,
                               party.profile().fault_rate)) {
      // Mid-training crash: the full simulated duration elapses before
      // the server gives up on the dispatch, but no update lands (and
      // the party burns no persistent client state).
      responds = false;
      out.fault_failed = true;
    } else if (responds) {
      const net::LinkFault link = faults_.transfer(p, out.event);
      if (link.failed) {
        // Uplink lost in transit: full duration consumed and the
        // encoded update's bytes are charged as waste (the dense size —
        // the failed transfer never reaches the codec path, which also
        // keeps the party's error-feedback residual untouched).
        responds = false;
        out.fault_failed = true;
        out.link_failed = true;
        out.wire_bytes = model_bytes_;
      } else {
        fb.duration_s *= link.slowdown;
      }
    }
    fb.responded = responds;
    if (!responds || party.size() == 0) {
      aggregator_.skip(k);
      return;
    }

    // ---- Local training (only responders pay the compute). ----
    out.trained = true;
    ml::Sequential local = model_;
    std::vector<double>& w = local.mutable_parameters();
    const auto& dataset = party.dataset();
    const std::size_t feature_dim = dataset.features.cols();
    std::vector<std::size_t> order(dataset.size());
    std::iota(order.begin(), order.end(), 0);

    const double mu = config_.local.prox_mu;
    const double* ci = nullptr;  // round-start SCAFFOLD variate
    if (config_.local.algo == ClientAlgo::kScaffold &&
        !scaffold_ci_[p].empty()) {
      ci = scaffold_ci_[p].data();
    }
    const double* hi = nullptr;  // round-start FedDyn regularizer
    if (config_.local.algo == ClientAlgo::kFedDyn &&
        !feddyn_hi_[p].empty()) {
      hi = feddyn_hi_[p].data();
    }

    ml::Tensor batch;
    std::vector<std::uint32_t> batch_labels;
    double batch_loss_sum = 0.0;
    double batch_loss_sq_sum = 0.0;
    std::size_t steps = 0;
    for (std::size_t epoch = 0; epoch < config_.local.epochs; ++epoch) {
      prng.shuffle(order);
      for (std::size_t start = 0; start < order.size();
           start += config_.local.batch_size) {
        const std::size_t stop =
            std::min(order.size(), start + config_.local.batch_size);
        batch.resize(stop - start, feature_dim);
        batch_labels.resize(stop - start);
        for (std::size_t i = start; i < stop; ++i) {
          std::memcpy(batch.row(i - start), dataset.features.row(order[i]),
                      feature_dim * sizeof(double));
          batch_labels[i - start] = dataset.labels[order[i]];
        }
        const double loss = local.train_step_gradient(batch, batch_labels);
        batch_loss_sum += loss;
        batch_loss_sq_sum += loss * loss;
        ++steps;

        // Fused correction + SGD step, straight on the model's flat
        // parameter buffer (no gradient copy, no copy-back).
        const std::vector<double>& grad = local.gradients();
        switch (config_.local.algo) {
          case ClientAlgo::kSgd:
            if (mu > 0.0) {
              for (std::size_t i = 0; i < dim_; ++i) {
                w[i] -= local_lr *
                        (grad[i] + mu * (w[i] - global_params_[i]));
              }
            } else {
              for (std::size_t i = 0; i < dim_; ++i) {
                w[i] -= local_lr * grad[i];
              }
            }
            break;
          case ClientAlgo::kScaffold:
            for (std::size_t i = 0; i < dim_; ++i) {
              double g = grad[i] + scaffold_c_round_[i] -
                         (ci != nullptr ? ci[i] : 0.0);
              if (mu > 0.0) g += mu * (w[i] - global_params_[i]);
              w[i] -= local_lr * g;
            }
            break;
          case ClientAlgo::kFedDyn:
            for (std::size_t i = 0; i < dim_; ++i) {
              double g = grad[i] +
                         config_.local.feddyn_alpha *
                             (w[i] - global_params_[i]) -
                         (hi != nullptr ? hi[i] : 0.0);
              if (mu > 0.0) g += mu * (w[i] - global_params_[i]);
              w[i] -= local_lr * g;
            }
            break;
        }
      }
    }
    out.delta = arena_.lease(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      out.delta[i] = w[i] - global_params_[i];
    }
    if (steps > 0) {
      fb.mean_loss = batch_loss_sum / static_cast<double>(steps);
      fb.loss_rms =
          std::sqrt(batch_loss_sq_sum / static_cast<double>(steps));
    }

    // SCAFFOLD option-II variate refresh (Karimireddy et al. Eq. 5);
    // depends only on round-start state, so it can run in parallel.
    // Uses the RAW delta — client-side state must not see wire loss.
    if (config_.local.algo == ClientAlgo::kScaffold && steps > 0) {
      out.scaffold_ci_new.resize(dim_);
      const double inv = 1.0 / (static_cast<double>(steps) * local_lr);
      for (std::size_t i = 0; i < dim_; ++i) {
        out.scaffold_ci_new[i] = (ci != nullptr ? ci[i] : 0.0) -
                                 scaffold_c_round_[i] - out.delta[i] * inv;
      }
    }
    // FedDyn regularizer refresh: per-party state touched only by its
    // owner (cohorts are deduped), so it is safe — and deterministic —
    // to update here in the parallel phase. Raw delta, same as
    // SCAFFOLD.
    if (config_.local.algo == ClientAlgo::kFedDyn) {
      auto& hi_state = feddyn_hi_[p];
      if (hi_state.empty()) hi_state.assign(dim_, 0.0);
      for (std::size_t i = 0; i < dim_; ++i) {
        hi_state[i] -= config_.local.feddyn_alpha * out.delta[i];
      }
    }

    // ---- Wire codec (client side): error feedback + encode +
    // decode. out.delta becomes the decoded update — exactly what the
    // server receives.
    if (codec_on_) {
      thread_local net::EncodedUpdate enc;
      thread_local net::CodecWorkspace ws;
      auto& residual = ef_residuals_[p];
      std::vector<double> pre = arena_.lease(dim_);
      if (residual.empty()) {
        std::memcpy(pre.data(), out.delta.data(), dim_ * sizeof(double));
      } else {
        for (std::size_t i = 0; i < dim_; ++i) {
          pre[i] = out.delta[i] + residual[i];
        }
      }
      codec_.encode(pre, prng, enc, ws);
      out.wire_bytes = enc.wire_bytes();
      codec_.decode(enc, out.delta);
      if (residual.empty()) residual.assign(dim_, 0.0);
      for (std::size_t i = 0; i < dim_; ++i) {
        residual[i] = pre[i] - out.delta[i];
      }
      arena_.release(std::move(pre));
    } else {
      out.wire_bytes = model_bytes_;
    }

    double weight =
        fb.num_samples > 0 ? static_cast<double>(fb.num_samples) : 1.0;
    if (dp_on_) {
      privacy::clip_to_norm(out.delta, config_.privacy.dp.clip_norm);
      // DP-FedAvg aggregates clipped updates with EQUAL weights: under
      // sample-count weighting one large party could dominate the mean
      // with weight ~1, and the per-round sensitivity clip_norm /
      // cohort (which the noise sigma below assumes) would be
      // violated.
      weight = 1.0;
    }
    aggregator_.submit(k, weight, out.delta);
  };
  pool().parallel_for(wave.size(), simulate_party);

  double wave_max_s = 0.0;
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave_max_s =
        std::max(wave_max_s, outcomes_[slot_offset + i].fb.duration_s);
  }
  return wave_max_s;
}

void FederationSession::fold_outcomes(
    const std::vector<std::size_t>& cohort, RoundRecord& record,
    std::uint64_t& up_bytes) {
  // ---- Sequential phase: fold outcomes into shared state in cohort
  // order (bit-identical for every thread count).
  feedback_.clear();
  feedback_.reserve(cohort.size());
  double round_time = 0.0;
  double loss_sum = 0.0;
  std::size_t responded = 0;
  const std::size_t n = parties_->size();

  for (std::size_t k = 0; k < cohort.size(); ++k) {
    const std::size_t p = cohort[k];
    PartyOutcome& out = outcomes_[k];

    if (out.trained) {
      loss_sum += out.fb.mean_loss;
      ++responded;
      up_bytes += out.wire_bytes;

      if (config_.local.algo == ClientAlgo::kScaffold &&
          !out.scaffold_ci_new.empty()) {
        auto& ci = scaffold_ci_[p];
        if (ci.empty()) ci.assign(dim_, 0.0);
        const double inv_n = 1.0 / static_cast<double>(n);
        for (std::size_t i = 0; i < dim_; ++i) {
          // Server-side c absorbs the per-client change scaled by 1/N;
          // nobody reads it until the next round.
          scaffold_c_[i] += (out.scaffold_ci_new[i] - ci[i]) * inv_n;
        }
        ci = std::move(out.scaffold_ci_new);
      }
      // (FedDyn's hi refresh happens in the parallel phase.)

      // Zero-copy hand-off: the arena buffer travels through the
      // feedback (selectors and observers may read it) and is released
      // back to the arena after the round.
      out.fb.delta = std::move(out.delta);
    } else if (out.fault_failed) {
      ++record.crashed;
      // A lost uplink still transited the wire: charge the waste.
      up_bytes += out.wire_bytes;
    }

    round_time = std::max(round_time, out.fb.duration_s);
    feedback_.push_back(std::move(out.fb));
  }

  if (config_.stragglers.mode == StragglerMode::kDeadline &&
      config_.stragglers.deadline_s > 0.0) {
    round_time = std::min(round_time, config_.stragglers.deadline_s);
  }

  record.selected = cohort.size();
  record.responded = responded;
  record.round_time_s = round_time;
  record.mean_train_loss =
      responded > 0 ? loss_sum / static_cast<double>(responded) : 0.0;
}

std::uint64_t FederationSession::server_step(
    std::vector<double>& aggregate,
    const std::vector<std::size_t>& cohort, bool apply) {
  std::uint64_t round_down_bytes = 0;
  if (apply && aggregator_.contributions() > 0) {
    if (dp_on_) {
      const double sigma =
          config_.privacy.dp.noise_multiplier *
          config_.privacy.dp.clip_norm /
          static_cast<double>(aggregator_.contributions());
      privacy::add_gaussian_noise(aggregate, sigma, rng_);
      accountant_.step(config_.privacy.dp.noise_multiplier);
    }
    if (codec_on_) {
      // The broadcast is the codec-compressed per-round parameter
      // delta (clients cache the model and apply decoded deltas). The
      // server applies the DECODED delta to its own copy too, so the
      // single global model in the simulation is exactly what every
      // client reconstructs. Server-side error feedback keeps the
      // broadcast stream convergent.
      std::vector<double> prev = arena_.lease(dim_);
      std::memcpy(prev.data(), global_params_.data(),
                  dim_ * sizeof(double));
      server_.apply(global_params_, aggregate);
      std::vector<double> pre = arena_.lease(dim_);
      for (std::size_t i = 0; i < dim_; ++i) {
        pre[i] = (global_params_[i] - prev[i]) + server_residual_[i];
      }
      codec_.encode(pre, broadcast_rng_, broadcast_enc_, broadcast_ws_);
      round_down_bytes =
          static_cast<std::uint64_t>(broadcast_enc_.wire_bytes()) *
          cohort.size();
      codec_.decode(broadcast_enc_, broadcast_wire_);
      for (std::size_t i = 0; i < dim_; ++i) {
        server_residual_[i] = pre[i] - broadcast_wire_[i];
        global_params_[i] = prev[i] + broadcast_wire_[i];
      }
      arena_.release(std::move(prev));
      arena_.release(std::move(pre));
    } else {
      server_.apply(global_params_, aggregate);
    }
    model_.set_parameters(global_params_);
  }
  if (!codec_on_) {
    round_down_bytes = model_bytes_ * cohort.size();  // full model down
  }
  return round_down_bytes;
}

void FederationSession::evaluate_round(std::size_t round,
                                       RoundRecord& record) {
  // Every eval_every rounds; carried forward in between.
  const bool eval_now = round == 1 || round == config_.rounds ||
                        config_.eval_every == 0 ||
                        round % config_.eval_every == 0;
  if (eval_now) {
    const EvalResult eval =
        evaluate(model_, global_test_->features, global_test_->labels,
                 global_test_->num_classes, pool());
    record.balanced_accuracy = eval.balanced_accuracy;
    record.per_label_accuracy = eval.per_label_accuracy;
  } else if (!history_.empty()) {
    record.balanced_accuracy = history_.back().balanced_accuracy;
    record.per_label_accuracy = history_.back().per_label_accuracy;
  }
}

const RoundRecord& FederationSession::advance() {
  if (done()) {
    throw std::logic_error("FederationSession::advance: session done");
  }
  return config_.mode == FederationMode::kAsync ? async_step() : sync_step();
}

void FederationSession::emit_phase(std::size_t round, SessionPhase phase,
                                   std::uint64_t start_ns) {
  PhaseRecord record;
  record.phase = phase;
  record.start_ns = start_ns;
  record.end_ns = steady_now_ns();
  record.sim_time_s = sim_time_s_;
  for (RoundObserver* obs : observers_) {
    obs->on_phase(round, record);
  }
}

const RoundRecord& FederationSession::sync_step() {
  const std::size_t round = next_round_;

  for (RoundObserver* obs : observers_) {
    obs->on_round_begin(round, *selector_);
  }

  std::uint64_t t = steady_now_ns();
  std::vector<std::size_t> cohort = select_cohort(round);
  const std::size_t base_cohort = cohort.size();
  emit_phase(round, SessionPhase::kSelect, t);

  t = steady_now_ns();
  RoundRecord record;
  record.round = round;
  const double elapsed_s = train_cohort(round, cohort, record);
  emit_phase(round, SessionPhase::kTrainCohort, t);

  // Drain the streaming fold (any trailing partial block) and take the
  // weighted mean BEFORE the delta buffers move into feedback (the
  // aggregator borrows the submitted buffers until finalize()).
  t = steady_now_ns();
  std::vector<double>& aggregate = aggregator_.finalize();

  fold_outcomes(cohort, record, record.upload_bytes);
  if (faults_on_) {
    // Under a fault plan the round's simulated length is the wave
    // schedule (per-wave maxima + backoffs), not the plain cohort max.
    record.round_time_s = elapsed_s;
  }
  emit_phase(round, SessionPhase::kFold, t);

  // Quorum rule: with fewer than ceil(min_quorum x cohort) responders
  // the fold is too degraded to trust — skip the server step (the
  // round still evaluates and advances; nothing throws).
  bool apply = true;
  if (faults_on_ && config_.faults.min_quorum > 0.0) {
    const auto quorum = static_cast<std::size_t>(std::ceil(
        config_.faults.min_quorum * static_cast<double>(base_cohort)));
    if (record.responded < quorum) {
      apply = false;
      record.quorum_skipped = true;
    }
  }

  t = steady_now_ns();
  record.download_bytes = server_step(aggregate, cohort, apply);
  if (masking_on_ && cohort.size() > 1) {
    record.setup_bytes = static_cast<std::uint64_t>(32) * cohort.size() *
                         (cohort.size() - 1);  // pairwise key shares
  }
  emit_phase(round, SessionPhase::kServerStep, t);

  t = steady_now_ns();
  evaluate_round(round, record);
  emit_phase(round, SessionPhase::kEval, t);
  history_.push_back(std::move(record));
  const RoundRecord& stored = history_.back();

  for (const PartyFeedback& fb : feedback_) {
    for (RoundObserver* obs : observers_) {
      obs->on_party_feedback(round, fb);
    }
  }
  for (RoundObserver* obs : observers_) {
    obs->on_round_end(round, stored);
  }

  selector_->report_round(round, feedback_);
  // Selectors that keep deltas copy them in report_round; the arena
  // buffers come home so next round leases allocation-free.
  for (PartyFeedback& fb : feedback_) {
    arena_.release(std::move(fb.delta));
  }

  // Advance the simulated clock (drives the churn traces across
  // rounds; sync phase records historically stamped 0 here, and no
  // consumer depends on that).
  sim_time_s_ += stored.round_time_s;

  ++next_round_;
  return stored;
}

// ---------------------------------------------------------------------
// Async (FedBuff) engine

std::size_t FederationSession::refill_inflight(std::size_t step) {
  if (free_slots_.empty()) return 0;
  const std::size_t n = parties_->size();
  const std::vector<std::size_t> picks =
      selector_->select(step, config_.parties_per_round);

  // Stepping thread assigns slots and dispatch metadata; the worker
  // pool then trains the whole batch against the CURRENT server state
  // (every dispatch in the batch shares one model version, so training
  // eagerly at dispatch time is equivalent to training on arrival).
  std::vector<std::size_t> batch;
  std::unordered_set<std::size_t> seen;
  for (const std::size_t p : picks) {
    if (free_slots_.empty()) break;
    if (p >= n || party_in_flight_[p] != 0 || !seen.insert(p).second) {
      continue;
    }
    party_in_flight_[p] = 1;
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    InFlight& f = inflight_[slot];
    f.fb = PartyFeedback{};
    f.fb.party_id = p;
    f.fb.num_samples = (*parties_)[p].size();
    f.wire_bytes = 0;
    f.trained = false;
    f.seq = dispatch_seq_++;
    f.dispatch_version = server_version_;
    f.attempt = 0;
    f.churned = false;
    f.link_failed = false;
    if (faults_on_ && config_.faults.churn > 0.0) {
      // Stateful churn cursor: stepping thread only, at dispatch time.
      const PartyProfile& profile = (*parties_)[p].profile();
      f.churned = !faults_.available(p, sim_time_s_, profile.mean_up_s,
                                     profile.mean_down_s);
    }
    batch.push_back(slot);
  }
  if (batch.empty()) return 0;

  pool().parallel_for(batch.size(), [&](std::size_t b) {
    train_one_dispatch(inflight_[batch[b]], step);
  });

  for (const std::size_t slot : batch) {
    const InFlight& f = inflight_[slot];
    arrivals_.push({sim_time_s_ + f.fb.duration_s, f.seq, slot});
  }
  return batch.size();
}

void FederationSession::train_one_dispatch(InFlight& f,
                                           std::size_t step) {
  const std::size_t p = f.fb.party_id;
  const Party& party = (*parties_)[p];
  PartyFeedback& fb = f.fb;

  if (faults_on_ && f.churned) {
    // Unreachable at dispatch: the failure notice is immediate.
    fb.responded = false;
    fb.duration_s = 0.0;
    return;
  }

  // Streams are keyed by the dispatch sequence, so a re-dispatched
  // party draws fresh noise; the assignment order above makes the
  // keys a pure function of the arrival history.
  common::Rng prng(
      common::mix_seed(config_.seed, kAsyncStreamSalt ^ f.seq, p));

  fb.duration_s =
      net::simulated_duration_s(
          party.profile().speed_factor, static_cast<double>(party.size()),
          static_cast<double>(config_.local.epochs),
          config_.compute_s_per_sample,
          static_cast<double>(model_bytes_),
          party.profile().network_mbps) *
      prng.uniform(0.85, 1.15);

  bool responds = true;
  if (config_.stragglers.mode == StragglerMode::kDropFraction &&
      prng.uniform() < config_.stragglers.rate) {
    responds = false;
  }
  // (kDeadline is rejected at construction: the bounded-staleness
  // cutoff subsumes it — a slow update is discounted and eventually
  // dropped, never waited on.)
  if (!faults_on_) {
    // Legacy per-pick reliability draws (kept byte-identical when no
    // fault plan is configured).
    if (prng.uniform() > party.profile().availability) responds = false;
    if (prng.uniform() < party.profile().fault_rate) responds = false;
  } else if (responds &&
             faults_.crashes(p, f.seq, party.profile().fault_rate)) {
    // Mid-training crash: full simulated duration, no update.
    responds = false;
  } else if (responds) {
    const net::LinkFault link = faults_.transfer(p, f.seq);
    if (link.failed) {
      // Uplink lost in transit: the dense bytes are charged as waste
      // when the failure notice arrives.
      responds = false;
      f.link_failed = true;
      f.wire_bytes = model_bytes_;
    } else {
      fb.duration_s *= link.slowdown;
    }
  }
  fb.responded = responds;
  if (!responds || party.size() == 0) return;

  f.trained = true;
  ml::Sequential local = model_;
  std::vector<double>& w = local.mutable_parameters();
  const auto& dataset = party.dataset();
  const std::size_t feature_dim = dataset.features.cols();
  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);
  const double local_lr = local_sgd_.learning_rate_for_round(step);
  const double mu = config_.local.prox_mu;

  ml::Tensor batch_x;
  std::vector<std::uint32_t> batch_labels;
  double batch_loss_sum = 0.0;
  double batch_loss_sq_sum = 0.0;
  std::size_t steps = 0;
  for (std::size_t epoch = 0; epoch < config_.local.epochs; ++epoch) {
    prng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += config_.local.batch_size) {
      const std::size_t stop =
          std::min(order.size(), start + config_.local.batch_size);
      batch_x.resize(stop - start, feature_dim);
      batch_labels.resize(stop - start);
      for (std::size_t i = start; i < stop; ++i) {
        std::memcpy(batch_x.row(i - start), dataset.features.row(order[i]),
                    feature_dim * sizeof(double));
        batch_labels[i - start] = dataset.labels[order[i]];
      }
      const double loss = local.train_step_gradient(batch_x, batch_labels);
      batch_loss_sum += loss;
      batch_loss_sq_sum += loss * loss;
      ++steps;
      const std::vector<double>& grad = local.gradients();
      if (mu > 0.0) {
        for (std::size_t i = 0; i < dim_; ++i) {
          w[i] -= local_lr * (grad[i] + mu * (w[i] - global_params_[i]));
        }
      } else {
        for (std::size_t i = 0; i < dim_; ++i) {
          w[i] -= local_lr * grad[i];
        }
      }
    }
  }
  f.delta = arena_.lease(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    f.delta[i] = w[i] - global_params_[i];
  }
  if (steps > 0) {
    fb.mean_loss = batch_loss_sum / static_cast<double>(steps);
    fb.loss_rms =
        std::sqrt(batch_loss_sq_sum / static_cast<double>(steps));
  }

  // Wire codec (client side): per-party error feedback, exactly the
  // sync contract — a party is in flight at most once, so only this
  // worker touches ef_residuals_[p].
  if (codec_on_) {
    thread_local net::EncodedUpdate enc;
    thread_local net::CodecWorkspace ws;
    auto& residual = ef_residuals_[p];
    std::vector<double> pre = arena_.lease(dim_);
    if (residual.empty()) {
      std::memcpy(pre.data(), f.delta.data(), dim_ * sizeof(double));
    } else {
      for (std::size_t i = 0; i < dim_; ++i) {
        pre[i] = f.delta[i] + residual[i];
      }
    }
    codec_.encode(pre, prng, enc, ws);
    f.wire_bytes = enc.wire_bytes();
    codec_.decode(enc, f.delta);
    if (residual.empty()) residual.assign(dim_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      residual[i] = pre[i] - f.delta[i];
    }
    arena_.release(std::move(pre));
  } else {
    f.wire_bytes = model_bytes_;
  }
  if (dp_on_) {
    privacy::clip_to_norm(f.delta, config_.privacy.dp.clip_norm);
  }
}

const RoundRecord& FederationSession::async_step() {
  const std::size_t step = next_round_;
  for (RoundObserver* obs : observers_) {
    obs->on_round_begin(step, *selector_);
  }

  const double step_start_s = sim_time_s_;
  std::uint64_t t = steady_now_ns();
  const std::size_t dispatched = refill_inflight(step);
  emit_phase(step, SessionPhase::kTrainCohort, t);

  if (arrivals_.empty()) {
    // Nothing in flight and nothing dispatchable: the session cannot
    // make progress (degenerate selector). Record an empty step and
    // stop.
    exhausted_ = true;
    RoundRecord record;
    record.round = step;
    t = steady_now_ns();
    evaluate_round(step, record);
    emit_phase(step, SessionPhase::kEval, t);
    history_.push_back(std::move(record));
    const RoundRecord& stored = history_.back();
    for (RoundObserver* obs : observers_) {
      obs->on_round_end(step, stored);
    }
    ++next_round_;
    return stored;
  }

  t = steady_now_ns();
  aggregator_.begin_round(dim_, buffer_k_);
  feedback_.clear();
  RoundRecord record;
  record.round = step;
  std::uint64_t up_bytes = 0;
  std::size_t arrivals_seen = 0;
  std::size_t folded = 0;
  std::size_t redispatched = 0;  ///< fault-plan retries this step
  double loss_sum = 0.0;
  double weight_sum = 0.0;  ///< folded fold-weights (DP sensitivity)
  double weight_max = 0.0;
  // Folded slots stay occupied until the server step: the aggregator
  // borrows their delta buffers until finalize().
  std::vector<std::pair<std::size_t, std::size_t>> folded_slots;

  while (folded < buffer_k_ && !arrivals_.empty()) {
    const net::ArrivalEvent ev = arrivals_.pop();
    sim_time_s_ = ev.time_s;
    InFlight& f = inflight_[ev.slot];
    const std::size_t staleness = server_version_ - f.dispatch_version;
    ++arrivals_seen;

    ArrivalRecord arec;
    arec.party_id = f.fb.party_id;
    arec.seq = f.seq;
    arec.time_s = ev.time_s;
    arec.staleness = staleness;
    if (!f.trained) {
      arec.outcome = ArrivalOutcome::kFailed;
    } else if (staleness > config_.async.max_staleness) {
      arec.outcome = ArrivalOutcome::kDroppedStale;
    } else {
      arec.outcome = ArrivalOutcome::kFolded;
      const double base =
          dp_on_ ? 1.0
                 : (f.fb.num_samples > 0
                        ? static_cast<double>(f.fb.num_samples)
                        : 1.0);
      arec.weight = base * staleness_discount(staleness);
    }
    for (RoundObserver* obs : observers_) {
      obs->on_arrival(step, arec);
    }

    const std::size_t pid = f.fb.party_id;
    switch (arec.outcome) {
      case ArrivalOutcome::kFolded:
        up_bytes += f.wire_bytes;
        loss_sum += f.fb.mean_loss;
        weight_sum += arec.weight;
        weight_max = std::max(weight_max, arec.weight);
        aggregator_.submit(folded, arec.weight, f.delta);
        folded_slots.emplace_back(ev.slot, feedback_.size());
        feedback_.push_back(f.fb);  // delta attached after finalize
        ++folded;
        break;
      case ArrivalOutcome::kDroppedStale:
        // The bytes transited even though the fold discards them;
        // selectors see a non-responder (the server learned nothing).
        up_bytes += f.wire_bytes;
        ++record.dropped_stale;
        f.fb.responded = false;
        arena_.release(std::move(f.delta));
        feedback_.push_back(std::move(f.fb));
        party_in_flight_[pid] = 0;
        free_slots_.push_back(ev.slot);
        break;
      case ArrivalOutcome::kFailed:
        // The failure notice reaches the selector either way; a lost
        // uplink additionally charges its wasted bytes.
        up_bytes += f.wire_bytes;
        feedback_.push_back(f.fb);
        if (faults_on_ && f.attempt < config_.faults.max_retries) {
          // Retry the slot in place: a fresh dispatch of the same
          // party against the CURRENT server state, scheduled after an
          // exponential backoff. Runs inline on the stepping thread —
          // the result only depends on the new seq-keyed stream, so it
          // is bit-identical to a worker execution.
          ++record.crashed;
          ++record.retried;
          ++redispatched;
          const std::size_t attempt = ++f.attempt;
          const double backoff_s = config_.faults.backoff_s(attempt - 1);
          RetryRecord retry;
          retry.party_id = pid;
          retry.attempt = attempt;
          retry.backoff_s = backoff_s;
          retry.time_s = sim_time_s_;
          for (RoundObserver* obs : observers_) {
            obs->on_retry(step, retry);
          }
          f.fb = PartyFeedback{};
          f.fb.party_id = pid;
          f.fb.num_samples = (*parties_)[pid].size();
          f.wire_bytes = 0;
          f.trained = false;
          f.link_failed = false;
          f.seq = dispatch_seq_++;
          f.dispatch_version = server_version_;
          const double redispatch_s = sim_time_s_ + backoff_s;
          f.churned = false;
          if (config_.faults.churn > 0.0) {
            // Re-check the churn trace at the retry time — backoff is
            // also how a churned party waits out its downtime.
            const PartyProfile& profile = (*parties_)[pid].profile();
            f.churned = !faults_.available(pid, redispatch_s,
                                           profile.mean_up_s,
                                           profile.mean_down_s);
          }
          train_one_dispatch(f, step);
          arrivals_.push(
              {redispatch_s + f.fb.duration_s, f.seq, ev.slot});
        } else {
          if (faults_on_) ++record.crashed;
          party_in_flight_[pid] = 0;
          free_slots_.push_back(ev.slot);
        }
        break;
    }
  }

  // Partial flush (queue drained below buffer_k): resolve the tail
  // slots so finalize() can drain.
  for (std::size_t k = folded; k < buffer_k_; ++k) {
    aggregator_.skip(k);
  }
  std::vector<double>& aggregate = aggregator_.finalize();
  emit_phase(step, SessionPhase::kFold, t);

  record.selected = arrivals_seen;
  record.responded = folded;
  record.round_time_s = sim_time_s_ - step_start_s;
  record.upload_bytes = up_bytes;
  // Async downlink: every dispatch ships the full model (clients may
  // rejoin at any version, so there is no shared broadcast delta);
  // fault-plan retries re-ship it.
  record.download_bytes = model_bytes_ * (dispatched + redispatched);
  record.mean_train_loss =
      folded > 0 ? loss_sum / static_cast<double>(folded) : 0.0;

  t = steady_now_ns();
  if (aggregator_.contributions() > 0) {
    if (dp_on_) {
      // Weighted-mean sensitivity: the fold weights are the staleness
      // discounts (base weight is forced to 1.0 under DP, as in sync),
      // so one clipped update moves the aggregate by at most
      // clip_norm * w_i / sum(w). Calibrate sigma on the LARGEST folded
      // weight — a fresh update among stale ones has influence above
      // clip/K, and the equal-weight sync formula would under-noise it.
      // With all weights equal this reduces to clip_norm / K exactly,
      // and sigma / sensitivity stays noise_multiplier, so the
      // accountant's per-step z is unchanged.
      const double sigma =
          config_.privacy.dp.noise_multiplier *
          config_.privacy.dp.clip_norm * weight_max / weight_sum;
      privacy::add_gaussian_noise(aggregate, sigma, rng_);
      accountant_.step(config_.privacy.dp.noise_multiplier);
    }
    server_.apply(global_params_, aggregate);
    model_.set_parameters(global_params_);
    // Staleness is measured in APPLIED steps: an empty flush does not
    // age in-flight updates.
    ++server_version_;
  }
  emit_phase(step, SessionPhase::kServerStep, t);

  // Hand the folded deltas to their feedback entries now that the
  // aggregator released its borrow.
  for (const auto& [slot, idx] : folded_slots) {
    feedback_[idx].delta = std::move(inflight_[slot].delta);
  }

  t = steady_now_ns();
  evaluate_round(step, record);
  emit_phase(step, SessionPhase::kEval, t);
  history_.push_back(std::move(record));
  const RoundRecord& stored = history_.back();

  for (const PartyFeedback& fb : feedback_) {
    for (RoundObserver* obs : observers_) {
      obs->on_party_feedback(step, fb);
    }
  }
  for (RoundObserver* obs : observers_) {
    obs->on_round_end(step, stored);
  }

  selector_->report_round(step, feedback_);
  for (PartyFeedback& fb : feedback_) {
    arena_.release(std::move(fb.delta));
  }
  for (const auto& [slot, idx] : folded_slots) {
    party_in_flight_[inflight_[slot].fb.party_id] = 0;
    free_slots_.push_back(slot);
  }

  ++next_round_;
  return stored;
}

FlJobResult FederationSession::result() const {
  FlJobResult result;
  if (inert_) return result;
  result.history = history_;
  result.final_parameters = global_params_;
  result.peak_accuracy = accounting_.peak_accuracy();
  result.total_bytes = accounting_.total_bytes();
  result.download_bytes = accounting_.download_bytes();
  result.upload_bytes = accounting_.upload_bytes();
  result.fairness.jain_index =
      common::jain_index(accounting_.selection_counts());
  result.coverage_round = accounting_.coverage_round();
  result.rounds_to_target = accounting_.rounds_to_target();
  result.time_to_target_s = accounting_.time_to_target_s();
  result.total_time_s = accounting_.total_time_s();
  if (dp_on_) {
    result.epsilon_spent = accountant_.epsilon(config_.privacy.dp.delta);
  }
  return result;
}

}  // namespace flips::fl
