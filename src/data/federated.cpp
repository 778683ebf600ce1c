#include "data/federated.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <functional>

#include "common/thread_pool.h"

namespace flips::data {

namespace {

/// Per-party label distribution under the configured scheme.
std::vector<std::vector<double>> party_label_priors(
    const FederatedDataConfig& config, common::Rng& rng) {
  const std::size_t c = config.spec.num_classes;
  std::vector<double> priors = config.spec.class_priors;
  if (priors.size() != c) priors.assign(c, 1.0 / static_cast<double>(c));

  std::vector<std::vector<double>> out;
  out.reserve(config.num_parties);

  if (config.scheme == PartitionScheme::kPlantedModes) {
    // Ground-truth modes must be *distinct* (unlike Dirichlet draws
    // under skewed priors, which all concentrate on the head class, so
    // no clustering could recover them). Mode m peaks on a rotating
    // (main, secondary) label pair with a stride that keeps up to
    // C * (C - 1) modes pairwise different; parties copy their mode's
    // distribution with a little jitter so modes stay recoverable.
    std::vector<std::vector<double>> modes;
    const std::size_t num_modes = std::max<std::size_t>(1, config.num_modes);
    for (std::size_t m = 0; m < num_modes; ++m) {
      std::vector<double> mode(c, 0.2 / static_cast<double>(c));
      const std::size_t main_label = m % c;
      const std::size_t secondary =
          (main_label + 1 + m / c) % c;
      mode[main_label] += 0.5;
      mode[secondary == main_label ? (main_label + 1) % c : secondary] +=
          0.3;
      modes.push_back(std::move(mode));
    }
    for (std::size_t p = 0; p < config.num_parties; ++p) {
      std::vector<double> dist = modes[p % num_modes];
      double sum = 0.0;
      for (auto& v : dist) {
        v = std::max(0.0, v + config.mode_jitter * rng.normal());
        sum += v;
      }
      if (sum <= 0.0) {
        dist.assign(c, 1.0 / static_cast<double>(c));
      } else {
        for (auto& v : dist) v /= sum;
      }
      out.push_back(std::move(dist));
    }
    return out;
  }

  // kDirichlet: concentration alpha * priors * C keeps the *expected*
  // federation marginal equal to the dataset priors while alpha tunes
  // per-party concentration.
  std::vector<double> concentration(c);
  for (std::size_t j = 0; j < c; ++j) {
    concentration[j] = config.alpha * priors[j] * static_cast<double>(c);
  }
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    out.push_back(rng.dirichlet(concentration));
  }
  return out;
}

/// Draws parties [first, last) in order from `rng` into storage the
/// caller has already sized, so it allocates nothing.
void synthesize_parties(const FeatureSampler& sampler,
                        const std::vector<std::vector<double>>& priors,
                        std::size_t first, std::size_t last, common::Rng& rng,
                        FederatedData& data) {
  for (std::size_t p = first; p < last; ++p) {
    Dataset& party = data.party_data[p];
    LabelDistribution& histogram = data.label_distributions[p];
    for (std::size_t s = 0; s < party.size(); ++s) {
      const auto label =
          static_cast<std::uint32_t>(rng.categorical(priors[p]));
      party.labels[s] = label;
      sampler.sample(label, rng, party.features.row(s));
      histogram[label] += 1.0;
    }
  }
}

/// Chunks handed out to threads through a shared counter.
struct ChunkQueue {
  std::atomic<std::size_t> next{0};
  std::size_t chunks = 0;
  const std::function<void(std::size_t)>* work = nullptr;
};

void* drain_chunks(void* queue_ptr) {
  auto& queue = *static_cast<ChunkQueue*>(queue_ptr);
  for (;;) {
    const std::size_t k = queue.next.fetch_add(1);
    if (k >= queue.chunks) return nullptr;
    (*queue.work)(k);
  }
}

/// Runs work(k) for every k in [0, chunks) on min(hardware threads,
/// chunks) threads, the calling one included. `work` must not throw.
/// Raw pthreads, not common::ThreadPool: a std::thread frees its launch
/// state on the new thread, and that first free gives the thread a
/// glibc malloc arena of its own. Arenas outlive their threads and go
/// to the next threads that start, so after every federation a
/// session's training threads would move to fresh arenas while the old
/// ones kept their freed pages (+1.3 MB peak RSS on async-faults).
/// These threads never call malloc or free, so they take no arena.
void run_chunks(std::size_t chunks,
                const std::function<void(std::size_t)>& work) {
  ChunkQueue queue;
  queue.chunks = chunks;
  queue.work = &work;
  const std::size_t threads =
      std::min(common::ThreadPool::resolve_threads(0), chunks);
  std::vector<pthread_t> helpers;
  helpers.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    pthread_t id{};
    // A thread that cannot start leaves its share to the others.
    if (pthread_create(&id, nullptr, &drain_chunks, &queue) != 0) break;
    helpers.push_back(id);
  }
  drain_chunks(&queue);
  for (const pthread_t id : helpers) pthread_join(id, nullptr);
}

/// Draws every party in chunks of kSynthesisChunkParties on every
/// hardware thread. Chunk k starts from `start` skipped ahead by the
/// draws of the parties before it, which is exact unless a Box-Muller
/// u1 came out 0 and took one more draw (p = 2^-53 per normal). So each
/// chunk records where its stream really ended; from the first chunk
/// whose end is not the next chunk's start, the remaining parties are
/// redrawn serially from the true position. Returns the stream after
/// the last party.
common::Rng synthesize_chunked(const FeatureSampler& sampler,
                               const std::vector<std::vector<double>>& priors,
                               std::uint64_t party_draws,
                               const common::Rng& start, FederatedData& data,
                               SynthesisStats& stats) {
  const std::size_t parties = data.party_data.size();
  const std::size_t chunks =
      (parties + kSynthesisChunkParties - 1) / kSynthesisChunkParties;
  const auto chunk_start = [&](std::size_t k) {
    common::Rng rng = start;
    rng.discard(k * kSynthesisChunkParties * party_draws);
    return rng;
  };

  std::vector<common::Rng> ends(chunks, start);
  run_chunks(chunks, [&](std::size_t k) {
    common::Rng rng = chunk_start(k);
    const std::size_t first = k * kSynthesisChunkParties;
    const std::size_t last = std::min(parties, first + kSynthesisChunkParties);
    synthesize_parties(sampler, priors, first, last, rng, data);
    ends[k] = rng;
  });
  stats.chunks = chunks;

  for (std::size_t k = 0; k + 1 < chunks; ++k) {
    if (ends[k] == chunk_start(k + 1)) continue;
    const std::size_t first = (k + 1) * kSynthesisChunkParties;
    for (std::size_t p = first; p < parties; ++p) {
      auto& histogram = data.label_distributions[p];
      std::fill(histogram.begin(), histogram.end(), 0.0);
    }
    common::Rng rng = ends[k];
    synthesize_parties(sampler, priors, first, parties, rng, data);
    stats.redone_parties = parties - first;
    return rng;
  }
  return ends.back();
}

}  // namespace

FederatedData build_federated_data(const FederatedDataConfig& config,
                                   SynthesisStats* stats) {
  FederatedData data;
  common::Rng rng(config.seed);
  const std::size_t c = config.spec.num_classes;
  const FeatureSampler sampler(config.spec);

  // Serial: the Dirichlet gammas take a data-dependent number of draws.
  const auto priors = party_label_priors(config, rng);

  // All party storage is sized here, on the calling thread; the
  // synthesis below only writes into it.
  data.party_data.resize(config.num_parties);
  data.label_distributions.assign(config.num_parties,
                                  LabelDistribution(c, 0.0));
  for (Dataset& party : data.party_data) {
    party.num_classes = c;
    party.features.resize(config.samples_per_party, sampler.feature_dim());
    party.labels.resize(config.samples_per_party);
  }

  // Raw draws per party when no Box-Muller u1 comes out 0: one for
  // each sample's label, two uniforms for each feature's normal. Small
  // federations stay on this thread, as does a spec without classes
  // (its first sample throws, which a worker must not).
  const std::uint64_t party_draws =
      config.samples_per_party * (1 + 2 * sampler.feature_dim());
  SynthesisStats report;
  if (c == 0 || party_draws * config.num_parties < kParallelSynthesisMinDraws) {
    synthesize_parties(sampler, priors, 0, config.num_parties, rng, data);
  } else {
    rng = synthesize_chunked(sampler, priors, party_draws, rng, data, report);
  }
  if (stats != nullptr) *stats = report;

  // Balanced held-out test set: per-class recall (and hence balanced
  // accuracy) gets equal evidence for rare and common labels.
  Dataset& test = data.global_test;
  test.num_classes = c;
  test.features.resize(c * config.test_per_class, sampler.feature_dim());
  test.labels.resize(c * config.test_per_class);
  std::size_t row = 0;
  for (std::uint32_t label = 0; label < c; ++label) {
    for (std::size_t s = 0; s < config.test_per_class; ++s, ++row) {
      test.labels[row] = label;
      sampler.sample(label, rng, test.features.row(row));
    }
  }
  return data;
}

}  // namespace flips::data
