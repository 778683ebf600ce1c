// Synthetic non-IID federation builder. Two partition schemes:
//  - kDirichlet: each party's label distribution is drawn from
//    Dirichlet(alpha * priors * C) — the standard label-skew protocol
//    (lower alpha => more skew), respecting the dataset's global priors;
//  - kPlantedModes: `num_modes` ground-truth label-distribution modes
//    with parties assigned round-robin — used by the Fig. 2 elbow bench
//    where the true cluster count must be known.
//
// Synthesis runs on every hardware thread once a federation is large
// enough, and its output never depends on how many threads there are:
// parties are cut into chunks of a fixed size, and each chunk draws
// from the point of the seed's one serial stream where the serial
// builder would have reached it (common::Rng::discard).
#pragma once

#include "data/synthetic.h"

namespace flips::data {

enum class PartitionScheme {
  kDirichlet,
  kPlantedModes,
};

struct FederatedDataConfig {
  SyntheticSpec spec;
  std::size_t num_parties = 100;
  std::size_t samples_per_party = 80;
  double alpha = 0.3;
  PartitionScheme scheme = PartitionScheme::kDirichlet;
  std::size_t num_modes = 10;          ///< kPlantedModes only
  double mode_jitter = 0.04;           ///< within-mode distribution noise
  std::size_t test_per_class = 100;    ///< balanced global test set
  std::uint64_t seed = 42;
};

/// Parties per synthesis chunk: the unit of parallel work. Fixed, so
/// chunk boundaries (and the output) never depend on the worker count.
inline constexpr std::size_t kSynthesisChunkParties = 8;

/// Federations needing fewer raw draws than this for their parties'
/// samples are synthesized on the calling thread alone: starting
/// workers would cost more than the work they would share.
inline constexpr std::uint64_t kParallelSynthesisMinDraws = 1ull << 18;

/// How one build_federated_data call synthesized its parties.
struct SynthesisStats {
  /// Chunks the parties were cut into (0 = built serially).
  std::size_t chunks = 0;
  /// Parties rebuilt serially because a Box-Muller retry moved a
  /// chunk's stream end past where the next chunk started.
  std::size_t redone_parties = 0;
};

struct FederatedData {
  std::vector<Dataset> party_data;
  Dataset global_test;
  /// Per-party label histograms (what parties submit for clustering).
  std::vector<LabelDistribution> label_distributions;
};

/// Bit-identical to drawing every party, then the test set, in order
/// from one common::Rng(config.seed) stream. `stats`, when given,
/// reports how the parties were synthesized.
[[nodiscard]] FederatedData build_federated_data(
    const FederatedDataConfig& config, SynthesisStats* stats = nullptr);

}  // namespace flips::data
