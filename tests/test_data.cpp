// Federation builder: Dirichlet label-marginal correctness, skew
// behaviour, planted modes, drift, and bit-identity pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.h"
#include "data/drift.h"
#include "data/federated.h"

namespace {

using flips::data::DatasetCatalog;
using flips::data::FederatedDataConfig;
using flips::data::PartitionScheme;
using flips::data::build_federated_data;
using flips::data::kParallelSynthesisMinDraws;
using flips::data::kSynthesisChunkParties;

TEST(DirichletPartitioner, LabelMarginalsMatchPriors) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 400;
  config.samples_per_party = 100;
  config.alpha = 0.3;
  config.seed = 7;
  const auto data = build_federated_data(config);

  ASSERT_EQ(data.party_data.size(), config.num_parties);
  ASSERT_EQ(data.label_distributions.size(), config.num_parties);

  // Pool every party's label histogram: the federation marginal must
  // track the spec's class priors (law of large numbers over parties).
  std::vector<double> pooled(config.spec.num_classes, 0.0);
  double total = 0.0;
  for (const auto& ld : data.label_distributions) {
    ASSERT_EQ(ld.size(), config.spec.num_classes);
    for (std::size_t c = 0; c < ld.size(); ++c) {
      pooled[c] += ld[c];
      total += ld[c];
    }
  }
  EXPECT_DOUBLE_EQ(
      total, static_cast<double>(config.num_parties *
                                 config.samples_per_party));
  for (std::size_t c = 0; c < pooled.size(); ++c) {
    const double marginal = pooled[c] / total;
    // 40k samples: allow a few points of absolute deviation.
    EXPECT_NEAR(marginal, config.spec.class_priors[c], 0.04)
        << "class " << c;
  }
}

TEST(DirichletPartitioner, HistogramsMatchDatasets) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ham10000();
  config.num_parties = 20;
  config.samples_per_party = 50;
  config.seed = 3;
  const auto data = build_federated_data(config);
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    EXPECT_EQ(flips::data::label_distribution(data.party_data[p]),
              data.label_distributions[p]);
    EXPECT_EQ(data.party_data[p].size(), config.samples_per_party);
    EXPECT_EQ(data.party_data[p].features.cols(), config.spec.feature_dim);
  }
}

TEST(DirichletPartitioner, LowerAlphaMeansMoreSkew) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::fashion_mnist();
  config.num_parties = 150;
  config.samples_per_party = 100;
  config.seed = 11;

  const auto mean_entropy = [&](double alpha) {
    config.alpha = alpha;
    const auto data = build_federated_data(config);
    double h = 0.0;
    for (const auto& ld : data.label_distributions) {
      h += flips::common::entropy(flips::common::normalized(ld));
    }
    return h / static_cast<double>(config.num_parties);
  };

  // Skewed parties concentrate on few labels => lower entropy.
  EXPECT_LT(mean_entropy(0.1), mean_entropy(1.0));
  EXPECT_LT(mean_entropy(1.0), mean_entropy(10.0));
}

TEST(DirichletPartitioner, DeterministicUnderSeed) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 10;
  config.samples_per_party = 20;
  config.seed = 99;
  const auto a = build_federated_data(config);
  const auto b = build_federated_data(config);
  ASSERT_EQ(a.label_distributions, b.label_distributions);
  ASSERT_EQ(a.party_data[0].features, b.party_data[0].features);

  config.seed = 100;
  const auto c = build_federated_data(config);
  EXPECT_NE(a.label_distributions, c.label_distributions);
}

TEST(PlantedModes, PartiesShareModeDistributions) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 40;
  config.samples_per_party = 200;
  config.scheme = flips::data::PartitionScheme::kPlantedModes;
  config.num_modes = 4;
  config.seed = 21;
  const auto data = build_federated_data(config);

  // Same mode (p % 4) => similar label distribution; the L1 gap within
  // a mode must be far below the gap across modes on average.
  double within = 0.0;
  std::size_t within_n = 0;
  double across = 0.0;
  std::size_t across_n = 0;
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    for (std::size_t q = p + 1; q < config.num_parties; ++q) {
      const double gap = flips::common::l1_distance(
          flips::common::normalized(data.label_distributions[p]),
          flips::common::normalized(data.label_distributions[q]));
      if (p % 4 == q % 4) {
        within += gap;
        ++within_n;
      } else {
        across += gap;
        ++across_n;
      }
    }
  }
  within /= static_cast<double>(within_n);
  across /= static_cast<double>(across_n);
  EXPECT_LT(within, 0.5 * across);
}

TEST(GlobalTest, BalancedPerClass) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ham10000();
  config.num_parties = 5;
  config.samples_per_party = 10;
  config.test_per_class = 25;
  const auto data = build_federated_data(config);
  const auto counts = flips::data::label_distribution(data.global_test);
  for (const double c : counts) {
    EXPECT_DOUBLE_EQ(c, 25.0);
  }
}

TEST(Drift, RotatesAffectedPartiesOnly) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 30;
  config.samples_per_party = 60;
  config.seed = 5;
  const auto data = build_federated_data(config);

  flips::data::DriftConfig drift;
  drift.affected_fraction = 0.5;
  drift.label_rotation = 2;
  drift.seed = 17;
  const auto drifted =
      apply_label_drift(config.spec, data.party_data, drift);

  ASSERT_EQ(drifted.party_data.size(), data.party_data.size());
  EXPECT_GT(drifted.mean_shift, 0.0);

  std::size_t changed = 0;
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    if (data.party_data[p].labels != drifted.party_data[p].labels) {
      ++changed;
      // Rotation is a permutation: total count is preserved.
      EXPECT_EQ(drifted.party_data[p].size(), data.party_data[p].size());
    }
  }
  EXPECT_EQ(changed, 15u);

  flips::data::DriftConfig none = drift;
  none.affected_fraction = 0.0;
  const auto unchanged =
      apply_label_drift(config.spec, data.party_data, none);
  EXPECT_DOUBLE_EQ(unchanged.mean_shift, 0.0);
}

TEST(Drift, RejectsFeaturesOfTheWrongWidth) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 4;
  config.samples_per_party = 5;
  auto data = build_federated_data(config);
  data.party_data[2].features = flips::ml::Tensor(5, 3);
  flips::data::DriftConfig drift;
  drift.affected_fraction = 1.0;
  EXPECT_THROW((void)apply_label_drift(config.spec, data.party_data, drift),
               std::invalid_argument);
}

TEST(FeatureSampler, RejectsLabelsOutsideTheSpec) {
  const auto spec = DatasetCatalog::ecg();
  const flips::data::FeatureSampler sampler(spec);
  ASSERT_EQ(sampler.feature_dim(), spec.feature_dim);
  std::vector<double> row(spec.feature_dim);
  flips::common::Rng rng(1);
  EXPECT_NO_THROW(sampler.sample(4, rng, row.data()));
  EXPECT_THROW(sampler.sample(5, rng, row.data()), std::out_of_range);
}

TEST(ImagePatchGenerator, ShapesAndLabels) {
  flips::data::ImagePatchGenerator gen(8, 3, flips::common::Rng(4));
  const auto batch = gen.sample(10);
  ASSERT_EQ(batch.features.size(), 10u);
  ASSERT_EQ(batch.labels.size(), 10u);
  for (const auto& img : batch.features) {
    EXPECT_EQ(img.size(), 64u);
  }
  for (const auto label : batch.labels) {
    EXPECT_LT(label, 3u);
  }
}

// ---- Federation bit-identity pins ----------------------------------
// FNV-1a over every byte a federation hands to training: each party's
// labels and feature bit patterns, the label histograms and the global
// test set. The pinned values were produced by the original
// per-sample synthesis; any change to how samples are drawn or stored
// that alters a single bit of a generated federation fails here.

class Fnv1a {
 public:
  void add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ull;
    }
  }
  void add_double(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }
  void add_dataset(const flips::data::Dataset& d, std::size_t dim) {
    add_u64(d.size());
    add_u64(d.num_classes);
    for (std::size_t s = 0; s < d.size(); ++s) {
      add_u64(d.labels[s]);
      const double* row = d.features.row(s);
      for (std::size_t i = 0; i < dim; ++i) add_double(row[i]);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

std::uint64_t federation_hash(const flips::data::FederatedData& data,
                              std::size_t dim) {
  Fnv1a h;
  h.add_u64(data.party_data.size());
  for (const auto& party : data.party_data) h.add_dataset(party, dim);
  for (const auto& ld : data.label_distributions) {
    h.add_u64(ld.size());
    for (const double v : ld) h.add_double(v);
  }
  h.add_dataset(data.global_test, dim);
  return h.value();
}

/// Every party's features are one block of size() x feature_dim.
void expect_party_shapes(const flips::data::FederatedData& data,
                         std::size_t dim) {
  for (const auto& party : data.party_data) {
    EXPECT_EQ(party.features.rows(), party.size());
    EXPECT_EQ(party.features.cols(), dim);
  }
  EXPECT_EQ(data.global_test.features.rows(), data.global_test.size());
  EXPECT_EQ(data.global_test.features.cols(), dim);
}

FederatedDataConfig golden_dirichlet_config() {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.num_parties = 12;
  config.samples_per_party = 30;
  config.alpha = 0.3;
  config.test_per_class = 10;
  config.seed = 7;
  return config;
}

TEST(FederationGolden, DirichletIsBitIdentical) {
  const auto config = golden_dirichlet_config();
  const auto data = build_federated_data(config);
  expect_party_shapes(data, config.spec.feature_dim);
  EXPECT_EQ(federation_hash(data, config.spec.feature_dim),
            0xA70B849A2F8FDBA4ull);
}

TEST(FederationGolden, PlantedModesIsBitIdentical) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::femnist();
  config.num_parties = 9;
  config.samples_per_party = 25;
  config.scheme = flips::data::PartitionScheme::kPlantedModes;
  config.num_modes = 3;
  config.test_per_class = 2;
  config.seed = 21;
  const auto data = build_federated_data(config);
  expect_party_shapes(data, config.spec.feature_dim);
  EXPECT_EQ(federation_hash(data, config.spec.feature_dim),
            0xF4F24CBE86D3E5FAull);
}

// Benchmark scale: the first federation of a `sync-fedyogi` run at
// workload seed 1 (the ham-fedyogi preset's alpha and separation, 1000
// parties x 200 samples). Large enough that synthesis runs on worker
// threads, unlike the small pins above; pinned from the serial builder.
TEST(FederationGolden, BenchmarkScaleIsBitIdentical) {
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ham10000();
  config.spec.class_separation = 0.8;
  config.num_parties = 1000;
  config.samples_per_party = 200;
  config.alpha = 0.3;
  config.test_per_class = 100;
  config.seed = 1'000'000;
  const auto data = build_federated_data(config);
  expect_party_shapes(data, config.spec.feature_dim);
  EXPECT_EQ(federation_hash(data, config.spec.feature_dim),
            0xA13D9BA965F6FA0Aull);
}

TEST(FederationGolden, LabelDriftIsBitIdentical) {
  const auto config = golden_dirichlet_config();
  const auto data = build_federated_data(config);
  flips::data::DriftConfig drift;
  drift.affected_fraction = 0.5;
  drift.label_rotation = 2;
  drift.seed = 17;
  const auto drifted =
      apply_label_drift(config.spec, data.party_data, drift);
  Fnv1a h;
  for (const auto& party : drifted.party_data) {
    EXPECT_EQ(party.features.rows(), party.size());
    EXPECT_EQ(party.features.cols(), config.spec.feature_dim);
    h.add_dataset(party, config.spec.feature_dim);
  }
  h.add_double(drifted.mean_shift);
  EXPECT_EQ(h.value(), 0xA6ACCC0BA085FEA7ull);
}

// ---- Rng skip-ahead --------------------------------------------------

TEST(Rng, DiscardMatchesRepeatedNext) {
  const std::vector<double> weights = {0.2, 0.5, 0.3};
  for (const std::uint64_t n : {0ull, 1ull, 2ull, 1'000'000ull}) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    flips::common::Rng stepped(1234);
    flips::common::Rng skipped(1234);
    for (std::uint64_t i = 0; i < n; ++i) (void)stepped.next();
    skipped.discard(n);
    EXPECT_TRUE(stepped == skipped);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(stepped.normal()),
                std::bit_cast<std::uint64_t>(skipped.normal()));
      EXPECT_EQ(stepped.categorical(weights), skipped.categorical(weights));
    }
  }
}

// ---- Parallel synthesis against the serial builder --------------------
// `reference` is the serial builder as it stood before synthesis was
// split into chunks, copied verbatim: build_federated_data must
// reproduce it bit for bit at every size, under both partition schemes.

namespace reference {

using flips::data::Dataset;
using flips::data::FeatureSampler;
using flips::data::FederatedData;
namespace common = flips::common;

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

FederatedData build_federated_data(const FederatedDataConfig& config) {
  FederatedData data;
  common::Rng rng(config.seed);
  const std::size_t c = config.spec.num_classes;
  const FeatureSampler sampler(config.spec);

  const auto priors = party_label_priors(config, rng);

  data.party_data.resize(config.num_parties);
  data.label_distributions.reserve(config.num_parties);
  for (std::size_t p = 0; p < config.num_parties; ++p) {
    Dataset& party = data.party_data[p];
    party.num_classes = c;
    party.features.resize(config.samples_per_party, sampler.feature_dim());
    party.labels.resize(config.samples_per_party);
    for (std::size_t s = 0; s < config.samples_per_party; ++s) {
      const auto label =
          static_cast<std::uint32_t>(rng.categorical(priors[p]));
      party.labels[s] = label;
      sampler.sample(label, rng, party.features.row(s));
    }
    data.label_distributions.push_back(label_distribution(party));
  }

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

}  // namespace reference

/// Same shape, labels and feature bit patterns.
void expect_bit_identical(const flips::data::Dataset& got,
                          const flips::data::Dataset& want) {
  ASSERT_EQ(got.num_classes, want.num_classes);
  ASSERT_EQ(got.labels, want.labels);
  ASSERT_EQ(got.features.rows(), want.features.rows());
  ASSERT_EQ(got.features.cols(), want.features.cols());
  const std::size_t bytes = got.features.size() * sizeof(double);
  if (bytes == 0) return;  // an empty tensor's data() may be null
  EXPECT_EQ(std::memcmp(got.features.data(), want.features.data(), bytes), 0);
}

void expect_bit_identical(const flips::data::FederatedData& got,
                          const flips::data::FederatedData& want) {
  ASSERT_EQ(got.party_data.size(), want.party_data.size());
  for (std::size_t p = 0; p < got.party_data.size(); ++p) {
    SCOPED_TRACE(testing::Message() << "party " << p);
    expect_bit_identical(got.party_data[p], want.party_data[p]);
  }
  EXPECT_EQ(got.label_distributions, want.label_distributions);
  SCOPED_TRACE("global test set");
  expect_bit_identical(got.global_test, want.global_test);
}

TEST(ParallelSynthesis, MatchesTheSerialBuilderBitForBit) {
  const std::size_t grain = kSynthesisChunkParties;
  for (const auto& spec :
       {DatasetCatalog::ecg(), DatasetCatalog::ham10000(),
        DatasetCatalog::femnist()}) {
    SCOPED_TRACE(spec.name);
    // Enough samples per party that even grain - 1 parties go parallel.
    const std::size_t per_sample = 1 + 2 * spec.feature_dim;
    const std::size_t many =
        kParallelSynthesisMinDraws / (grain - 1) / per_sample + 1;
    const std::size_t parties[] = {0, 1, grain - 1, grain + 1, 1000, 1000};
    const std::size_t samples[] = {many, many, many, many, 8, 0};
    for (const auto scheme :
         {PartitionScheme::kDirichlet, PartitionScheme::kPlantedModes}) {
      SCOPED_TRACE("scheme " + std::to_string(static_cast<int>(scheme)));
      for (std::size_t i = 0; i < std::size(parties); ++i) {
        SCOPED_TRACE(testing::Message() << parties[i] << " x " << samples[i]);
        FederatedDataConfig config;
        config.spec = spec;
        config.scheme = scheme;
        config.num_parties = parties[i];
        config.samples_per_party = samples[i];
        config.test_per_class = 3;
        config.seed = 0xF11B5 + i;
        flips::data::SynthesisStats stats;
        const auto data = build_federated_data(config, &stats);
        expect_bit_identical(data, reference::build_federated_data(config));
        // Every shape from grain - 1 parties up takes the chunked path.
        const bool chunked = parties[i] >= grain - 1 && samples[i] > 0;
        EXPECT_EQ(stats.chunks > 0, chunked);
        EXPECT_EQ(stats.redone_parties, 0u);
      }
    }
  }
}

TEST(ParallelSynthesis, SmallFederationsStaySerial) {
  // A served tenant's federation (ecg, 20 parties x 10 samples) and the
  // small golden configs never start a worker.
  FederatedDataConfig served;
  served.spec = DatasetCatalog::ecg();
  served.num_parties = 20;
  served.samples_per_party = 10;
  for (const auto& config : {served, golden_dirichlet_config()}) {
    flips::data::SynthesisStats stats;
    (void)build_federated_data(config, &stats);
    EXPECT_EQ(stats.chunks, 0u);
  }
}

// splitmix64's output finalizer, inverted: every step is a bijection on
// 64-bit words (xor-shift, odd multiply), so a wanted output pins the
// counter state that produces it.
std::uint64_t unxorshift(std::uint64_t y, int shift) {
  std::uint64_t x = y;
  for (int i = 0; i <= 64 / shift; ++i) x = y ^ (x >> shift);
  return x;
}

std::uint64_t inverse_odd(std::uint64_t a) {
  std::uint64_t x = a;  // correct to 3 bits; each Newton step doubles it
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

std::uint64_t splitmix_state_for(std::uint64_t output) {
  std::uint64_t z = unxorshift(output, 31);
  z *= inverse_odd(0x94D049BB133111EBull);
  z = unxorshift(z, 27);
  z *= inverse_odd(0xBF58476D1CE4E5B9ull);
  return unxorshift(z, 30);
}

TEST(ParallelSynthesis, BoxMullerRetryFallsBackToTheSerialStream) {
  // Under planted modes the priors take exactly 2 * C draws per party,
  // so every sample's draws have a known index: craft a seed that makes
  // one u1 in the second chunk exactly 0. That normal takes one more
  // draw, so the third chunk's skip-ahead start is off by one.
  const std::size_t parties = 3 * kSynthesisChunkParties;
  FederatedDataConfig config;
  config.spec = DatasetCatalog::ecg();
  config.scheme = PartitionScheme::kPlantedModes;
  config.num_parties = parties;
  config.samples_per_party = 200;
  config.test_per_class = 4;
  const std::uint64_t per_sample = 1 + 2 * config.spec.feature_dim;
  ASSERT_GE(parties * config.samples_per_party * per_sample,
            kParallelSynthesisMinDraws);

  // Sample 5 of party grain + 3: the priors' draws, the samples before
  // it, its label draw, then the u1 of its feature 7.
  const std::uint64_t prior_draws = 2 * config.spec.num_classes * parties;
  const std::uint64_t sample =
      (kSynthesisChunkParties + 3) * config.samples_per_party + 5;
  const std::uint64_t draw = prior_draws + sample * per_sample + 1 + 2 * 7;
  // Draw k (after the constructor's two warm-up draws) uses the state
  // seed + (k + 3) * golden; any output below 2^11 makes u1 == 0.
  const std::uint64_t golden = 0x9E3779B97F4A7C15ull;
  config.seed = splitmix_state_for(0x7FF) - (draw + 3) * golden;
  flips::common::Rng probe(config.seed);
  probe.discard(draw);
  ASSERT_EQ(probe.uniform(), 0.0);

  flips::data::SynthesisStats stats;
  const auto data = build_federated_data(config, &stats);
  EXPECT_EQ(stats.chunks, 3u);
  EXPECT_EQ(stats.redone_parties, kSynthesisChunkParties);
  expect_bit_identical(data, reference::build_federated_data(config));
  for (const auto& party : data.party_data) {
    for (std::size_t i = 0; i < party.features.size(); ++i) {
      ASSERT_TRUE(std::isfinite(party.features.data()[i]));
    }
  }
}

}  // namespace
