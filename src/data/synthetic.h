// Synthetic stand-ins for the paper's four datasets. Each spec fixes a
// class-prototype geometry (deterministic per spec) so that "MIT-BIH
// ECG" means the same learning problem in every bench and test; the
// federation builder then controls *who holds which labels*, which is
// the axis FLIPS actually studies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/tensor.h"

namespace flips::data {

struct SyntheticSpec {
  std::string name = "synthetic";
  std::size_t feature_dim = 32;
  std::size_t num_classes = 5;
  /// Global class marginals (sums to 1). Heavy skew here is what makes
  /// the rare-label reproduction (Fig. 13) meaningful.
  std::vector<double> class_priors;
  /// Distance between class prototype means, in units of feature noise.
  double class_separation = 2.4;
  double feature_noise = 1.0;
  /// Seed for the class prototype geometry (fixed per dataset so every
  /// federation drawn from a spec shares one ground truth).
  std::uint64_t prototype_seed = 0xF11B5;

  /// Specs are compared field-for-field (the bench layer's federation
  /// cache keys on the whole spec, so new fields are covered
  /// automatically).
  friend bool operator==(const SyntheticSpec&,
                         const SyntheticSpec&) = default;
};

/// The four paper datasets (reduced-scale synthetic analogues).
struct DatasetCatalog {
  static SyntheticSpec ecg();            ///< MIT-BIH: 5 beat classes, skewed
  static SyntheticSpec ham10000();       ///< 7 lesion classes, skewed
  static SyntheticSpec ham() { return ham10000(); }
  static SyntheticSpec femnist();        ///< 62 classes, mild skew
  static SyntheticSpec fashion_mnist();  ///< 10 classes, uniform
};

struct Dataset {
  /// One row per sample, row-major in one block: rows = size(), cols =
  /// the spec's feature_dim.
  ml::Tensor features;
  std::vector<std::uint32_t> labels;
  std::size_t num_classes = 0;

  std::size_t size() const { return labels.size(); }
};

/// Per-class sample counts of a dataset (length = num_classes).
using LabelDistribution = std::vector<double>;

[[nodiscard]] LabelDistribution label_distribution(const Dataset& dataset);

/// Draws feature rows under one spec. Each label's class prototype is
/// a deterministic Gaussian direction scaled to `class_separation`; it
/// depends only on the spec, so the sampler computes it once per label
/// and every sample is that prototype plus `feature_noise` Gaussian
/// noise.
class FeatureSampler {
 public:
  explicit FeatureSampler(const SyntheticSpec& spec);

  /// Writes one sample of `label` into `out` (feature_dim() values).
  /// `rng` drives the noise: one normal per feature, in order. Throws
  /// std::out_of_range for a label outside the spec's classes.
  void sample(std::uint32_t label, common::Rng& rng, double* out) const;

  std::size_t feature_dim() const { return prototypes_.cols(); }

 private:
  ml::Tensor prototypes_;  ///< num_classes x feature_dim, scaled
  double feature_noise_;
};

struct Batch {
  std::vector<std::vector<double>> features;
  std::vector<std::uint32_t> labels;
};

/// Tiny image-patch source for the conv-model microbenches: class c is a
/// bright blob at a class-specific position on a noisy background.
class ImagePatchGenerator {
 public:
  ImagePatchGenerator(std::size_t image_size, std::size_t num_classes,
                      common::Rng rng);

  [[nodiscard]] Batch sample(std::size_t n);

  std::size_t image_size() const { return image_size_; }
  std::size_t num_classes() const { return num_classes_; }

 private:
  std::size_t image_size_;
  std::size_t num_classes_;
  common::Rng rng_;
};

}  // namespace flips::data
