#include "data/synthetic.h"

#include <cmath>
#include <stdexcept>

namespace flips::data {

namespace {

SyntheticSpec make_spec(std::string name, std::size_t feature_dim,
                        std::size_t num_classes,
                        std::vector<double> class_priors,
                        double class_separation,
                        std::uint64_t prototype_seed) {
  SyntheticSpec spec;
  spec.name = std::move(name);
  spec.feature_dim = feature_dim;
  spec.num_classes = num_classes;
  spec.class_priors = std::move(class_priors);
  spec.class_separation = class_separation;
  spec.prototype_seed = prototype_seed;
  return spec;
}

std::vector<double> uniform_priors(std::size_t num_classes) {
  return std::vector<double>(num_classes, 1.0 / static_cast<double>(
                                              num_classes));
}

}  // namespace

SyntheticSpec DatasetCatalog::ecg() {
  // MIT-BIH beat classes N, S, V, F, Q with the real database's heavy
  // skew (S at 2.5 % is the Fig. 13 under-represented label).
  return make_spec("ecg", 32, 5, {0.899, 0.025, 0.053, 0.008, 0.015}, 1.4,
                   0xEC6u);
}

SyntheticSpec DatasetCatalog::ham10000() {
  // HAM10000 lesion types: nv, mel, bkl, bcc, akiec, vasc, df.
  return make_spec("ham10000", 48, 7,
                   {0.670, 0.111, 0.110, 0.051, 0.033, 0.014, 0.011}, 2.6,
                   0x4A3Du);
}

SyntheticSpec DatasetCatalog::femnist() {
  // 62 character classes; writers induce the non-IID-ness, so global
  // priors stay uniform and Dirichlet skew does the rest.
  return make_spec("femnist", 64, 62, uniform_priors(62), 3.2, 0xFE33u);
}

SyntheticSpec DatasetCatalog::fashion_mnist() {
  return make_spec("fashion_mnist", 64, 10, uniform_priors(10), 3.0,
                   0xFA51u);
}

LabelDistribution label_distribution(const Dataset& dataset) {
  LabelDistribution counts(dataset.num_classes, 0.0);
  for (const std::uint32_t label : dataset.labels) {
    if (label < counts.size()) counts[label] += 1.0;
  }
  return counts;
}

FeatureSampler::FeatureSampler(const SyntheticSpec& spec)
    : prototypes_(spec.num_classes, spec.feature_dim),
      feature_noise_(spec.feature_noise) {
  for (std::uint32_t label = 0; label < spec.num_classes; ++label) {
    common::Rng proto_rng(spec.prototype_seed ^
                          (0x9E37u + 0x1000193u * (label + 1)));
    double* proto = prototypes_.row(label);
    double norm = 0.0;
    for (std::size_t i = 0; i < spec.feature_dim; ++i) {
      proto[i] = proto_rng.normal();
      norm += proto[i] * proto[i];
    }
    norm = std::sqrt(norm);
    const double root_dim = std::sqrt(static_cast<double>(spec.feature_dim));
    const double scale =
        norm > 0.0 ? spec.class_separation / norm * root_dim : 0.0;
    for (std::size_t i = 0; i < spec.feature_dim; ++i) {
      proto[i] = proto[i] * scale;
    }
  }
}

void FeatureSampler::sample(std::uint32_t label, common::Rng& rng,
                            double* out) const {
  if (label >= prototypes_.rows()) {
    throw std::out_of_range("FeatureSampler: label " + std::to_string(label) +
                            " outside the spec");
  }
  const double* proto = prototypes_.row(label);
  for (std::size_t i = 0; i < prototypes_.cols(); ++i) {
    out[i] = proto[i] + feature_noise_ * rng.normal();
  }
}

ImagePatchGenerator::ImagePatchGenerator(std::size_t image_size,
                                         std::size_t num_classes,
                                         common::Rng rng)
    : image_size_(image_size), num_classes_(num_classes), rng_(rng) {}

Batch ImagePatchGenerator::sample(std::size_t n) {
  Batch batch;
  batch.features.reserve(n);
  batch.labels.reserve(n);
  const std::size_t dim = image_size_ * image_size_;
  for (std::size_t i = 0; i < n; ++i) {
    const auto label =
        static_cast<std::uint32_t>(rng_.uniform_index(num_classes_));
    std::vector<double> img(dim);
    for (auto& v : img) v = 0.1 * rng_.normal();
    // Class-specific 3x3 bright blob; positions spread along the
    // diagonal so classes stay linearly separable-ish but not trivial.
    const std::size_t span = image_size_ > 3 ? image_size_ - 3 : 1;
    const std::size_t cx = (label * span) / (num_classes_ + 1) + 1;
    const std::size_t cy = image_size_ - 2 - cx % span;
    for (std::size_t dy = 0; dy < 3; ++dy) {
      for (std::size_t dx = 0; dx < 3; ++dx) {
        const std::size_t x = (cx + dx) % image_size_;
        const std::size_t y = (cy + dy) % image_size_;
        img[y * image_size_ + x] += 1.0 + 0.2 * rng_.normal();
      }
    }
    batch.features.push_back(std::move(img));
    batch.labels.push_back(label);
  }
  return batch;
}

}  // namespace flips::data
