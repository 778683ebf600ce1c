#include "fl/job.h"

#include <memory>
#include <stdexcept>

#include "fl/session.h"

namespace flips::fl {

const char* to_string(ClientAlgo algo) {
  switch (algo) {
    case ClientAlgo::kSgd:
      return "sgd";
    case ClientAlgo::kScaffold:
      return "scaffold";
    case ClientAlgo::kFedDyn:
      return "feddyn";
  }
  return "unknown";
}

const char* to_string(FederationMode mode) {
  switch (mode) {
    case FederationMode::kSync:
      return "sync";
    case FederationMode::kAsync:
      return "async";
  }
  return "unknown";
}

FlJob::FlJob(FlJobConfig config, const std::vector<Party>& parties,
             data::Dataset global_test, ml::Sequential model,
             std::unique_ptr<ParticipantSelector> selector)
    : config_(std::move(config)), parties_(parties),
      global_test_(std::move(global_test)), model_(std::move(model)),
      selector_(std::move(selector)) {}

FlJobResult FlJob::run() {
  // Single-shot: the session takes the job's config/model/selector by
  // move. (The old monolithic loop technically allowed a second run()
  // over its mutated end state — nothing in the repo relied on it.)
  if (!selector_) {
    throw std::logic_error("FlJob::run() may only be called once");
  }
  // Non-owning alias: the caller guarantees the borrowed party vector
  // outlives run() (the historical FlJob contract). Sessions built
  // directly own or share their parties instead.
  std::shared_ptr<const std::vector<Party>> parties(
      std::shared_ptr<const std::vector<Party>>{}, &parties_);
  FederationSession session(
      std::move(config_), std::move(parties),
      std::make_shared<const data::Dataset>(std::move(global_test_)),
      std::move(model_), std::move(selector_));
  while (!session.done()) session.advance();
  return session.result();
}

}  // namespace flips::fl
