#include "srs/core/options.h"

#include <cmath>

namespace srs {

const char* KernelBackendKindToString(KernelBackendKind kind) {
  switch (kind) {
    case KernelBackendKind::kDense:
      return "dense";
    case KernelBackendKind::kSparse:
      return "sparse";
  }
  return "unknown";
}

bool ParseKernelBackendKind(const std::string& name, KernelBackendKind* out) {
  if (name == "dense") {
    *out = KernelBackendKind::kDense;
    return true;
  }
  if (name == "sparse") {
    *out = KernelBackendKind::kSparse;
    return true;
  }
  return false;
}

namespace {

/// "similarity.<field>: must be <requirement>, got <value>" — the one
/// message shape every options error uses, so an offending field is always
/// identifiable from the text alone.
Status FieldError(const char* field, const std::string& requirement,
                  const std::string& value) {
  return Status::InvalidArgument(std::string("similarity.") + field +
                                 ": must be " + requirement + ", got " +
                                 value);
}

Status FieldError(const char* field, const std::string& requirement,
                  double value) {
  return FieldError(field, requirement, std::to_string(value));
}

Status FieldError(const char* field, const std::string& requirement,
                  int64_t value) {
  return FieldError(field, requirement, std::to_string(value));
}

}  // namespace

Status ValidateSimilarityOptions(const SimilarityOptions& options) {
  if (!(options.damping > 0.0 && options.damping < 1.0)) {
    return FieldError("damping", "in (0, 1)", options.damping);
  }
  if (options.iterations < 0) {
    return FieldError("iterations", "non-negative",
                      int64_t{options.iterations});
  }
  if (options.epsilon < 0.0) {
    return FieldError("epsilon", "non-negative", options.epsilon);
  }
  if (options.sieve_threshold < 0.0) {
    return FieldError("sieve_threshold", "non-negative",
                      options.sieve_threshold);
  }
  if (!(options.prune_epsilon >= 0.0 && options.prune_epsilon < 1.0)) {
    return FieldError("prune_epsilon", "in [0, 1)", options.prune_epsilon);
  }
  if (options.top_k < 0) {
    return FieldError("top_k", "non-negative", int64_t{options.top_k});
  }
  if (options.num_threads < 1) {
    return FieldError("num_threads", ">= 1", int64_t{options.num_threads});
  }
  return Status::OK();
}

Status SimilarityOptions::Validate() const {
  return ValidateSimilarityOptions(*this);
}

SimilarityOptionsBuilder& SimilarityOptionsBuilder::Damping(double v) {
  options_.damping = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::Iterations(int v) {
  options_.iterations = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::Epsilon(double v) {
  options_.epsilon = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::SieveThreshold(double v) {
  options_.sieve_threshold = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::Backend(
    KernelBackendKind v) {
  options_.backend = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::BackendName(
    const std::string& name) {
  if (!ParseKernelBackendKind(name, &options_.backend) && deferred_.ok()) {
    deferred_ = Status::InvalidArgument(
        "similarity.backend: must be \"dense\" or \"sparse\", got \"" + name +
        "\"");
  }
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::PruneEpsilon(double v) {
  options_.prune_epsilon = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::TopK(int v) {
  options_.top_k = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::TopKEarlyTermination(
    bool v) {
  options_.topk_early_termination = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::NumThreads(int v) {
  options_.num_threads = v;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::NumNodesBound(
    int64_t num_nodes) {
  num_nodes_bound_ = num_nodes;
  return *this;
}
SimilarityOptionsBuilder& SimilarityOptionsBuilder::RequireTopK() {
  require_top_k_ = true;
  return *this;
}

Result<SimilarityOptions> SimilarityOptionsBuilder::Build() const {
  if (!deferred_.ok()) return deferred_;
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options_));
  if (require_top_k_ && options_.top_k < 1) {
    return FieldError("top_k", ">= 1 for top-k serving",
                      int64_t{options_.top_k});
  }
  if (num_nodes_bound_ >= 0 && options_.top_k > num_nodes_bound_) {
    return FieldError("top_k",
                      "<= the graph's node count (" +
                          std::to_string(num_nodes_bound_) + ")",
                      int64_t{options_.top_k});
  }
  return options_;
}

int IterationsForGeometricAccuracy(double damping, double epsilon) {
  SRS_CHECK(damping > 0.0 && damping < 1.0);
  SRS_CHECK_GT(epsilon, 0.0);
  int k = 0;
  double bound = damping;  // C^{k+1} at k = 0
  while (bound > epsilon && k < 10000) {
    bound *= damping;
    ++k;
  }
  return k;
}

int IterationsForExponentialAccuracy(double damping, double epsilon) {
  SRS_CHECK(damping > 0.0 && damping < 1.0);
  SRS_CHECK_GT(epsilon, 0.0);
  int k = 0;
  double bound = damping;  // C^{k+1}/(k+1)! at k = 0
  while (bound > epsilon && k < 10000) {
    ++k;
    bound *= damping / static_cast<double>(k + 1);
  }
  return k;
}

int EffectiveIterations(const SimilarityOptions& options, bool exponential) {
  if (options.epsilon > 0.0) {
    return exponential
               ? IterationsForExponentialAccuracy(options.damping,
                                                  options.epsilon)
               : IterationsForGeometricAccuracy(options.damping,
                                                options.epsilon);
  }
  return options.iterations;
}

}  // namespace srs
