#pragma once

/// \file options.h
/// \brief Shared options for all similarity computations.

#include <cstdint>
#include <string>

#include "srs/common/result.h"

namespace srs {

/// \brief Whether a query asks for exact or pruned scores.
///
/// Both kinds are served by the frontier backend of core/kernel_backend.h
/// (MakeKernelBackend); the dense reference cursor is what they are
/// tested against.
enum class KernelBackendKind {
  /// Exact scores: the frontier at prune_epsilon = 0, bitwise the dense
  /// reference cursor's, at a cost that follows each level's support.
  kDense = 0,
  /// Sparse frontier propagation: level vectors are (index, value)
  /// frontiers, entries with |value| <= prune_epsilon are sieved out after
  /// every Q/Qᵀ/Wᵀ product, and a frontier that saturates switches to a
  /// dense representation (push/pull hybrid). Deviates from dense by at
  /// most the analytic bound of core/kernel_backend.h — and is
  /// bit-identical at prune_epsilon = 0.
  kSparse = 1,
};

/// Human-readable backend name ("dense", "sparse").
const char* KernelBackendKindToString(KernelBackendKind kind);

/// Parses "dense"/"sparse"; returns false on anything else.
bool ParseKernelBackendKind(const std::string& name, KernelBackendKind* out);

/// \brief Parameters of the SimRank family (paper §5 defaults: C=0.6, K=5).
struct SimilarityOptions {
  /// Damping / decay factor C ∈ (0, 1).
  double damping = 0.6;

  /// Number of iterations K (ignored when `epsilon` > 0).
  int iterations = 5;

  /// If > 0, choose K automatically as the smallest iteration count whose
  /// a-priori error bound is ≤ epsilon (Lemma 3 / Eq. 12).
  double epsilon = 0.0;

  /// If > 0, entries below this value are clipped to 0 after the last
  /// iteration (the paper's threshold-sieving, default 1e-4 in §5).
  double sieve_threshold = 0.0;

  /// Single-source kernel backend used by the serving paths (QueryEngine /
  /// AllPairsEngine); the one-off all-pairs algorithms ignore it.
  KernelBackendKind backend = KernelBackendKind::kDense;

  /// Sparse-backend sieving threshold: after every Q/Qᵀ/Wᵀ product,
  /// frontier entries with |value| <= prune_epsilon are dropped (the
  /// paper's threshold sieve applied *during* propagation instead of after
  /// it). Must lie in [0, 1); 0 keeps every nonzero and reproduces the
  /// dense reference bit for bit. Ignored by the dense backend, which is
  /// always exact.
  double prune_epsilon = 0.0;

  /// Top-k serving knob (engine/topk_engine.h): when > 0, queries are
  /// answered as the top_k best-ranked nodes instead of full score rows,
  /// and the level recurrence may stop early once the residual bounds of
  /// core/topk.h prove the ranking. 0 (the default) means full-row
  /// serving; the full-row engines (QueryEngine / AllPairsEngine) ignore
  /// the knob and normalize it to 0 in their result-cache digests, while a
  /// top-k configuration folds it in — so top-k rankings and full rows
  /// never alias in a shared ResultCache.
  int top_k = 0;

  /// Whether a top-k configuration may terminate the level recurrence
  /// early (exact by the residual bounds; scores are then lower-bound
  /// partial sums). Disable to force full-accuracy scores in top-k
  /// answers. Ignored — and excluded from digests — when top_k == 0.
  bool topk_early_termination = true;

  /// Worker threads for the row-partitioned kernels (1 = serial, matching
  /// the paper's single-threaded measurements). Results are bitwise
  /// identical for any value. Use srs::HardwareThreads() for all cores.
  int num_threads = 1;

  /// Validates ranges; call before running an algorithm. Equivalent to
  /// ValidateSimilarityOptions(*this) — every field check lives there.
  Status Validate() const;
};

/// THE validator of SimilarityOptions: every range check of every field, in
/// one place. Each error is InvalidArgument and names the offending field
/// and the value it was given ("similarity.damping: must be in (0, 1), got
/// 1.5"). Engines, the options builder, the CLI tools, and the server
/// protocol all validate through this one function.
Status ValidateSimilarityOptions(const SimilarityOptions& options);

/// \brief Single validated construction path for SimilarityOptions.
///
/// Field validation used to be scattered: the engines re-checked backend /
/// prune_epsilon / top_k on Create, srs_query re-checked the top-k range
/// against the graph, and every site phrased its errors differently. The
/// builder funnels them through one `Build()` that returns either a fully
/// validated SimilarityOptions or an InvalidArgument naming the offending
/// field and value. Setter arguments that cannot even be represented (an
/// unknown backend name) are deferred: recorded on the builder and
/// reported by Build(), so call sites never need mid-chain error checks.
///
/// \code
///   SRS_ASSIGN_OR_RETURN(
///       SimilarityOptions sim,
///       SimilarityOptionsBuilder()
///           .Damping(0.6).Epsilon(1e-6).BackendName("sparse")
///           .PruneEpsilon(1e-4).TopK(10)
///           .Build());
/// \endcode
class SimilarityOptionsBuilder {
 public:
  /// Starts from the paper's defaults.
  SimilarityOptionsBuilder() = default;

  /// Starts from an existing options value (e.g. a server's base config
  /// that a request partially overrides).
  explicit SimilarityOptionsBuilder(const SimilarityOptions& base)
      : options_(base) {}

  SimilarityOptionsBuilder& Damping(double v);
  SimilarityOptionsBuilder& Iterations(int v);
  SimilarityOptionsBuilder& Epsilon(double v);
  SimilarityOptionsBuilder& SieveThreshold(double v);
  SimilarityOptionsBuilder& Backend(KernelBackendKind v);
  /// Parses "dense" / "sparse"; anything else is reported by Build().
  SimilarityOptionsBuilder& BackendName(const std::string& name);
  SimilarityOptionsBuilder& PruneEpsilon(double v);
  SimilarityOptionsBuilder& TopK(int v);
  SimilarityOptionsBuilder& TopKEarlyTermination(bool v);
  SimilarityOptionsBuilder& NumThreads(int v);

  /// Bounds top_k by a graph's node count: with this set, Build() requires
  /// 1 <= top_k <= num_nodes whenever top_k > 0 (the check srs_query and
  /// the server used to hand-roll against their loaded graphs).
  SimilarityOptionsBuilder& NumNodesBound(int64_t num_nodes);

  /// Requires top_k >= 1 (the TopKEngine precondition): a ranked-serving
  /// configuration built without a k is an error, not a silent full row.
  SimilarityOptionsBuilder& RequireTopK();

  /// The validated options, or InvalidArgument naming the first offending
  /// field and its value.
  Result<SimilarityOptions> Build() const;

 private:
  SimilarityOptions options_;
  Status deferred_;  // first unrepresentable setter argument
  int64_t num_nodes_bound_ = -1;
  bool require_top_k_ = false;
};

/// Smallest K such that C^{K+1} ≤ epsilon (geometric SimRank*/SimRank bound).
int IterationsForGeometricAccuracy(double damping, double epsilon);

/// Smallest K such that C^{K+1}/(K+1)! ≤ epsilon (exponential SimRank*
/// bound, Eq. 12) — always ≤ the geometric count.
int IterationsForExponentialAccuracy(double damping, double epsilon);

/// Resolves the effective iteration count for `options` under the given
/// convergence regime.
int EffectiveIterations(const SimilarityOptions& options, bool exponential);

}  // namespace srs
