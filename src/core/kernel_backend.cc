#include "srs/core/kernel_backend.h"

#include <algorithm>
#include <cmath>

#include "srs/core/series_reference.h"
#include "srs/core/single_source_kernel.h"

namespace srs {

namespace {

/// Per-worker scratch of the dense backend: the kernel buffers plus both
/// cursors. The workspace *is* the PartialColumnEvaluation — Begin selects
/// which cursor is live and returns `this`, so no per-query allocation.
struct DenseWorkspace final : KernelWorkspace, PartialColumnEvaluation {
  SingleSourceWorkspace ws;
  BinomialColumnCursor binomial;
  RwrColumnCursor rwr;
  bool rwr_active = false;

  int Level() const override {
    return rwr_active ? rwr.level : binomial.level;
  }
  int MaxLevel() const override {
    return rwr_active ? rwr.k_max : binomial.k_max;
  }
  bool AdvanceLevel() override {
    return rwr_active ? rwr.Advance() : binomial.Advance();
  }
};

/// The reference backend: delegates to the existing allocation-free dense
/// kernels, so it is bit-identical to the sequential single-source path by
/// construction.
class DenseKernelBackend final : public KernelBackend {
 public:
  const char* Name() const override { return "dense"; }

  std::unique_ptr<KernelWorkspace> NewWorkspace() const override {
    return std::make_unique<DenseWorkspace>();
  }

  PartialColumnEvaluation* BeginBinomialColumn(
      const CsrOverlay& q, const CsrOverlay& qt, NodeId query,
      const std::vector<double>& length_weights, KernelWorkspace* workspace,
      std::vector<double>* out) const override {
    auto* dense = static_cast<DenseWorkspace*>(workspace);
    dense->rwr_active = false;
    dense->binomial.Begin(q, qt, query, length_weights, &dense->ws, out);
    return dense;
  }

  PartialColumnEvaluation* BeginRwrColumn(const CsrOverlay& wt,
                                          const CsrOverlay& /*w*/,
                                          NodeId query, double damping,
                                          int k_max,
                                          KernelWorkspace* workspace,
                                          std::vector<double>* out) const
      override {
    auto* dense = static_cast<DenseWorkspace*>(workspace);
    dense->rwr_active = true;
    dense->rwr.Begin(wt, query, damping, k_max, &dense->ws, out);
    return dense;
  }
};

}  // namespace

std::shared_ptr<const KernelBackend> MakeDenseKernelBackend() {
  return std::make_shared<const DenseKernelBackend>();
}

std::shared_ptr<const KernelBackend> MakeKernelBackend(
    const SimilarityOptions& options) {
  // Exact requests ("dense") run the frontier at prune_epsilon = 0: bitwise
  // the dense cursor after every level, at a cost that follows the
  // frontier until a product saturates and densifies onto the dispatched
  // Spmv.
  return MakeSparseFrontierBackend(
      options.backend == KernelBackendKind::kSparse ? options.prune_epsilon
                                                    : 0.0);
}

double BinomialPruneErrorBound(const std::vector<double>& length_weights,
                               double gamma_q, double gamma_qt,
                               double prune_epsilon) {
  if (prune_epsilon <= 0.0 || length_weights.empty()) return 0.0;
  const int k_max = static_cast<int>(length_weights.size()) - 1;
  // err[alpha] bounds ‖D̂_{l,α} − D_{l,α}‖∞ at the current level l. The
  // α = 0 chain is pure Qᵀ (amplified by gamma_qt per step); α >= 1 comes
  // from one Q product of level l−1's α−1 entry (amplified by gamma_q)
  // plus the fresh clip of up to prune_epsilon per entry. D_{0,0} = e_q is
  // exact.
  std::vector<double> err(static_cast<size_t>(k_max) + 1, 0.0);
  std::vector<double> next(static_cast<size_t>(k_max) + 1, 0.0);
  double err_t = 0.0;
  double bound = 0.0;  // the l = 0 term contributes no error
  for (int l = 1; l <= k_max; ++l) {
    for (int alpha = l; alpha >= 1; --alpha) {
      next[static_cast<size_t>(alpha)] =
          gamma_q * err[static_cast<size_t>(alpha - 1)] + prune_epsilon;
    }
    err_t = gamma_qt * err_t + prune_epsilon;
    next[0] = err_t;
    err.swap(next);
    const double pow2 = std::ldexp(1.0, -l);
    for (int alpha = 0; alpha <= l; ++alpha) {
      bound += length_weights[static_cast<size_t>(l)] * pow2 *
               BinomialCoefficient(l, alpha) * err[static_cast<size_t>(alpha)];
    }
  }
  return bound;
}

double RwrPruneErrorBound(double damping, int k_max, double gamma_wt,
                          double prune_epsilon) {
  if (prune_epsilon <= 0.0) return 0.0;
  double bound = 0.0;
  double err = 0.0;
  double ck = 1.0;
  for (int k = 1; k <= k_max; ++k) {
    err = gamma_wt * err + prune_epsilon;
    ck *= damping;
    bound += (1.0 - damping) * ck * err;
  }
  return bound;
}

}  // namespace srs
