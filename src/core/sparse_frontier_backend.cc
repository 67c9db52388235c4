// The sparse frontier-propagation backend (see kernel_backend.h for the
// contract). Level vectors live as sorted (index, value) frontiers; every
// Q/Qᵀ/Wᵀ product scatters only the CSR rows incident to the frontier and
// sieves entries with |value| <= prune_epsilon; a frontier that saturates
// past kDensifyFraction·n flips that vector to a dense representation and
// stays dense (push → pull, like direction-optimizing BFS).
//
// The loop structure, accumulation order, and scalar coefficient
// expressions deliberately mirror single_source_kernel.cc line for line:
// together with the scatter/gather ordering contract documented in
// matrix/sparse_vector.h, that is what makes the epsilon = 0 output
// bitwise equal to the dense backend.

#include <algorithm>
#include <cmath>
#include <utility>

#include "srs/core/kernel_backend.h"
#include "srs/core/series_reference.h"
#include "srs/matrix/ops.h"
#include "srs/matrix/sparse_vector.h"
#include "srs/observability/instruments.h"

namespace srs {

namespace {

/// A frontier that saturates past this fraction of n switches to dense.
constexpr double kDensifyFraction = 0.25;

/// One level vector in either representation.
struct HybridVector {
  bool dense = false;
  SparseVector sv;          // valid when !dense
  std::vector<double> vec;  // valid when dense

  void AssignUnit(int32_t i) {
    dense = false;
    sv.AssignUnit(i);
  }

  void CopyFrom(const HybridVector& other) {
    dense = other.dense;
    if (other.dense) {
      vec = other.vec;
    } else {
      sv.CopyFrom(other.sv);
    }
  }
};

class SparseFrontierBackend;

/// Per-worker scratch of the sparse backend, doubling as its stepwise
/// cursor (PartialColumnEvaluation): Begin* records the operands and the
/// live kernel, AdvanceLevel replays exactly one level of the one-shot
/// loop. No per-query allocation.
struct SparseFrontierWorkspace final : KernelWorkspace,
                                       PartialColumnEvaluation {
  /// Grows the buffers; idempotent and allocation-free once sized (the
  /// hybrid vectors themselves grow lazily as frontiers expand).
  void Prepare(int64_t n, int k_max) {
    acc.Prepare(n);
    const size_t levels = static_cast<size_t>(k_max) + 1;
    if (level.size() < levels) level.resize(levels);
    if (next.size() < levels) next.resize(levels);
  }

  int Level() const override { return cur_level; }
  int MaxLevel() const override { return max_level; }
  bool AdvanceLevel() override;
  const std::vector<int32_t>* Support() const override {
    return support_valid ? &support : nullptr;
  }
  void SkipSupport() override { support_valid = false; }

  /// Resets the output's support list; called by Begin* before level 0.
  void StartSupport() {
    support.clear();
    support_valid = true;
  }

  /// *out += coeff · v, touching only live entries of a sparse v. Sparse
  /// entries are added in ascending index order — the same per-entry
  /// operation sequence as the dense Axpy, whose skipped terms are exact
  /// `+= coeff * 0.0` no-ops. While the support is recorded, an index is
  /// appended when its entry goes from 0 to nonzero: the transition, not
  /// the touch, so a term that underflows to 0 records nothing and no
  /// index is recorded twice. A dense v ends the recording.
  void AddScaled(double coeff, const HybridVector& v) {
    std::vector<double>& o = *out;
    if (v.dense) {
      support_valid = false;
      Axpy(coeff, v.vec, out);
      return;
    }
    const size_t nnz = v.sv.idx.size();
    if (!support_valid) {
      for (size_t i = 0; i < nnz; ++i) {
        o[static_cast<size_t>(v.sv.idx[i])] += coeff * v.sv.val[i];
      }
      return;
    }
    for (size_t i = 0; i < nnz; ++i) {
      const int32_t j = v.sv.idx[i];
      const double before = o[static_cast<size_t>(j)];
      const double after = before + coeff * v.sv.val[i];
      o[static_cast<size_t>(j)] = after;
      if (before == 0.0 && after != 0.0) support.push_back(j);
    }
  }

  SparseAccumulator acc;
  std::vector<HybridVector> level;  // D_{l,alpha} for the current l
  std::vector<HybridVector> next;   // double buffer for level l+1
  HybridVector t;                   // (Qᵀ)^l e_q, advanced incrementally
  HybridVector scratch;

  // Cursor state, set by the backend's Begin* methods.
  const SparseFrontierBackend* backend = nullptr;
  const CsrOverlay* op = nullptr;        // Q (binomial) or Wᵀ (rwr)
  const CsrOverlay* op_t = nullptr;      // Qᵀ (binomial) or W (rwr)
  const std::vector<double>* weights = nullptr;  // binomial only
  std::vector<double>* out = nullptr;
  std::vector<int32_t> support;  // Support(), while support_valid
  bool support_valid = false;
  int64_t densify_nnz = 0;
  double damping = 0.0;  // rwr only
  double ck = 1.0;       // C^level, rwr only
  int cur_level = 0;
  int max_level = 0;
  bool rwr_active = false;
};

class SparseFrontierBackend final : public KernelBackend {
 public:
  explicit SparseFrontierBackend(double prune_epsilon)
      : prune_epsilon_(prune_epsilon) {}

  const char* Name() const override { return "sparse"; }

  std::unique_ptr<KernelWorkspace> NewWorkspace() const override {
    return std::make_unique<SparseFrontierWorkspace>();
  }

  PartialColumnEvaluation* BeginBinomialColumn(
      const CsrOverlay& q, const CsrOverlay& qt, NodeId query,
      const std::vector<double>& length_weights, KernelWorkspace* workspace,
      std::vector<double>* out) const override;

  PartialColumnEvaluation* BeginRwrColumn(const CsrOverlay& wt,
                                          const CsrOverlay& w, NodeId query,
                                          double damping, int k_max,
                                          KernelWorkspace* workspace,
                                          std::vector<double>* out) const
      override;

 private:
  friend struct SparseFrontierWorkspace;
  /// out = M·in with sieving: a sparse `in` scatters the rows of `mt`
  /// (CSR of Mᵀ) incident to the frontier; a dense `in` gathers over `m`
  /// exactly like the dense backend. The result densifies when the touched
  /// set exceeds `densify_nnz`.
  void Propagate(const CsrOverlay& m, const CsrOverlay& mt,
                 int64_t densify_nnz, const HybridVector& in,
                 SparseAccumulator* acc, HybridVector* out) const {
    if (in.dense) {
      out->dense = true;
      GatherMultiplyPruned(m, in.vec, prune_epsilon_, &out->vec);
      return;
    }
    acc->ScatterTransposed(mt, in.sv);
    const size_t touched = acc->TouchedCount();
    if (touched > static_cast<size_t>(densify_nnz)) {
      out->dense = true;
      acc->EmitDense(prune_epsilon_, m.rows(), &out->vec);
      if (MetricsEnabled()) {
        FrontierSizeHistogram()->Observe(static_cast<double>(touched));
        FrontierDensifiedCounter()->Increment();
      }
    } else {
      out->dense = false;
      acc->EmitPruned(prune_epsilon_, &out->sv);
      if (MetricsEnabled()) {
        FrontierSizeHistogram()->Observe(static_cast<double>(touched));
        // Sieved entries: touched by the scatter, absent after the
        // |value| <= prune_epsilon cut.
        SieveDroppedCounter()->Increment(
            static_cast<uint64_t>(touched - out->sv.idx.size()));
      }
    }
  }

  static int64_t DensifyThreshold(int64_t n) {
    return std::max<int64_t>(
        16, static_cast<int64_t>(kDensifyFraction * static_cast<double>(n)));
  }

  double prune_epsilon_;
};

PartialColumnEvaluation* SparseFrontierBackend::BeginBinomialColumn(
    const CsrOverlay& q, const CsrOverlay& qt, NodeId query,
    const std::vector<double>& length_weights, KernelWorkspace* workspace,
    std::vector<double>* out) const {
  const int64_t n = q.rows();
  const int k_max = static_cast<int>(length_weights.size()) - 1;
  auto* ws = static_cast<SparseFrontierWorkspace*>(workspace);
  ws->Prepare(n, k_max);
  ws->backend = this;
  ws->op = &q;
  ws->op_t = &qt;
  ws->weights = &length_weights;
  ws->out = out;
  ws->densify_nnz = DensifyThreshold(n);
  ws->cur_level = 0;
  ws->max_level = k_max;
  ws->rwr_active = false;

  out->assign(static_cast<size_t>(n), 0.0);
  ws->StartSupport();

  // level[alpha] holds D_{l,alpha} = Q^α (Qᵀ)^{l−α} e_q for the current l.
  ws->level[0].AssignUnit(static_cast<int32_t>(query));  // D_{0,0} = e_q
  ws->t.CopyFrom(ws->level[0]);                          // t = (Qᵀ)^l e_q

  // l = 0 contribution.
  ws->AddScaled(length_weights[0], ws->level[0]);
  return ws;
}

PartialColumnEvaluation* SparseFrontierBackend::BeginRwrColumn(
    const CsrOverlay& wt, const CsrOverlay& w, NodeId query, double damping,
    int k_max, KernelWorkspace* workspace, std::vector<double>* out) const {
  const int64_t n = wt.rows();
  auto* ws = static_cast<SparseFrontierWorkspace*>(workspace);
  ws->Prepare(n, /*k_max=*/0);
  ws->backend = this;
  ws->op = &wt;
  ws->op_t = &w;
  ws->out = out;
  ws->densify_nnz = DensifyThreshold(n);
  ws->damping = damping;
  ws->ck = 1.0;
  ws->cur_level = 0;
  ws->max_level = k_max;
  ws->rwr_active = true;

  out->assign(static_cast<size_t>(n), 0.0);
  ws->StartSupport();
  ws->t.AssignUnit(static_cast<int32_t>(query));

  ws->AddScaled((1.0 - damping) * ws->ck, ws->t);
  return ws;
}

bool SparseFrontierWorkspace::AdvanceLevel() {
  if (cur_level >= max_level) return false;
  if (rwr_active) {
    backend->Propagate(*op, *op_t, densify_nnz, t, &acc, &scratch);
    std::swap(t, scratch);
    ck *= damping;
    AddScaled((1.0 - damping) * ck, t);
    ++cur_level;
    return true;
  }
  const int l = ++cur_level;
  // New level: alpha = 1..l from Q·previous, alpha = 0 from t.
  for (int alpha = l; alpha >= 1; --alpha) {
    backend->Propagate(*op, *op_t, densify_nnz,
                       level[static_cast<size_t>(alpha - 1)], &acc,
                       &next[static_cast<size_t>(alpha)]);
  }
  backend->Propagate(*op_t, *op, densify_nnz, t, &acc, &scratch);
  std::swap(t, scratch);
  next[0].CopyFrom(t);
  level.swap(next);

  const double pow2 = std::ldexp(1.0, -l);
  for (int alpha = 0; alpha <= l; ++alpha) {
    AddScaled((*weights)[static_cast<size_t>(l)] * pow2 *
                  BinomialCoefficient(l, alpha),
              level[static_cast<size_t>(alpha)]);
  }
  return true;
}

}  // namespace

std::shared_ptr<const KernelBackend> MakeSparseFrontierBackend(
    double prune_epsilon) {
  return std::make_shared<const SparseFrontierBackend>(prune_epsilon);
}

}  // namespace srs
