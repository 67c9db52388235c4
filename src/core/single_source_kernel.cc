#include "srs/core/single_source_kernel.h"

#include <algorithm>
#include <cmath>

#include "srs/core/series_reference.h"
#include "srs/matrix/csr_kernels.h"
#include "srs/matrix/ops.h"

namespace srs {

void SingleSourceWorkspace::Prepare(int64_t n, int k_max) {
  const size_t levels = static_cast<size_t>(k_max) + 1;
  if (level.size() < levels) level.resize(levels);
  if (next.size() < levels) next.resize(levels);
  for (size_t i = 0; i < levels; ++i) {
    level[i].resize(static_cast<size_t>(n));
    next[i].resize(static_cast<size_t>(n));
  }
  t.resize(static_cast<size_t>(n));
  scratch.resize(static_cast<size_t>(n));
}

void SingleSourceWorkspace::PrepareBlocks(int64_t n, int k_max) {
  // Buffers are sized for the widest (final) level; lower levels use the
  // same buffers at their own tighter BlockStride.
  stride = std::max(stride, BlockStride(k_max));
  if (k_max > 0) {
    block.resize(static_cast<size_t>(n * stride));
    next_block.resize(static_cast<size_t>(n * stride));
  }
  coeff.resize(static_cast<size_t>(k_max) + 1);
  t.resize(static_cast<size_t>(n));
  scratch.resize(static_cast<size_t>(n));
}

std::vector<double> GeometricStarLengthWeights(double damping, int k_max) {
  std::vector<double> weights(static_cast<size_t>(k_max) + 1);
  double cl = 1.0;
  for (int l = 0; l <= k_max; ++l) {
    weights[static_cast<size_t>(l)] = (1.0 - damping) * cl;
    cl *= damping;
  }
  return weights;
}

std::vector<double> ExponentialStarLengthWeights(double damping, int k_max) {
  std::vector<double> weights(static_cast<size_t>(k_max) + 1);
  double coeff = 1.0;  // C^l / l!
  for (int l = 0; l <= k_max; ++l) {
    weights[static_cast<size_t>(l)] = std::exp(-damping) * coeff;
    coeff *= damping / static_cast<double>(l + 1);
  }
  return weights;
}

namespace {

/// Advances every alpha >= 1 of one level in a single pass over `q`: flat
/// dispatched kernel over the base rows, then per-row fixups from the
/// patch spans. Patched rows are overwritten in exactly the columns the
/// base pass wrote, with the same per-chain operation order, so the result
/// matches a from-scratch pass over Compact() bitwise.
void PropagateLevel(const CsrOverlay& q, SimdLevel simd, const double* t_prev,
                    const double* prev_block, int64_t prev_stride, int count,
                    double* next_block, int64_t next_stride) {
  const CsrMatrix& base = *q.base();
  // Q is row-normalized, so its base is almost always row-constant
  // (1/deg(r) in every slot of row r) — take the kernel that keeps the
  // value in a register and skips the values stream. Patched rows are
  // fixed up generically below either way.
  const double* row_cv = base.RowConstantValues();
  base.VisitRowPtr([&](const auto* rp) {
    if (row_cv != nullptr) {
      csr_kernels::BinomialPropagateRowConst(
          simd, base.rows(), rp, base.col_idx().data(), row_cv, t_prev,
          prev_block, prev_stride, count, next_block, next_stride);
    } else {
      csr_kernels::BinomialPropagate(simd, base.rows(), rp,
                                     base.col_idx().data(),
                                     base.values().data(), t_prev, prev_block,
                                     prev_stride, count, next_block,
                                     next_stride);
    }
  });
  q.ForEachPatchedRow([&](int64_t r, const CsrRowSpan& row) {
    csr_kernels::BinomialPropagateRow(row, t_prev, prev_block, prev_stride,
                                      count, next_block + r * next_stride);
  });
}

}  // namespace

void BinomialColumnCursor::Begin(const CsrOverlay& q, const CsrOverlay& qt,
                                 NodeId query,
                                 const std::vector<double>& length_weights,
                                 SingleSourceWorkspace* workspace,
                                 std::vector<double>* out) {
  q_ = &q;
  qt_ = &qt;
  weights_ = &length_weights;
  ws_ = workspace;
  out_ = out;
  level = 0;
  k_max = static_cast<int>(length_weights.size()) - 1;
  simd_ = ActiveSimdLevel();
  qt_cv_ = nullptr;  // the reference rung streams values generically

  const int64_t n = q.rows();

  if (simd_ == SimdLevel::kReference) {
    workspace->Prepare(n, k_max);

    out->assign(static_cast<size_t>(n), 0.0);

    // level[alpha] holds D_{l,alpha} = Q^α (Qᵀ)^{l−α} e_q for the current l.
    workspace->level[0].assign(static_cast<size_t>(n), 0.0);
    workspace->level[0][static_cast<size_t>(query)] = 1.0;  // D_{0,0} = e_q

    // t = (Qᵀ)^l e_q, advanced incrementally.
    std::copy(workspace->level[0].begin(), workspace->level[0].end(),
              workspace->t.begin());

    // l = 0 contribution.
    Axpy(length_weights[0], workspace->level[0], out);
    return;
  }

  // Block layout: only t needs seeding. The block columns of a level are
  // written before they are read (level l's propagation reads columns
  // 0..l-2, all stored at level l-1), so stale block contents from a
  // previous query are never observed.
  workspace->PrepareBlocks(n, k_max);
  out->assign(static_cast<size_t>(n), 0.0);
  std::fill(workspace->t.begin(), workspace->t.end(), 0.0);
  workspace->t[static_cast<size_t>(query)] = 1.0;  // D_{0,0} = e_q
  Axpy(length_weights[0], workspace->t, out);

  // Qᵀ is column-constant whenever Q is row-constant; run the t chain
  // premultiplied so each pass streams only offsets and columns. The seed
  // fold touches the one nonzero of e_q.
  qt_cv_ = qt.BaseColumnConstantValues();
  if (qt_cv_ != nullptr) {
    workspace->tp.assign(static_cast<size_t>(n), 0.0);
    workspace->tp[static_cast<size_t>(query)] = qt_cv_[query] * 1.0;
    workspace->tp_next.resize(static_cast<size_t>(n));
  }
}

bool BinomialColumnCursor::Advance() {
  if (level >= k_max) return false;
  const int l = ++level;
  std::vector<double>& t = ws_->t;
  std::vector<double>& scratch = ws_->scratch;

  if (simd_ == SimdLevel::kReference) {
    std::vector<std::vector<double>>& lvl = ws_->level;
    std::vector<std::vector<double>>& next = ws_->next;

    // New level: alpha = 1..l from Q·previous, alpha = 0 from t.
    for (int alpha = l; alpha >= 1; --alpha) {
      q_->MultiplyVector(lvl[static_cast<size_t>(alpha - 1)].data(),
                         next[static_cast<size_t>(alpha)].data());
    }
    qt_->MultiplyVector(t.data(), scratch.data());
    t.swap(scratch);
    std::copy(t.begin(), t.end(), next[0].begin());
    lvl.swap(next);

    const double pow2 = std::ldexp(1.0, -l);
    for (int alpha = 0; alpha <= l; ++alpha) {
      Axpy((*weights_)[static_cast<size_t>(l)] * pow2 *
               BinomialCoefficient(l, alpha),
           lvl[static_cast<size_t>(alpha)], out_);
    }
    return true;
  }

  // Fused path: one pass over Q advances alphas 1..l together (it reads t
  // as the previous level's alpha = 0, so it runs before t steps), then t
  // advances to (Qᵀ)^l e_q, then one pass over the block accumulates the
  // level's weighted contribution. Every (node, alpha) keeps the
  // reference's per-chain operation order throughout. Each level's block
  // lives at its own stride (BlockStride(l)), so early levels read and
  // write a fraction of the final level's footprint.
  const int64_t n = q_->rows();
  const int64_t prev_stride = SingleSourceWorkspace::BlockStride(l - 1);
  const int64_t next_stride = SingleSourceWorkspace::BlockStride(l);
  PropagateLevel(*q_, simd_, t.data(), ws_->block.data(), prev_stride, l,
                 ws_->next_block.data(), next_stride);
  if (qt_cv_ != nullptr) {
    qt_->MultiplyVectorPremultiplied(ws_->tp.data(), t.data(), scratch.data(),
                                     ws_->tp_next.data());
    ws_->tp.swap(ws_->tp_next);
  } else {
    qt_->MultiplyVector(t.data(), scratch.data());
  }
  t.swap(scratch);
  ws_->block.swap(ws_->next_block);

  const double pow2 = std::ldexp(1.0, -l);
  for (int alpha = 0; alpha <= l; ++alpha) {
    ws_->coeff[static_cast<size_t>(alpha)] =
        (*weights_)[static_cast<size_t>(l)] * pow2 *
        BinomialCoefficient(l, alpha);
  }
  csr_kernels::WeightedAccumulate(simd_, n, t.data(), ws_->coeff[0],
                                  ws_->block.data(), next_stride,
                                  ws_->coeff.data() + 1, l, out_->data());
  return true;
}

void RwrColumnCursor::Begin(const CsrOverlay& wt, NodeId query,
                            double damping, int k_max_in,
                            SingleSourceWorkspace* workspace,
                            std::vector<double>* out) {
  wt_ = &wt;
  ws_ = workspace;
  out_ = out;
  damping_ = damping;
  level = 0;
  k_max = k_max_in;
  ck_ = 1.0;
  simd_ = ActiveSimdLevel();
  cv_ = nullptr;

  const int64_t n = wt.rows();
  workspace->Prepare(n, /*k_max=*/0);

  out->assign(static_cast<size_t>(n), 0.0);
  std::vector<double>& v = workspace->t;
  std::fill(v.begin(), v.end(), 0.0);
  v[static_cast<size_t>(query)] = 1.0;

  Axpy((1.0 - damping) * ck_, v, out);

  // Wᵀ is column-constant when W is row-normalized; run the walk
  // premultiplied above the reference rung (same products, same chains —
  // bitwise identical, minus the 8-byte-per-edge values stream).
  if (simd_ != SimdLevel::kReference) {
    cv_ = wt.BaseColumnConstantValues();
    if (cv_ != nullptr) {
      workspace->tp.assign(static_cast<size_t>(n), 0.0);
      workspace->tp[static_cast<size_t>(query)] = cv_[query] * 1.0;
      workspace->tp_next.resize(static_cast<size_t>(n));
    }
  }
}

bool RwrColumnCursor::Advance() {
  if (level >= k_max) return false;
  ++level;
  std::vector<double>& v = ws_->t;
  std::vector<double>& scratch = ws_->scratch;
  if (cv_ != nullptr) {
    wt_->MultiplyVectorPremultiplied(ws_->tp.data(), v.data(), scratch.data(),
                                     ws_->tp_next.data());
    ws_->tp.swap(ws_->tp_next);
  } else {
    wt_->MultiplyVector(v.data(), scratch.data());
  }
  v.swap(scratch);
  ck_ *= damping_;
  Axpy((1.0 - damping_) * ck_, v, out_);
  return true;
}

void AccumulateBinomialColumnKernel(const CsrOverlay& q, const CsrOverlay& qt,
                                    NodeId query,
                                    const std::vector<double>& length_weights,
                                    SingleSourceWorkspace* workspace,
                                    std::vector<double>* out) {
  BinomialColumnCursor cursor;
  cursor.Begin(q, qt, query, length_weights, workspace, out);
  while (cursor.Advance()) {
  }
}

void RwrColumnKernel(const CsrOverlay& wt, NodeId query, double damping,
                     int k_max, SingleSourceWorkspace* workspace,
                     std::vector<double>* out) {
  RwrColumnCursor cursor;
  cursor.Begin(wt, query, damping, k_max, workspace, out);
  while (cursor.Advance()) {
  }
}

}  // namespace srs
