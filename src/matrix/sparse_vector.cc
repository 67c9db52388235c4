#include "srs/matrix/sparse_vector.h"

#include <algorithm>
#include <cmath>

#include "srs/common/cpu_features.h"
#include "srs/common/macros.h"
#include "srs/matrix/csr_kernels.h"

namespace srs {

void SparseVector::Densify(int64_t n, std::vector<double>* out) const {
  out->assign(static_cast<size_t>(n), 0.0);
  for (size_t i = 0; i < idx.size(); ++i) {
    (*out)[static_cast<size_t>(idx[i])] = val[i];
  }
}

void SparseAccumulator::Prepare(int64_t n) {
  if (values_.size() < static_cast<size_t>(n)) {
    values_.resize(static_cast<size_t>(n), 0.0);
    marked_.resize(static_cast<size_t>(n), 0);
  }
}

// Frontier scatter walks rows in x.idx order — effectively random — so the
// row data of upcoming frontier entries is prefetched a fixed distance
// ahead while the current row scatters. Prefetching changes no bits.
constexpr size_t kScatterPrefetchDistance = 8;

void SparseAccumulator::ScatterTransposed(const CsrMatrix& a,
                                          const SparseVector& x) {
  const int32_t* col_idx = a.col_idx().data();
  const double* values = a.values().data();
  a.VisitRowPtr([&](const auto* row_ptr) {
    for (size_t i = 0; i < x.idx.size(); ++i) {
      if (i + kScatterPrefetchDistance < x.idx.size()) {
        const int64_t jp = x.idx[i + kScatterPrefetchDistance];
        const auto kp = row_ptr[jp];
        __builtin_prefetch(col_idx + kp);
        __builtin_prefetch(values + kp);
      }
      const int64_t j = x.idx[i];
      SRS_DCHECK(j >= 0 && j < a.rows());
      const double xj = x.val[i];
      const int64_t end = static_cast<int64_t>(row_ptr[j + 1]);
      for (int64_t k = static_cast<int64_t>(row_ptr[j]); k < end; ++k) {
        const int32_t r = col_idx[k];
        // Same operand order as the row gather: matrix value times vector
        // value (IEEE multiplication commutes bitwise, but keep them alike).
        values_[static_cast<size_t>(r)] += values[k] * xj;
        if (!marked_[static_cast<size_t>(r)]) {
          marked_[static_cast<size_t>(r)] = 1;
          touched_.push_back(r);
        }
      }
    }
  });
}

void SparseAccumulator::ScatterTransposed(const CsrOverlay& a,
                                          const SparseVector& x) {
  // Each frontier row is looked up once, kScatterPrefetchDistance entries
  // ahead of its scatter (a patched row's lookup is a binary search), and
  // its span waits in a ring until then.
  const size_t count = x.idx.size();
  CsrRowSpan ring[kScatterPrefetchDistance];
  auto fetch = [&](size_t i) {
    SRS_DCHECK(x.idx[i] >= 0 && x.idx[i] < a.rows());
    const CsrRowSpan row = a.Row(x.idx[i]);
    __builtin_prefetch(row.cols);
    __builtin_prefetch(row.vals);
    ring[i % kScatterPrefetchDistance] = row;
  };
  for (size_t i = 0; i < std::min(count, kScatterPrefetchDistance); ++i) {
    fetch(i);
  }
  for (size_t i = 0; i < count; ++i) {
    const CsrRowSpan row = ring[i % kScatterPrefetchDistance];
    if (i + kScatterPrefetchDistance < count) {
      fetch(i + kScatterPrefetchDistance);
    }
    const double xj = x.val[i];
    for (int64_t k = 0; k < row.nnz; ++k) {
      const int32_t r = row.cols[k];
      // Same operand order as the row gather (see the CsrMatrix overload).
      values_[static_cast<size_t>(r)] += row.vals[k] * xj;
      if (!marked_[static_cast<size_t>(r)]) {
        marked_[static_cast<size_t>(r)] = 1;
        touched_.push_back(r);
      }
    }
  }
}

void SparseAccumulator::EmitPruned(double prune_epsilon, SparseVector* out) {
  std::sort(touched_.begin(), touched_.end());
  out->Clear();
  for (int32_t j : touched_) {
    const double v = values_[static_cast<size_t>(j)];
    if (std::fabs(v) > prune_epsilon) {
      out->idx.push_back(j);
      out->val.push_back(v);
    }
    values_[static_cast<size_t>(j)] = 0.0;
    marked_[static_cast<size_t>(j)] = 0;
  }
  touched_.clear();
}

void SparseAccumulator::EmitDense(double prune_epsilon, int64_t n,
                                  std::vector<double>* out) {
  SRS_DCHECK(values_.size() >= static_cast<size_t>(n));
  out->assign(values_.begin(), values_.begin() + n);
  for (int32_t j : touched_) {
    double& v = (*out)[static_cast<size_t>(j)];
    if (std::fabs(v) <= prune_epsilon) v = 0.0;
    values_[static_cast<size_t>(j)] = 0.0;
    marked_[static_cast<size_t>(j)] = 0;
  }
  touched_.clear();
}

void GatherMultiplyPruned(const CsrMatrix& a, const std::vector<double>& x,
                          double prune_epsilon, std::vector<double>* y) {
  y->resize(static_cast<size_t>(a.rows()));
  a.MultiplyVector(x.data(), y->data());
  if (prune_epsilon > 0.0) {
    csr_kernels::ClipSmall(ActiveSimdLevel(), y->data(),
                           static_cast<int64_t>(y->size()), prune_epsilon);
  }
}

void GatherMultiplyPruned(const CsrOverlay& a, const std::vector<double>& x,
                          double prune_epsilon, std::vector<double>* y) {
  y->resize(static_cast<size_t>(a.rows()));
  a.MultiplyVector(x.data(), y->data());
  if (prune_epsilon > 0.0) {
    csr_kernels::ClipSmall(ActiveSimdLevel(), y->data(),
                           static_cast<int64_t>(y->size()), prune_epsilon);
  }
}

}  // namespace srs
