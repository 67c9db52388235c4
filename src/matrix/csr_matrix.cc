#include "srs/matrix/csr_matrix.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "srs/common/cpu_features.h"
#include "srs/common/parallel.h"
#include "srs/matrix/csr_kernels.h"
#include "srs/matrix/dense_matrix.h"

namespace srs {

namespace {

constexpr int64_t kDefaultNarrowLimit = UINT32_MAX;

std::atomic<int64_t> g_narrow_limit{kDefaultNarrowLimit};

/// Bitwise double equality — the constant-value side arrays must
/// reproduce every stored value exactly (0.0 vs -0.0 and NaN payloads
/// included), or the kernels that substitute them would not be
/// bit-identical.
bool BitEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

}  // namespace

void CsrMatrix::SetNarrowOffsetLimitForTesting(int64_t limit) {
  g_narrow_limit.store(limit < 0 ? kDefaultNarrowLimit : limit,
                       std::memory_order_relaxed);
}

int64_t CsrMatrix::NarrowOffsetLimit() {
  return g_narrow_limit.load(std::memory_order_relaxed);
}

void CsrMatrix::AdoptRowPtr(std::vector<int64_t> row_ptr) {
  if (static_cast<int64_t>(values_.size()) <= NarrowOffsetLimit()) {
    narrow_ = true;
    row_ptr32_.assign(row_ptr.begin(), row_ptr.end());
    row_ptr64_.clear();
    row_ptr64_.shrink_to_fit();
  } else {
    narrow_ = false;
    row_ptr64_ = std::move(row_ptr);
    row_ptr32_.clear();
    row_ptr32_.shrink_to_fit();
  }
  DetectValueStructure();
}

void CsrMatrix::AdoptRowPtr(std::vector<uint32_t> row_ptr) {
  if (static_cast<int64_t>(values_.size()) <= NarrowOffsetLimit()) {
    narrow_ = true;
    row_ptr32_ = std::move(row_ptr);
    row_ptr64_.clear();
    row_ptr64_.shrink_to_fit();
  } else {
    // The testing limit forces the wide layout even for offsets that fit.
    narrow_ = false;
    row_ptr64_.assign(row_ptr.begin(), row_ptr.end());
    row_ptr32_.clear();
    row_ptr32_.shrink_to_fit();
  }
  DetectValueStructure();
}

void CsrMatrix::DetectValueStructure() {
  row_constant_ = false;
  col_constant_ = false;
  row_vals_.clear();
  col_vals_.clear();
  if (values_.empty()) return;  // kernels have nothing to stream anyway
  // Only square matrices feed the constant-value kernels. A rectangular
  // one — an overlay's few replacement rows over n columns — would pay an
  // n-sized side array and scratch for structure nothing reads.
  if (rows_ != cols_) return;

  row_vals_.assign(static_cast<size_t>(rows_), 0.0);
  col_vals_.assign(static_cast<size_t>(cols_), 0.0);
  std::vector<uint8_t> col_seen(static_cast<size_t>(cols_), 0);
  bool row_ok = true;
  bool col_ok = true;
  for (int64_t r = 0; r < rows_ && (row_ok || col_ok); ++r) {
    const int64_t begin = RowBegin(r);
    const int64_t end = RowEnd(r);
    if (begin < end) row_vals_[static_cast<size_t>(r)] = values_[begin];
    for (int64_t k = begin; k < end; ++k) {
      const double v = values_[k];
      if (!BitEqual(v, row_vals_[static_cast<size_t>(r)])) row_ok = false;
      const auto c = static_cast<size_t>(col_idx_[k]);
      if (!col_seen[c]) {
        col_seen[c] = 1;
        col_vals_[c] = v;
      } else if (!BitEqual(col_vals_[c], v)) {
        col_ok = false;
      }
    }
  }
  row_constant_ = row_ok;
  col_constant_ = col_ok;
  if (!row_constant_) {
    row_vals_.clear();
    row_vals_.shrink_to_fit();
  }
  if (!col_constant_) {
    col_vals_.clear();
    col_vals_.shrink_to_fit();
  }
}

double CsrMatrix::At(int64_t r, int64_t c) const {
  SRS_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  const int32_t target = static_cast<int32_t>(c);
  auto begin = col_idx_.begin() + RowBegin(r);
  auto end = col_idx_.begin() + RowEnd(r);
  auto it = std::lower_bound(begin, end, target);
  if (it != end && *it == target) {
    return values_[static_cast<size_t>(it - col_idx_.begin())];
  }
  return 0.0;
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<int64_t> t_row_ptr(cols_ + 1, 0);
  std::vector<int32_t> t_col_idx(values_.size());
  std::vector<double> t_values(values_.size());

  // Counting sort by column.
  for (int32_t c : col_idx_) ++t_row_ptr[c + 1];
  for (int64_t i = 0; i < cols_; ++i) t_row_ptr[i + 1] += t_row_ptr[i];

  std::vector<int64_t> cursor(t_row_ptr.begin(), t_row_ptr.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    const int64_t end = RowEnd(r);
    for (int64_t k = RowBegin(r); k < end; ++k) {
      const int64_t pos = cursor[col_idx_[k]]++;
      t_col_idx[pos] = static_cast<int32_t>(r);
      t_values[pos] = values_[k];
    }
  }

  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.col_idx_ = std::move(t_col_idx);
  t.values_ = std::move(t_values);
  t.AdoptRowPtr(std::move(t_row_ptr));
  return t;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    const int64_t end = RowEnd(r);
    for (int64_t k = RowBegin(r); k < end; ++k) {
      d.At(r, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

CsrMatrix CsrMatrix::FromSortedRows(int64_t rows, int64_t cols,
                                    std::vector<int64_t> row_ptr,
                                    std::vector<int32_t> col_idx,
                                    std::vector<double> values) {
  SRS_CHECK(rows >= 0 && cols >= 0);
  SRS_CHECK_EQ(static_cast<int64_t>(row_ptr.size()), rows + 1);
  SRS_CHECK_EQ(col_idx.size(), values.size());
  SRS_CHECK(row_ptr.front() == 0 &&
            row_ptr.back() == static_cast<int64_t>(col_idx.size()));
  for (int64_t r = 0; r < rows; ++r) {
    SRS_CHECK(row_ptr[r] <= row_ptr[r + 1]);
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      SRS_CHECK(col_idx[k] >= 0 && col_idx[k] < cols);
      SRS_CHECK(k == row_ptr[r] || col_idx[k - 1] < col_idx[k])
          << "row " << r << " columns not strictly ascending";
    }
  }
  return FromSortedRowsTrusted(rows, cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

CsrMatrix CsrMatrix::FromSortedRowsTrusted(int64_t rows, int64_t cols,
                                           std::vector<int64_t> row_ptr,
                                           std::vector<int32_t> col_idx,
                                           std::vector<double> values) {
  SRS_CHECK(rows >= 0 && cols >= 0);
  SRS_CHECK_EQ(static_cast<int64_t>(row_ptr.size()), rows + 1);
  SRS_CHECK_EQ(col_idx.size(), values.size());
  SRS_CHECK(row_ptr.front() == 0 &&
            row_ptr.back() == static_cast<int64_t>(col_idx.size()));
  for (int64_t r = 0; r < rows; ++r) {
    SRS_CHECK(row_ptr[r] <= row_ptr[r + 1]);
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.AdoptRowPtr(std::move(row_ptr));
  return m;
}

CsrMatrix CsrMatrix::FromSortedRowsTrusted(int64_t rows, int64_t cols,
                                           std::vector<uint32_t> row_ptr,
                                           std::vector<int32_t> col_idx,
                                           std::vector<double> values) {
  SRS_CHECK(rows >= 0 && cols >= 0);
  SRS_CHECK_EQ(static_cast<int64_t>(row_ptr.size()), rows + 1);
  SRS_CHECK_EQ(col_idx.size(), values.size());
  SRS_CHECK(row_ptr.front() == 0 &&
            row_ptr.back() == static_cast<uint32_t>(col_idx.size()));
  for (int64_t r = 0; r < rows; ++r) {
    SRS_CHECK(row_ptr[r] <= row_ptr[r + 1]);
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.AdoptRowPtr(std::move(row_ptr));
  return m;
}

void CsrMatrix::MultiplyVector(const double* x, double* y) const {
  VisitRowPtr([&](const auto* rp) {
    csr_kernels::Spmv(ActiveSimdLevel(), rows_, rp, col_idx_.data(),
                      values_.data(), x, y);
  });
}

DenseMatrix CsrMatrix::MultiplyDense(const DenseMatrix& d,
                                     int num_threads) const {
  SRS_CHECK_EQ(cols_, d.rows());
  DenseMatrix out(rows_, d.cols());
  const int64_t width = d.cols();
  ParallelFor(0, rows_, num_threads, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      double* orow = out.Row(r);
      const int64_t row_end = RowEnd(r);
      for (int64_t k = RowBegin(r); k < row_end; ++k) {
        const double v = values_[k];
        const double* drow = d.Row(col_idx_[k]);
        for (int64_t j = 0; j < width; ++j) orow[j] += v * drow[j];
      }
    }
  });
  return out;
}

DenseMatrix CsrMatrix::LeftMultiplyDense(const DenseMatrix& d) const {
  SRS_CHECK_EQ(d.cols(), rows_);
  DenseMatrix out(d.rows(), cols_);
  for (int64_t i = 0; i < d.rows(); ++i) {
    const double* drow = d.Row(i);
    double* orow = out.Row(i);
    for (int64_t r = 0; r < rows_; ++r) {
      const double dv = drow[r];
      if (dv == 0.0) continue;
      const int64_t row_end = RowEnd(r);
      for (int64_t k = RowBegin(r); k < row_end; ++k) {
        orow[col_idx_[k]] += dv * values_[k];
      }
    }
  }
  return out;
}

CsrMatrix::Builder::Builder(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols) {
  SRS_CHECK_GE(rows, 0);
  SRS_CHECK_GE(cols, 0);
  SRS_CHECK_LE(rows, INT32_MAX);
  SRS_CHECK_LE(cols, INT32_MAX);
}

Status CsrMatrix::Builder::Add(int64_t row, int64_t col, double value) {
  if (row < 0 || row >= rows_ || col < 0 || col >= cols_) {
    return Status::InvalidArgument("triplet (" + std::to_string(row) + ", " +
                                   std::to_string(col) + ") out of range for " +
                                   std::to_string(rows_) + "x" +
                                   std::to_string(cols_) + " matrix");
  }
  triplets_.push_back({static_cast<int32_t>(row), static_cast<int32_t>(col),
                       value});
  return Status::OK();
}

Result<CsrMatrix> CsrMatrix::Builder::Build() {
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  std::vector<int64_t> row_ptr(rows_ + 1, 0);
  std::vector<int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(triplets_.size());
  values.reserve(triplets_.size());

  for (size_t i = 0; i < triplets_.size();) {
    const int32_t r = triplets_[i].row;
    const int32_t c = triplets_[i].col;
    double sum = 0.0;
    while (i < triplets_.size() && triplets_[i].row == r &&
           triplets_[i].col == c) {
      sum += triplets_[i].value;
      ++i;
    }
    col_idx.push_back(c);
    values.push_back(sum);
    ++row_ptr[r + 1];
  }
  for (int64_t r = 0; r < rows_; ++r) row_ptr[r + 1] += row_ptr[r];

  triplets_.clear();
  triplets_.shrink_to_fit();

  CsrMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.AdoptRowPtr(std::move(row_ptr));
  return m;
}

CsrMatrix RowNormalized(const CsrMatrix& m) {
  CsrMatrix::Builder builder(m.rows(), m.cols());
  builder.Reserve(static_cast<size_t>(m.nnz()));
  for (int64_t r = 0; r < m.rows(); ++r) {
    const int64_t end = m.RowEnd(r);
    double sum = 0.0;
    for (int64_t k = m.RowBegin(r); k < end; ++k) {
      sum += m.values()[k];
    }
    if (sum == 0.0) continue;
    for (int64_t k = m.RowBegin(r); k < end; ++k) {
      SRS_CHECK_OK(builder.Add(r, m.col_idx()[k], m.values()[k] / sum));
    }
  }
  return builder.Build().MoveValueOrDie();
}

}  // namespace srs
