#include "srs/matrix/csr_overlay.h"

#include <algorithm>
#include <utility>

#include "srs/matrix/csr_kernels.h"

namespace srs {

namespace {

const std::vector<int64_t>& EmptyRowList() {
  static const std::vector<int64_t>* empty = new std::vector<int64_t>();
  return *empty;
}

}  // namespace

CsrOverlay::CsrOverlay(std::shared_ptr<const CsrMatrix> base)
    : base_(std::move(base)) {
  SRS_CHECK(base_ != nullptr);
  nnz_ = base_->nnz();
}

const std::vector<int64_t>& CsrOverlay::PatchedRows() const {
  return patch_ ? patch_->index : EmptyRowList();
}

CsrOverlay CsrOverlay::WithPatchedRows(const std::vector<int64_t>& rows,
                                       CsrMatrix patch_rows) const {
  SRS_CHECK(base_ != nullptr);
  SRS_CHECK_EQ(static_cast<int64_t>(rows.size()), patch_rows.rows());
  SRS_CHECK_EQ(patch_rows.cols(), cols());
  if (rows.empty()) return *this;

  // Union of the existing patch set and the new rows, new rows winning on
  // overlap. Both inputs are ascending, so one merge pass assembles the
  // combined patch CSR in row order.
  const std::vector<int64_t>& old_rows = PatchedRows();
  auto patch = std::make_shared<Patch>();
  std::vector<int64_t>& index = patch->index;
  index.reserve(old_rows.size() + rows.size());
  std::vector<int64_t> new_ptr;
  std::vector<int32_t> new_cols;
  std::vector<double> new_vals;
  new_ptr.push_back(0);

  auto append_row = [&](CsrRowSpan row) {
    new_cols.insert(new_cols.end(), row.cols, row.cols + row.nnz);
    new_vals.insert(new_vals.end(), row.vals, row.vals + row.nnz);
    new_ptr.push_back(static_cast<int64_t>(new_cols.size()));
  };
  auto new_row_span = [&](size_t i) {
    const int64_t begin = patch_rows.RowBegin(static_cast<int64_t>(i));
    return CsrRowSpan{patch_rows.col_idx().data() + begin,
                      patch_rows.values().data() + begin,
                      patch_rows.RowEnd(static_cast<int64_t>(i)) - begin};
  };

  size_t oi = 0, ni = 0;
  while (oi < old_rows.size() || ni < rows.size()) {
    if (ni >= rows.size() ||
        (oi < old_rows.size() && old_rows[oi] < rows[ni])) {
      index.push_back(old_rows[oi]);
      append_row(patch_->RowAt(static_cast<int64_t>(oi)));
      ++oi;
    } else {
      SRS_CHECK(ni + 1 >= rows.size() || rows[ni] < rows[ni + 1]);
      SRS_CHECK(rows[ni] >= 0 && rows[ni] < this->rows());
      if (oi < old_rows.size() && old_rows[oi] == rows[ni]) ++oi;
      index.push_back(rows[ni]);
      append_row(new_row_span(ni));
      ++ni;
    }
  }

  // Assemble the patch matrix directly: rows are already in order with
  // column-sorted entries, so the linear FromSortedRows path applies (no
  // triplet copy or re-sort; the values pass through bit-unchanged).
  patch->rows = CsrMatrix::FromSortedRows(
      static_cast<int64_t>(index.size()), cols(), std::move(new_ptr),
      std::move(new_cols), std::move(new_vals));
  patch->bits.assign((static_cast<size_t>(this->rows()) + 63) / 64, 0);
  for (int64_t r : index) {
    patch->bits[static_cast<size_t>(r) >> 6] |= uint64_t{1} << (r & 63);
  }

  CsrOverlay out;
  out.base_ = base_;
  out.nnz_ = base_->nnz();
  for (size_t i = 0; i < index.size(); ++i) {
    out.nnz_ -= base_->RowNnz(index[i]);
    out.nnz_ += patch->rows.RowNnz(static_cast<int64_t>(i));
  }
  out.patch_ = std::move(patch);
  return out;
}

CsrMatrix CsrOverlay::Compact() const {
  SRS_CHECK(base_ != nullptr);
  // Row-wise copy into the linear assembly path — every row is already
  // column-sorted, so compaction is O(nnz) with no re-sort.
  std::vector<int64_t> row_ptr;
  row_ptr.reserve(static_cast<size_t>(rows()) + 1);
  std::vector<int32_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(static_cast<size_t>(nnz_));
  values.reserve(static_cast<size_t>(nnz_));
  row_ptr.push_back(0);
  ForEachRow([&](int64_t, const CsrRowSpan& row) {
    col_idx.insert(col_idx.end(), row.cols, row.cols + row.nnz);
    values.insert(values.end(), row.vals, row.vals + row.nnz);
    row_ptr.push_back(static_cast<int64_t>(col_idx.size()));
  });
  return CsrMatrix::FromSortedRows(rows(), cols(), std::move(row_ptr),
                                   std::move(col_idx), std::move(values));
}

void CsrOverlay::MultiplyVector(const double* x, double* y) const {
  // One flat-array pass over the base (which dispatches on the active
  // SimdLevel), then overwrite the patched rows from their replacement
  // spans. Every row's gather is the same ascending chain either way, so
  // the result is bitwise the per-row Row(r) loop's.
  base_->MultiplyVector(x, y);
  ForEachPatchedRow([&](int64_t r, const CsrRowSpan& row) {
    double sum = 0.0;
    for (int64_t k = 0; k < row.nnz; ++k) {
      sum += row.vals[k] * x[row.cols[k]];
    }
    y[r] = sum;
  });
}

void CsrOverlay::MultiplyVectorPremultiplied(const double* xp, const double* x,
                                             double* y, double* yp) const {
  const double* cv = BaseColumnConstantValues();
  SRS_DCHECK(cv != nullptr);
  SRS_DCHECK(rows() == cols());
  base_->VisitRowPtr([&](const auto* row_ptr) {
    csr_kernels::SpmvPremultiplied(base_->rows(), row_ptr,
                                   base_->col_idx().data(), xp, cv, y, yp);
  });
  ForEachPatchedRow([&](int64_t r, const CsrRowSpan& row) {
    double sum = 0.0;
    for (int64_t k = 0; k < row.nnz; ++k) {
      sum += row.vals[k] * x[row.cols[k]];
    }
    y[r] = sum;
    if (yp != nullptr) yp[r] = cv[r] * sum;
  });
}

size_t CsrOverlay::OverlayByteSize() const {
  if (patch_ == nullptr) return 0;
  return patch_->rows.ByteSize() + patch_->index.size() * sizeof(int64_t) +
         patch_->bits.size() * sizeof(uint64_t);
}

}  // namespace srs
