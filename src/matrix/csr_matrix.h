#pragma once

/// \file csr_matrix.h
/// \brief Compressed sparse row matrix and its builder.
///
/// Graph transition matrices (`Q`, `W`, `A`) are stored in CSR. The builder
/// accepts unordered (row, col, value) triplets, then sorts and merges
/// duplicates (summing their values) when `Build()` is called.
///
/// Row-offset compression: whenever nnz fits in 32 bits — always, for
/// graphs below ~4.3 G edges — the row-pointer array is stored as uint32
/// instead of int64, halving its footprint and doubling the offsets per
/// cache line in every row-wise kernel. The width is chosen once at
/// assembly time; kernels are templated on it (matrix/csr_kernels.h) and
/// reached through `VisitRowPtr`, while casual callers use
/// `RowBegin`/`RowEnd`. Values and column indices are identical in both
/// layouts, so the choice never affects results.

#include <cstdint>
#include <vector>

#include "srs/common/macros.h"
#include "srs/common/result.h"

namespace srs {

class DenseMatrix;

/// \brief Immutable CSR sparse matrix of doubles.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// True when row offsets are stored as uint32 (nnz <= the compression
  /// limit — UINT32_MAX, unless lowered for testing).
  bool narrow_offsets() const { return narrow_; }

  /// The 32-bit row-pointer array; only valid when narrow_offsets().
  const std::vector<uint32_t>& row_ptr32() const {
    SRS_DCHECK(narrow_);
    return row_ptr32_;
  }
  /// The 64-bit row-pointer array; only valid when !narrow_offsets().
  const std::vector<int64_t>& row_ptr64() const {
    SRS_DCHECK(!narrow_);
    return row_ptr64_;
  }

  /// Offset of row r's first entry in col_idx()/values().
  int64_t RowBegin(int64_t r) const {
    return narrow_ ? static_cast<int64_t>(row_ptr32_[static_cast<size_t>(r)])
                   : row_ptr64_[static_cast<size_t>(r)];
  }
  /// One past row r's last entry.
  int64_t RowEnd(int64_t r) const { return RowBegin(r + 1); }

  /// Calls `fn` with the row-pointer array as either `const uint32_t*` or
  /// `const int64_t*` — the dispatch point for offset-width-templated
  /// kernels. `fn` must accept both pointer types (generic lambda).
  template <typename Fn>
  decltype(auto) VisitRowPtr(Fn&& fn) const {
    return narrow_ ? fn(row_ptr32_.data()) : fn(row_ptr64_.data());
  }

  /// Column indices, size nnz(), sorted within each row.
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  /// Values, parallel to col_idx().
  const std::vector<double>& values() const { return values_; }

  /// Non-null when the matrix is square and every row's stored values are
  /// bitwise one per-row constant — the shape of row-normalized transition
  /// matrices, whose row r holds 1/degree(r) in every slot. Entry r is
  /// that constant (+0.0 for empty rows), size rows(). Kernels use it to
  /// hoist the value into a register and drop the 8-byte-per-edge values
  /// stream; every product v·x[c] pairs the same operands, so results are
  /// bit-identical to the generic path.
  const double* RowConstantValues() const {
    return row_constant_ ? row_vals_.data() : nullptr;
  }

  /// Non-null when the matrix is square and every column's stored values
  /// are bitwise one per-column constant — the shape of *transposed*
  /// transition matrices (column c of Qᵀ holds Q's row-c constant). Entry
  /// c is that constant (+0.0 for empty columns), size cols(). Enables the
  /// premultiplied SpMV (csr_kernels::SpmvPremultiplied): fold the value
  /// into the source vector once per pass instead of streaming it per
  /// edge. Each folded product cv[c]·x[c] multiplies exactly the operands
  /// the generic kernel would, so the pass is bit-identical.
  const double* ColumnConstantValues() const {
    return col_constant_ ? col_vals_.data() : nullptr;
  }

  /// Number of stored entries in row `r`.
  int64_t RowNnz(int64_t r) const {
    SRS_DCHECK(r >= 0 && r < rows_);
    return RowEnd(r) - RowBegin(r);
  }

  /// Returns the stored value at (r, c), or 0.0 if absent (binary search).
  double At(int64_t r, int64_t c) const;

  /// Returns the transpose (CSR of the transposed matrix).
  CsrMatrix Transposed() const;

  /// Converts to a dense matrix (small inputs / tests).
  DenseMatrix ToDense() const;

  /// Logical size in bytes (used by the memory bench); reflects the actual
  /// row-offset width and any detected constant-value side arrays.
  size_t ByteSize() const {
    return (narrow_ ? row_ptr32_.size() * sizeof(uint32_t)
                    : row_ptr64_.size() * sizeof(int64_t)) +
           col_idx_.size() * sizeof(int32_t) +
           values_.size() * sizeof(double) +
           (row_vals_.size() + col_vals_.size()) * sizeof(double);
  }

  /// Sparse × dense product `y = this * x` where x is a dense vector of
  /// length cols(). `y` must have length rows(). Dispatches on the active
  /// SimdLevel (common/cpu_features.h); every level is bit-identical.
  void MultiplyVector(const double* x, double* y) const;

  /// Sparse × dense product: returns `this * d` (d is rows=cols()).
  /// Output rows are partitioned across `num_threads` workers; results are
  /// bitwise identical for any thread count.
  DenseMatrix MultiplyDense(const DenseMatrix& d, int num_threads = 1) const;

  /// Dense × sparse product: returns `d * this`.
  DenseMatrix LeftMultiplyDense(const DenseMatrix& d) const;

  /// Assembles a CSR directly from its parts — for callers that already
  /// hold rows in order with ascending, duplicate-free columns (patch
  /// overlays compacting, row-wise copies). O(1): no triplet copy, no
  /// sort. `row_ptr` must have rows+1 monotone entries ending at
  /// col_idx.size(); columns are checked (SRS_CHECK) to be strictly
  /// ascending within each row and in range. Values pass through
  /// bit-unchanged.
  static CsrMatrix FromSortedRows(int64_t rows, int64_t cols,
                                  std::vector<int64_t> row_ptr,
                                  std::vector<int32_t> col_idx,
                                  std::vector<double> values);

  /// FromSortedRows minus the O(nnz) per-element scan, for input whose
  /// integrity is already guaranteed upstream — the snapshot reader calls
  /// this after every section checksum has verified, where the arrays are
  /// bit-for-bit what a validated matrix serialized. Shape invariants
  /// (row_ptr size, endpoints, monotonicity) are still checked; only the
  /// ascending-in-range column scan is skipped.
  static CsrMatrix FromSortedRowsTrusted(int64_t rows, int64_t cols,
                                         std::vector<int64_t> row_ptr,
                                         std::vector<int32_t> col_idx,
                                         std::vector<double> values);

  /// Same, from a 32-bit row-pointer array (the compressed snapshot-file
  /// sections deserialize without widening).
  static CsrMatrix FromSortedRowsTrusted(int64_t rows, int64_t cols,
                                         std::vector<uint32_t> row_ptr,
                                         std::vector<int32_t> col_idx,
                                         std::vector<double> values);

  /// Testing hook: row offsets compress to 32 bits when nnz <= `limit`.
  /// Default (and any negative `limit`) restores UINT32_MAX. Lowering it
  /// forces the 64-bit layout on small fixtures so both layouts — and the
  /// boundary — are exercised without billion-edge inputs.
  static void SetNarrowOffsetLimitForTesting(int64_t limit);
  /// The limit currently in force.
  static int64_t NarrowOffsetLimit();

  class Builder;

 private:
  /// Stores `row_ptr` at the width NarrowOffsetLimit() selects, then
  /// detects the constant-value structure.
  void AdoptRowPtr(std::vector<int64_t> row_ptr);
  void AdoptRowPtr(std::vector<uint32_t> row_ptr);
  /// One O(nnz) pass classifying the values as per-row constant, per-
  /// column constant, both, or neither (bitwise comparisons, so the side
  /// arrays can reproduce every product exactly). Square matrices only:
  /// rectangular ones (overlay patch rows) are left as neither.
  void DetectValueStructure();

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  bool narrow_ = false;
  bool row_constant_ = false;
  bool col_constant_ = false;
  std::vector<int64_t> row_ptr64_;
  std::vector<uint32_t> row_ptr32_;
  std::vector<int32_t> col_idx_;
  std::vector<double> values_;
  std::vector<double> row_vals_;
  std::vector<double> col_vals_;
};

/// \brief Accumulates triplets and assembles a CsrMatrix.
class CsrMatrix::Builder {
 public:
  /// Builder for a `rows × cols` matrix.
  Builder(int64_t rows, int64_t cols);

  /// Appends a triplet. Duplicate (row, col) entries are summed at Build().
  /// Returns InvalidArgument if the coordinates are out of range.
  Status Add(int64_t row, int64_t col, double value);

  /// Reserves space for `n` triplets.
  void Reserve(size_t n) { triplets_.reserve(n); }

  /// Assembles the CSR structure. The builder is left empty afterwards.
  Result<CsrMatrix> Build();

 private:
  struct Triplet {
    int32_t row;
    int32_t col;
    double value;
  };
  int64_t rows_;
  int64_t cols_;
  std::vector<Triplet> triplets_;
};

/// Row-normalizes `m`: each nonempty row is scaled to sum to 1. Rows whose
/// sum is zero are left as all-zero (dangling nodes).
CsrMatrix RowNormalized(const CsrMatrix& m);

}  // namespace srs
