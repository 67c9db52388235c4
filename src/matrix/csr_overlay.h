#pragma once

/// \file csr_overlay.h
/// \brief Copy-on-write per-row patch overlay over an immutable CsrMatrix.
///
/// The dynamic-graph subsystem (graph/versioned_graph.h) never rebuilds a
/// whole transition matrix for a small edge delta: it replaces only the
/// rows the delta actually touches. A `CsrOverlay` is the representation
/// the kernels consume — a shared immutable **base** CSR plus a compact
/// **patch** CSR holding full replacement rows for a (usually tiny) set of
/// row indices. Row access tests one bit of an n-bit membership bitmap
/// (n/8 bytes per version); only a patched row goes on to a binary search
/// of the sorted patched-row list for its slot, and loops over the patched
/// rows or over every row skip even that by walking the patch in slot
/// order (ForEachPatchedRow, ForEachRow). Every other row reads the base
/// storage directly, so any number of graph versions share one copy of
/// their unmodified rows.
///
/// Bit-compatibility contract (the dynamic differential-fuzz harness
/// asserts it end to end): `Row(r)` exposes exactly the (column, value)
/// sequence a from-scratch CSR rebuild of the patched matrix would store —
/// columns ascending, values computed by the same expressions — and
/// `MultiplyVector` gathers rows in the same order as
/// `CsrMatrix::MultiplyVector`. Kernels running over an overlay therefore
/// emit bitwise the scores they would emit over `Compact()`.
///
/// An overlay with no patches is a zero-cost veneer over its base; the
/// static serving path (engine/snapshot.h building from a plain Graph)
/// uses exactly that form.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "srs/common/macros.h"
#include "srs/matrix/csr_matrix.h"

namespace srs {

/// One row of an overlay: parallel (column, value) arrays, columns
/// ascending. Valid as long as the overlay (and its base) lives.
struct CsrRowSpan {
  const int32_t* cols = nullptr;
  const double* vals = nullptr;
  int64_t nnz = 0;
};

/// \brief Immutable CSR matrix view: shared base + per-row replacements.
///
/// Copying an overlay copies two shared_ptrs — versions are cheap to hand
/// around, and all unpatched row storage is physically shared.
class CsrOverlay {
 public:
  /// Empty 0x0 overlay.
  CsrOverlay() = default;

  /// Wraps `base` with no patches (takes ownership).
  explicit CsrOverlay(CsrMatrix base)
      : CsrOverlay(std::make_shared<const CsrMatrix>(std::move(base))) {}

  /// Wraps a shared `base` with no patches.
  explicit CsrOverlay(std::shared_ptr<const CsrMatrix> base);

  int64_t rows() const { return base_ ? base_->rows() : 0; }
  int64_t cols() const { return base_ ? base_->cols() : 0; }
  int64_t nnz() const { return nnz_; }

  /// The shared base storage (null for a default-constructed overlay).
  const std::shared_ptr<const CsrMatrix>& base() const { return base_; }

  bool HasPatches() const { return patch_ != nullptr; }
  int64_t PatchedRowCount() const {
    return patch_ ? static_cast<int64_t>(patch_->index.size()) : 0;
  }
  /// Ascending indices of the replaced rows (empty vector when none).
  const std::vector<int64_t>& PatchedRows() const;
  /// PatchedRowCount() / rows() — the compaction-trigger input.
  double PatchedFraction() const {
    return rows() == 0 ? 0.0
                       : static_cast<double>(PatchedRowCount()) /
                             static_cast<double>(rows());
  }

  /// The row's (column, value) entries — patch storage if replaced, base
  /// storage otherwise.
  CsrRowSpan Row(int64_t r) const {
    SRS_DCHECK(r >= 0 && r < rows());
    if (patch_ != nullptr && patch_->Contains(r)) {
      return patch_->RowAt(patch_->SlotOf(r));
    }
    return BaseRow(r);
  }

  /// Calls `fn(r, Row(r))` for every replaced row r, ascending. Walks the
  /// patch storage in slot order, so no row pays Row(r)'s lookup — the
  /// form for loops over the patched rows alone (kernel fixups).
  template <typename Fn>
  void ForEachPatchedRow(Fn&& fn) const {
    if (patch_ == nullptr) return;
    for (size_t i = 0; i < patch_->index.size(); ++i) {
      fn(patch_->index[i], patch_->RowAt(static_cast<int64_t>(i)));
    }
  }

  /// Calls `fn(r, Row(r))` for every row r, ascending, in O(1) per row:
  /// the patched rows come in slot order, so a slot cursor only steps —
  /// the form for loops over every row.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    int64_t slot = 0;
    for (int64_t r = 0; r < rows(); ++r) {
      if (patch_ != nullptr && patch_->Contains(r)) {
        fn(r, patch_->RowAt(slot++));
      } else {
        fn(r, BaseRow(r));
      }
    }
  }

  /// Returns a new overlay over the same base in which row `rows[i]` is
  /// replaced by row i of `patch_rows` (which must have exactly
  /// rows.size() rows and this->cols() columns; `rows` ascending, unique,
  /// in range). Rows already patched in *this stay patched unless
  /// replaced again — the new overlay's patch set is the union.
  CsrOverlay WithPatchedRows(const std::vector<int64_t>& rows,
                             CsrMatrix patch_rows) const;

  /// Materializes a plain CSR with every patch applied (row-wise copy; no
  /// re-sort — rows are already column-sorted). Bitwise the matrix a
  /// from-scratch rebuild of the same content produces.
  CsrMatrix Compact() const;

  /// Dense product `y = this * x` — the same per-row gather (and gather
  /// order) as CsrMatrix::MultiplyVector, hence bitwise identical to
  /// multiplying by Compact(). `x` has cols() entries, `y` rows().
  void MultiplyVector(const double* x, double* y) const;

  /// The base matrix's per-column constant values when it is column-
  /// constant (CsrMatrix::ColumnConstantValues), else null. Patches never
  /// modify base rows, so the base's constants stay valid under any patch
  /// set — patched rows themselves are handled generically in
  /// MultiplyVectorPremultiplied.
  const double* BaseColumnConstantValues() const {
    return base_ ? base_->ColumnConstantValues() : nullptr;
  }

  /// Premultiplied product for a column-constant *base* (requires
  /// BaseColumnConstantValues() != nullptr and rows() == cols()): `xp`
  /// holds cv[c]·x[c] and `x` the same vector un-folded. Base rows run
  /// csr_kernels::SpmvPremultiplied (bare gathers, no values stream);
  /// patched rows recompute generically from the raw `x` — their values
  /// are not the base's constants. `y` receives this·x bitwise equal to
  /// MultiplyVector's. `yp` (if non-null) receives cv[r]·y[r], the folded
  /// input of the next chained pass: correct for patched rows too, because
  /// a *base* row gathering column r in the next pass multiplies by the
  /// base constant cv[r], and patched rows read the raw `y` instead.
  void MultiplyVectorPremultiplied(const double* xp, const double* x,
                                   double* y, double* yp) const;

  /// Logical bytes of base + overlay. Note the base is shared: summing
  /// ByteSize over the versions of one chain counts it once per version.
  size_t ByteSize() const {
    return (base_ ? base_->ByteSize() : 0) + OverlayByteSize();
  }

  /// Bytes owned by this overlay alone (patch rows, patched-row list and
  /// membership bitmap) — the marginal cost of one more version sharing
  /// the base.
  size_t OverlayByteSize() const;

 private:
  /// Everything a patched overlay owns beside the shared base.
  struct Patch {
    CsrMatrix rows;              ///< replacement row i for index[i]
    std::vector<int64_t> index;  ///< patched row indices, ascending
    std::vector<uint64_t> bits;  ///< bit r set iff row r is in `index`

    bool Contains(int64_t r) const {
      return (bits[static_cast<size_t>(r) >> 6] >> (r & 63)) & 1;
    }
    /// Position of patched row r in `index`.
    int64_t SlotOf(int64_t r) const {
      return std::lower_bound(index.begin(), index.end(), r) - index.begin();
    }
    CsrRowSpan RowAt(int64_t slot) const {
      const int64_t begin = rows.RowBegin(slot);
      return CsrRowSpan{rows.col_idx().data() + begin,
                        rows.values().data() + begin,
                        rows.RowEnd(slot) - begin};
    }
  };

  CsrRowSpan BaseRow(int64_t r) const {
    const int64_t begin = base_->RowBegin(r);
    return CsrRowSpan{base_->col_idx().data() + begin,
                      base_->values().data() + begin,
                      base_->RowEnd(r) - begin};
  }

  std::shared_ptr<const CsrMatrix> base_;
  std::shared_ptr<const Patch> patch_;  ///< null when no row is replaced
  int64_t nnz_ = 0;
};

}  // namespace srs
