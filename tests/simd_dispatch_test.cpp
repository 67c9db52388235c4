// The bit-identity ladder: every SimdLevel rung (reference scalar,
// portable restructured, AVX2 intrinsics) must produce bitwise identical
// results for every dispatched kernel, on both row-offset widths, over
// plain matrices, patched overlays, and full engine queries. This is the
// contract that lets dispatch run everywhere without regenerating goldens
// or perturbing the eps=0 sparse/dense equivalence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "srs/common/cpu_features.h"
#include "srs/common/rng.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/single_source.h"
#include "srs/core/single_source_kernel.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/generators.h"
#include "srs/matrix/csr_kernels.h"
#include "srs/matrix/csr_overlay.h"
#include "srs/matrix/ops.h"
#include "srs/matrix/sparse_vector.h"

namespace srs {
namespace {

std::vector<SimdLevel> LadderOnThisMachine() {
  std::vector<SimdLevel> levels = {SimdLevel::kReference, SimdLevel::kPortable};
  if (DetectedSimdLevel() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// Random rows×cols CSR with signed values (negatives exercise the -0.0
/// and abs handling of the vector rungs) and a few deliberately empty rows.
CsrMatrix RandomMatrix(int64_t rows, int64_t cols, int64_t nnz,
                       uint64_t seed) {
  Rng rng(seed);
  CsrMatrix::Builder builder(rows, cols);
  for (int64_t i = 0; i < nnz; ++i) {
    const int64_t r = rng.UniformInt(0, rows - 1);
    if (r % 17 == 3) continue;  // keep some rows empty
    SRS_CHECK_OK(builder.Add(r, rng.UniformInt(0, cols - 1),
                             rng.UniformDouble() * 2.0 - 1.0));
  }
  return builder.Build().MoveValueOrDie();
}

std::vector<double> RandomVector(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n));
  for (double& v : x) v = rng.UniformDouble() * 2.0 - 1.0;
  return x;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class SimdDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ResetSimdLevelForTesting();
    CsrMatrix::SetNarrowOffsetLimitForTesting(-1);
  }
};

TEST_F(SimdDispatchTest, SpmvBitIdenticalAcrossLevelsAndWidths) {
  for (const int64_t force_wide : {0, 1}) {
    // Rebuild under the limit so assembly picks the width under test.
    CsrMatrix::SetNarrowOffsetLimitForTesting(force_wide ? 0 : -1);
    for (uint64_t seed : {1u, 2u, 3u}) {
      const CsrMatrix m = RandomMatrix(257, 257, 2000, seed);
      ASSERT_EQ(m.narrow_offsets(), force_wide == 0);
      const std::vector<double> x = RandomVector(m.cols(), seed + 100);
      std::vector<double> want;
      for (SimdLevel level : LadderOnThisMachine()) {
        SetSimdLevelForTesting(level);
        std::vector<double> y(static_cast<size_t>(m.rows()));
        m.MultiplyVector(x.data(), y.data());
        if (level == SimdLevel::kReference) {
          want = y;
        } else {
          EXPECT_TRUE(BitEqual(y, want))
              << "level=" << SimdLevelName(level) << " wide=" << force_wide
              << " seed=" << seed;
        }
      }
    }
  }
}

TEST_F(SimdDispatchTest, MaxAbsRowSumBitIdenticalAcrossLevelsAndWidths) {
  for (const int64_t force_wide : {0, 1}) {
    CsrMatrix::SetNarrowOffsetLimitForTesting(force_wide ? 0 : -1);
    for (uint64_t seed : {4u, 5u}) {
      const CsrMatrix m = RandomMatrix(133, 90, 1500, seed);
      double want = 0.0;
      for (SimdLevel level : LadderOnThisMachine()) {
        SetSimdLevelForTesting(level);
        const double got = MaxAbsRowSum(m);
        if (level == SimdLevel::kReference) {
          want = got;
        } else {
          EXPECT_EQ(got, want)
              << "level=" << SimdLevelName(level) << " wide=" << force_wide;
        }
      }
    }
  }
}

TEST_F(SimdDispatchTest, ClipSmallBitIdenticalAcrossLevels) {
  // Values straddling the threshold, including exact ±eps (<= must clip)
  // and negative zero.
  const double eps = 0.25;
  std::vector<double> base = {0.0,   -0.0, 0.25,  -0.25, 0.2500001,
                              -0.26, 1.0,  -3.5,  0.1,   -0.0001,
                              0.25,  0.75, -0.25, 0.5,   2.0};
  base.resize(71, 0.3);  // odd tail length exercises the scalar remainder
  std::vector<double> want;
  for (SimdLevel level : LadderOnThisMachine()) {
    std::vector<double> y = base;
    csr_kernels::ClipSmall(level, y.data(), static_cast<int64_t>(y.size()),
                           eps);
    if (level == SimdLevel::kReference) {
      want = y;
    } else {
      EXPECT_TRUE(BitEqual(y, want)) << "level=" << SimdLevelName(level);
    }
  }
  // Clipped slots are +0.0, never -0.0.
  EXPECT_EQ(std::signbit(want[1]), false);
}

/// Builds Q/Qt overlays the way engine snapshots do.
struct QPair {
  CsrOverlay q;
  CsrOverlay qt;
};

QPair MakeQ(const Graph& g) {
  CsrMatrix q = g.BackwardTransition();
  CsrMatrix qt = q.Transposed();
  return {CsrOverlay(std::move(q)), CsrOverlay(std::move(qt))};
}

TEST_F(SimdDispatchTest, BinomialCursorBitIdenticalAcrossLevels) {
  std::vector<Graph> corpus;
  corpus.push_back(Rmat(120, 700, 21).ValueOrDie());
  corpus.push_back(ErdosRenyi(90, 270, 22).ValueOrDie());
  corpus.push_back(StarGraph(33).ValueOrDie());
  corpus.push_back(PathGraph(11).ValueOrDie());
  for (const Graph& g : corpus) {
    const QPair qp = MakeQ(g);
    const std::vector<double> weights = GeometricStarLengthWeights(0.8, 11);
    for (NodeId query : {NodeId{0}, static_cast<NodeId>(g.NumNodes() / 2)}) {
      std::vector<double> want;
      for (SimdLevel level : LadderOnThisMachine()) {
        SetSimdLevelForTesting(level);
        SingleSourceWorkspace ws;
        std::vector<double> out;
        AccumulateBinomialColumnKernel(qp.q, qp.qt, query, weights, &ws,
                                       &out);
        if (level == SimdLevel::kReference) {
          want = out;
        } else {
          EXPECT_TRUE(BitEqual(out, want))
              << "level=" << SimdLevelName(level) << " query=" << query;
        }
      }
    }
  }
}

TEST_F(SimdDispatchTest, BinomialCursorPartialSumsAreHonestPrefixes) {
  // Early termination depends on each Advance() leaving the same partial
  // sum at every rung, not just the drained total.
  const Graph g = Rmat(80, 480, 31).ValueOrDie();
  const QPair qp = MakeQ(g);
  const std::vector<double> weights = ExponentialStarLengthWeights(0.6, 9);
  std::vector<std::vector<double>> want_per_level;
  for (SimdLevel level : LadderOnThisMachine()) {
    SetSimdLevelForTesting(level);
    SingleSourceWorkspace ws;
    std::vector<double> out;
    BinomialColumnCursor cursor;
    cursor.Begin(qp.q, qp.qt, /*query=*/7, weights, &ws, &out);
    std::vector<std::vector<double>> partials;
    partials.push_back(out);
    while (cursor.Advance()) partials.push_back(out);
    if (level == SimdLevel::kReference) {
      want_per_level = partials;
    } else {
      ASSERT_EQ(partials.size(), want_per_level.size());
      for (size_t l = 0; l < partials.size(); ++l) {
        EXPECT_TRUE(BitEqual(partials[l], want_per_level[l]))
            << "level=" << SimdLevelName(level) << " series level " << l;
      }
    }
  }
}

TEST_F(SimdDispatchTest, PatchedOverlayMatchesCompactAtEveryLevel) {
  // Overlay with replacement rows from a perturbed graph: the fused path's
  // base-pass-plus-fixup must equal both the reference rung and a flat
  // pass over the compacted matrix, bitwise.
  const Graph g = Rmat(100, 520, 41).ValueOrDie();
  const Graph g2 = Rmat(100, 560, 42).ValueOrDie();
  const CsrMatrix q2 = g2.BackwardTransition();

  const QPair qp = MakeQ(g);
  std::vector<int64_t> patch_ids = {3, 17, 50, 98};
  CsrMatrix::Builder patch_builder(
      static_cast<int64_t>(patch_ids.size()), q2.cols());
  for (size_t i = 0; i < patch_ids.size(); ++i) {
    const int64_t r = patch_ids[i];
    for (int64_t k = q2.RowBegin(r); k < q2.RowEnd(r); ++k) {
      SRS_CHECK_OK(patch_builder.Add(static_cast<int64_t>(i),
                                     q2.col_idx()[k], q2.values()[k]));
    }
  }
  const CsrOverlay patched = qp.q.WithPatchedRows(
      patch_ids, patch_builder.Build().MoveValueOrDie());
  ASSERT_TRUE(patched.HasPatches());
  const CsrOverlay compacted(patched.Compact());

  const std::vector<double> weights = GeometricStarLengthWeights(0.8, 10);
  std::vector<double> want;
  for (SimdLevel level : LadderOnThisMachine()) {
    SetSimdLevelForTesting(level);
    SingleSourceWorkspace ws1, ws2;
    std::vector<double> out_patched, out_compact;
    AccumulateBinomialColumnKernel(patched, qp.qt, /*query=*/5, weights,
                                   &ws1, &out_patched);
    AccumulateBinomialColumnKernel(compacted, qp.qt, /*query=*/5, weights,
                                   &ws2, &out_compact);
    EXPECT_TRUE(BitEqual(out_patched, out_compact))
        << "patched vs compact at " << SimdLevelName(level);
    if (level == SimdLevel::kReference) {
      want = out_patched;
    } else {
      EXPECT_TRUE(BitEqual(out_patched, want))
          << "level=" << SimdLevelName(level);
    }
  }

  // MultiplyVector over the patched overlay also rides the ladder.
  const std::vector<double> x = RandomVector(patched.cols(), 77);
  std::vector<double> mv_want;
  for (SimdLevel level : LadderOnThisMachine()) {
    SetSimdLevelForTesting(level);
    std::vector<double> y(static_cast<size_t>(patched.rows()));
    patched.MultiplyVector(x.data(), y.data());
    std::vector<double> yc(static_cast<size_t>(patched.rows()));
    compacted.MultiplyVector(x.data(), yc.data());
    EXPECT_TRUE(BitEqual(y, yc)) << SimdLevelName(level);
    if (level == SimdLevel::kReference) {
      mv_want = y;
    } else {
      EXPECT_TRUE(BitEqual(y, mv_want)) << SimdLevelName(level);
    }
  }
}

TEST_F(SimdDispatchTest, ValueStructureDetectionOnTransitionMatrices) {
  // Row-normalized transition matrices are row-constant (1/deg per row)
  // and their transposes column-constant — the shapes the premultiplied
  // and row-const kernels key on.
  const Graph g = Rmat(100, 600, 71).ValueOrDie();
  const CsrMatrix q = g.BackwardTransition();
  const CsrMatrix qt = q.Transposed();
  ASSERT_NE(q.RowConstantValues(), nullptr);
  ASSERT_NE(qt.ColumnConstantValues(), nullptr);
  for (int64_t r = 0; r < q.rows(); ++r) {
    for (int64_t k = q.RowBegin(r); k < q.RowEnd(r); ++k) {
      EXPECT_EQ(q.values()[k], q.RowConstantValues()[r]);
    }
  }
  // Qᵀ's column constants are Q's row constants.
  for (int64_t c = 0; c < q.rows(); ++c) {
    if (q.RowNnz(c) > 0) {
      EXPECT_EQ(qt.ColumnConstantValues()[c], q.RowConstantValues()[c]);
    }
  }
  // A matrix with two distinct values in one row and one column is
  // neither.
  CsrMatrix::Builder b(3, 3);
  SRS_CHECK_OK(b.Add(0, 0, 0.5));
  SRS_CHECK_OK(b.Add(0, 1, 0.25));
  SRS_CHECK_OK(b.Add(1, 0, 0.125));
  const CsrMatrix mixed = b.Build().MoveValueOrDie();
  EXPECT_EQ(mixed.RowConstantValues(), nullptr);
  EXPECT_EQ(mixed.ColumnConstantValues(), nullptr);
}

TEST_F(SimdDispatchTest, PremultipliedSpmvChainBitIdenticalToGeneric) {
  // Chained (Qᵀ)^l passes: the premultiplied kernel (values folded into
  // the source, yp handed to the next pass) must reproduce the generic
  // values-streaming product bitwise at every step, on both offset widths
  // and with a patched overlay in the chain.
  for (const int64_t force_wide : {0, 1}) {
    CsrMatrix::SetNarrowOffsetLimitForTesting(force_wide ? 0 : -1);
    const Graph g = Rmat(90, 540, 81).ValueOrDie();
    const Graph g2 = Rmat(90, 500, 82).ValueOrDie();
    CsrMatrix qt = g.BackwardTransition().Transposed();
    const double* cv = qt.ColumnConstantValues();
    ASSERT_NE(cv, nullptr);
    const int64_t n = qt.rows();
    const CsrOverlay plain(std::move(qt));

    // Patch two rows with rows of a different graph's Qᵀ (different
    // degrees, hence values that break the patched rows' constancy).
    const CsrMatrix qt2 = g2.BackwardTransition().Transposed();
    std::vector<int64_t> patch_ids = {11, 40};
    CsrMatrix::Builder pb(static_cast<int64_t>(patch_ids.size()), n);
    for (size_t i = 0; i < patch_ids.size(); ++i) {
      const int64_t r = patch_ids[i];
      for (int64_t k = qt2.RowBegin(r); k < qt2.RowEnd(r); ++k) {
        SRS_CHECK_OK(
            pb.Add(static_cast<int64_t>(i), qt2.col_idx()[k], qt2.values()[k]));
      }
    }
    const CsrOverlay patched =
        plain.WithPatchedRows(patch_ids, pb.Build().MoveValueOrDie());
    ASSERT_NE(patched.BaseColumnConstantValues(), nullptr);

    for (const CsrOverlay* m : {&plain, &patched}) {
      std::vector<double> x = RandomVector(n, 83);
      std::vector<double> xp(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) xp[i] = cv[i] * x[i];
      std::vector<double> y_generic(static_cast<size_t>(n));
      std::vector<double> y(static_cast<size_t>(n));
      std::vector<double> yp(static_cast<size_t>(n));
      for (int step = 0; step < 4; ++step) {
        m->MultiplyVector(x.data(), y_generic.data());
        m->MultiplyVectorPremultiplied(xp.data(), x.data(), y.data(),
                                       yp.data());
        ASSERT_TRUE(BitEqual(y, y_generic))
            << "step=" << step << " wide=" << force_wide
            << " patched=" << m->HasPatches();
        // yp must be exactly the fold of the next pass's input.
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(yp[i], cv[i] * y[i]) << "i=" << i;
        }
        x.swap(y);
        xp.swap(yp);
      }
    }
  }
}

TEST_F(SimdDispatchTest, RwrOverPatchedOverlayBitIdenticalAcrossLevels) {
  // The premultiplied walk over a patched overlay (base rows folded,
  // patched rows recomputed from the raw vector) must match both the
  // reference rung and the compacted matrix — whose merged values are no
  // longer column-constant, forcing the generic path — bitwise.
  const Graph g = Rmat(100, 600, 91).ValueOrDie();
  const Graph g2 = Rmat(100, 560, 92).ValueOrDie();
  const CsrMatrix wt2 = g2.ForwardTransition().Transposed();
  const CsrOverlay wt(g.ForwardTransition().Transposed());
  std::vector<int64_t> patch_ids = {2, 33, 77};
  CsrMatrix::Builder pb(static_cast<int64_t>(patch_ids.size()), wt.cols());
  for (size_t i = 0; i < patch_ids.size(); ++i) {
    const int64_t r = patch_ids[i];
    for (int64_t k = wt2.RowBegin(r); k < wt2.RowEnd(r); ++k) {
      SRS_CHECK_OK(
          pb.Add(static_cast<int64_t>(i), wt2.col_idx()[k], wt2.values()[k]));
    }
  }
  const CsrOverlay patched =
      wt.WithPatchedRows(patch_ids, pb.Build().MoveValueOrDie());
  ASSERT_TRUE(patched.HasPatches());
  ASSERT_NE(patched.BaseColumnConstantValues(), nullptr);
  const CsrOverlay compacted(patched.Compact());

  std::vector<double> want;
  for (SimdLevel level : LadderOnThisMachine()) {
    SetSimdLevelForTesting(level);
    SingleSourceWorkspace ws1, ws2;
    std::vector<double> out_patched, out_compact;
    RwrColumnKernel(patched, /*query=*/4, /*damping=*/0.7, /*k_max=*/10, &ws1,
                    &out_patched);
    RwrColumnKernel(compacted, /*query=*/4, /*damping=*/0.7, /*k_max=*/10,
                    &ws2, &out_compact);
    EXPECT_TRUE(BitEqual(out_patched, out_compact))
        << "patched vs compact at " << SimdLevelName(level);
    if (level == SimdLevel::kReference) {
      want = out_patched;
    } else {
      EXPECT_TRUE(BitEqual(out_patched, want)) << SimdLevelName(level);
    }
  }
}

TEST_F(SimdDispatchTest, RwrKernelBitIdenticalAcrossLevels) {
  const Graph g = Rmat(110, 660, 51).ValueOrDie();
  CsrMatrix w = g.ForwardTransition();
  const CsrOverlay wt(w.Transposed());
  std::vector<double> want;
  for (SimdLevel level : LadderOnThisMachine()) {
    SetSimdLevelForTesting(level);
    SingleSourceWorkspace ws;
    std::vector<double> out;
    RwrColumnKernel(wt, /*query=*/9, /*damping=*/0.85, /*k_max=*/12, &ws,
                    &out);
    if (level == SimdLevel::kReference) {
      want = out;
    } else {
      EXPECT_TRUE(BitEqual(out, want)) << SimdLevelName(level);
    }
  }
}

TEST_F(SimdDispatchTest, FullQueriesBitIdenticalAcrossLevels) {
  // End to end at every rung of the ladder, all measures: the sequential
  // dense cursor (SingleSource*) and QueryEngine's two exact routes —
  // backend "dense", which the frontier serves at prune_epsilon = 0, and
  // "sparse" at 0 — must all reproduce the dense cursor's rows at the
  // reference rung.
  const Graph g = Rmat(70, 420, 61).ValueOrDie();
  std::vector<NodeId> batch(static_cast<size_t>(g.NumNodes()));
  std::iota(batch.begin(), batch.end(), NodeId{0});
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 8;
  const auto dense_cursor = [&](QueryMeasure measure, NodeId q) {
    switch (measure) {
      case QueryMeasure::kSimRankStarGeometric:
        return SingleSourceSimRankStarGeometric(g, q, sim).ValueOrDie();
      case QueryMeasure::kSimRankStarExponential:
        return SingleSourceSimRankStarExponential(g, q, sim).ValueOrDie();
      case QueryMeasure::kRwr:
        break;
    }
    return SingleSourceRwr(g, q, sim).ValueOrDie();
  };
  constexpr QueryMeasure kMeasures[] = {QueryMeasure::kSimRankStarGeometric,
                                        QueryMeasure::kSimRankStarExponential,
                                        QueryMeasure::kRwr};
  for (QueryMeasure measure : kMeasures) {
    SetSimdLevelForTesting(SimdLevel::kReference);
    std::vector<std::vector<double>> want;
    for (NodeId q : batch) want.push_back(dense_cursor(measure, q));
    for (SimdLevel level : LadderOnThisMachine()) {
      SetSimdLevelForTesting(level);
      for (NodeId q : batch) {
        EXPECT_TRUE(BitEqual(dense_cursor(measure, q),
                             want[static_cast<size_t>(q)]))
            << SimdLevelName(level) << " dense cursor query=" << q;
      }
      for (const KernelBackendKind kind :
           {KernelBackendKind::kDense, KernelBackendKind::kSparse}) {
        QueryEngineOptions opts;
        opts.similarity = sim;
        opts.similarity.backend = kind;
        opts.similarity.prune_epsilon = 0.0;
        QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
        const auto got = engine.BatchScores(measure, batch).ValueOrDie();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(BitEqual(got[i], want[i]))
              << SimdLevelName(level)
              << " backend=" << KernelBackendKindToString(kind)
              << " query=" << batch[i];
        }
      }
    }
  }
}

}  // namespace
}  // namespace srs
