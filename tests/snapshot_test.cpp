// Derived snapshots (engine/snapshot.h) against from-scratch rebuilds:
//
//  * **gammas and rows** — along seeded chains of mixed insert/delete
//    deltas, every derived snapshot's gamma_q / gamma_qt / gamma_wt (and
//    the count of rows at each max) equal those of MakeGraphSnapshot over
//    the materialized version bitwise, and so does every overlay row. The
//    chains aim deltas at the rows holding each max (so the count runs out
//    and the derive must rescan) and at a hub's in-degree (which rescales
//    many Qᵀ rows at once);
//  * **per-version memory** — a small delta costs its patch rows plus an
//    n-bit bitmap per overlay, nothing n-sized in doubles or ints.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "srs/common/rng.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/delta.h"
#include "srs/graph/generators.h"
#include "srs/graph/versioned_graph.h"
#include "srs/matrix/ops.h"

namespace srs {
namespace {

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectRowsBitEqual(const CsrOverlay& got, const CsrOverlay& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.nnz(), want.nnz()) << what;
  for (int64_t r = 0; r < got.rows(); ++r) {
    const CsrRowSpan a = got.Row(r);
    const CsrRowSpan b = want.Row(r);
    ASSERT_EQ(a.nnz, b.nnz) << what << " row " << r;
    ASSERT_TRUE(a.nnz == 0 ||
                (std::memcmp(a.cols, b.cols, a.nnz * sizeof(int32_t)) == 0 &&
                 std::memcmp(a.vals, b.vals, a.nnz * sizeof(double)) == 0))
        << what << " row " << r << " differs";
  }
}

/// The row of `m` with the largest |value| sum (the first on ties).
NodeId MaxRow(const CsrOverlay& m) {
  NodeId best = 0;
  double best_sum = -1.0;
  for (int64_t r = 0; r < m.rows(); ++r) {
    const double sum = RowAbsSum(m.Row(r));
    if (sum > best_sum) {
      best_sum = sum;
      best = static_cast<NodeId>(r);
    }
  }
  return best;
}

/// Random inserts and deletes of existing edges, `ops` in all.
void AddRandomOps(const VersionedGraph& vg, int ops, Rng* rng,
                  EdgeDelta::Builder* delta) {
  const int64_t n = vg.NumNodes();
  const uint64_t v = vg.CurrentVersion();
  for (int i = 0; i < ops; ++i) {
    const NodeId u = static_cast<NodeId>(rng->Uniform(n));
    const auto out = vg.OutNeighbors(v, u);
    if (!out.empty() && rng->Bernoulli(0.45)) {
      delta->Remove(u, out[rng->Uniform(out.size())]);
    } else {
      delta->Insert(u, static_cast<NodeId>(rng->Uniform(n)));
    }
  }
}

/// Deletes every edge behind the max row of q (`which` 0), qt (1) or wt
/// (2): Q row i holds I(i), Qᵀ row j holds O(j), Wᵀ row x holds I(x).
void DeleteMaxRowEntries(const VersionedGraph& vg, const GraphSnapshot& head,
                         int which, EdgeDelta::Builder* delta) {
  const uint64_t v = vg.CurrentVersion();
  if (which == 1) {
    const NodeId j = MaxRow(head.qt);
    for (NodeId i : vg.OutNeighbors(v, j)) delta->Remove(j, i);
    return;
  }
  const NodeId x = MaxRow(which == 0 ? head.q : head.wt);
  for (NodeId y : vg.InNeighbors(v, x)) delta->Remove(y, x);
}

/// Inserts or removes one in-edge of the node with the largest in-degree,
/// which rescales the Qᵀ rows of all its in-neighbors.
void ShiftHubInDegree(const VersionedGraph& vg, Rng* rng,
                      EdgeDelta::Builder* delta) {
  const uint64_t v = vg.CurrentVersion();
  NodeId hub = 0;
  for (NodeId x = 1; x < vg.NumNodes(); ++x) {
    if (vg.InDegree(v, x) > vg.InDegree(v, hub)) hub = x;
  }
  const auto in = vg.InNeighbors(v, hub);
  if (!in.empty() && rng->Bernoulli(0.5)) {
    delta->Remove(in[rng->Uniform(in.size())], hub);
  } else {
    delta->Insert(static_cast<NodeId>(rng->Uniform(vg.NumNodes())), hub);
  }
}

TEST(DerivedSnapshotTest, GammasAndRowsEqualRebuildAlongDeltaChains) {
  constexpr int kVersions = 60;
  int gamma_drops = 0;  // versions whose derive had to rescan a max
  for (uint64_t chain = 0; chain < 4; ++chain) {
    SCOPED_TRACE("chain " + std::to_string(chain));
    Rng rng(DeriveSeed(20261018, chain));
    const int64_t n = 300 + static_cast<int64_t>(rng.Uniform(300));
    Graph base = chain % 2 == 0 ? Rmat(n, 4 * n, rng.Next()).MoveValueOrDie()
                                : ErdosRenyi(n, 3 * n, rng.Next())
                                      .MoveValueOrDie();
    // No graph-level compaction: every version goes through the derive.
    VersionedGraphOptions vopts;
    vopts.compact_fraction = 1.0;
    VersionedGraph vg(std::move(base), vopts);
    SnapshotCache snapshots(4);
    std::shared_ptr<const GraphSnapshot> head =
        snapshots.Get(vg, 0).MoveValueOrDie();

    for (int step = 1; step <= kVersions; ++step) {
      EdgeDelta::Builder delta;
      AddRandomOps(vg, 1 + static_cast<int>(rng.Uniform(8)), &rng, &delta);
      if (step % 3 == 0) DeleteMaxRowEntries(vg, *head, step / 3 % 3, &delta);
      if (step % 4 == 0) ShiftHubInDegree(vg, &rng, &delta);
      const uint64_t v =
          vg.Apply(delta.Build(n).MoveValueOrDie()).MoveValueOrDie();
      const std::shared_ptr<const GraphSnapshot> parent = head;
      head = snapshots.Get(vg, v).MoveValueOrDie();
      SCOPED_TRACE("version " + std::to_string(v));

      const std::shared_ptr<const GraphSnapshot> rebuilt =
          MakeGraphSnapshot(vg.Materialize(v).MoveValueOrDie());
      EXPECT_TRUE(BitEqual(head->gamma_q, rebuilt->gamma_q));
      EXPECT_TRUE(BitEqual(head->gamma_qt, rebuilt->gamma_qt));
      EXPECT_TRUE(BitEqual(head->gamma_wt, rebuilt->gamma_wt));
      EXPECT_EQ(head->gamma_q_rows, rebuilt->gamma_q_rows);
      EXPECT_EQ(head->gamma_qt_rows, rebuilt->gamma_qt_rows);
      EXPECT_EQ(head->gamma_wt_rows, rebuilt->gamma_wt_rows);
      // The rebuilt side against the dispatched kernel, an independent
      // implementation of the same max.
      EXPECT_TRUE(BitEqual(rebuilt->gamma_qt, MaxAbsRowSum(rebuilt->qt)));
      EXPECT_TRUE(BitEqual(rebuilt->gamma_wt, MaxAbsRowSum(rebuilt->wt)));
      ExpectRowsBitEqual(head->q, rebuilt->q, "q");
      ExpectRowsBitEqual(head->qt, rebuilt->qt, "qt");
      ExpectRowsBitEqual(head->w, rebuilt->w, "w");
      ExpectRowsBitEqual(head->wt, rebuilt->wt, "wt");
      if (head->gamma_qt < parent->gamma_qt ||
          head->gamma_wt < parent->gamma_wt ||
          head->gamma_q < parent->gamma_q) {
        ++gamma_drops;
      }
      if (HasFatalFailure()) return;
    }
  }
  // A gamma can only fall when every row at the old max was rewritten
  // below it — the case that forces the exact rescan.
  EXPECT_GT(gamma_drops, 0) << "no delta exercised the rescan";
}

TEST(DerivedSnapshotTest, SmallDeltaAddsNoPerNodeArrays) {
  constexpr int64_t kNodes = 50000;
  VersionedGraph vg(CopyingModelGraph(kNodes, 4.0, 0.5, 7).MoveValueOrDie());
  SnapshotCache snapshots(4);
  ASSERT_TRUE(snapshots.Get(vg, 0).ok());
  const size_t root_bytes = snapshots.Stats().bytes;

  Rng rng(11);
  EdgeDelta::Builder delta;
  for (int i = 0; i < 16; ++i) {
    delta.Insert(static_cast<NodeId>(rng.Uniform(kNodes)),
                 static_cast<NodeId>(rng.Uniform(kNodes)));
  }
  const uint64_t v =
      vg.Apply(delta.Build(kNodes).MoveValueOrDie()).MoveValueOrDie();
  ASSERT_TRUE(snapshots.Get(vg, v).ok());
  // Four n-bit bitmaps are 25 KB here; n-sized int or double arrays
  // would each cost 200-400 KB.
  EXPECT_LT(snapshots.Stats().bytes - root_bytes, size_t{128} << 10);
}

}  // namespace
}  // namespace srs
