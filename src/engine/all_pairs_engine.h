#pragma once

/// \file all_pairs_engine.h
/// \brief Multi-source / all-pairs similarity over cache-blocked row tiles.
///
/// The QueryEngine answers arbitrary *batches* of single-source queries;
/// analytical workloads instead want whole source **sets** — "score these
/// 10k seed users against everyone", up to the full all-pairs matrix. Doing
/// that as one giant batch would materialize |sources|·n doubles at once
/// and thrash the last-level cache. The AllPairsEngine processes sources in
/// **tiles**:
///
///  * a tile of `tile_size` sources is claimed by the ThreadPool's workers,
///    each computing rows with the same `single_source_kernel` recurrence
///    the QueryEngine uses — so every row is bit-identical to the
///    sequential single-source result, for any tile size and thread count;
///  * the tile's row buffers (tile_size × n doubles) are allocated once and
///    reused for every subsequent tile, bounding memory by the tile — not
///    the source set — and keeping the working set hot;
///  * completed tiles are emitted in deterministic source order through
///    `ForEachRow`, so callers can stream an n×n computation to disk
///    without ever holding more than one tile;
///  * an optional shared `ResultCache` (engine/result_cache.h) serves rows
///    already computed — by this engine, a QueryEngine, or a previous
///    request — and rows computed here warm it for future point queries.
///
/// \code
///   SRS_ASSIGN_OR_RETURN(AllPairsEngine engine, AllPairsEngine::Create(g));
///   SRS_RETURN_NOT_OK(engine.ForEachRow(
///       QueryMeasure::kSimRankStarGeometric, sources,
///       [&](int64_t i, NodeId s, const std::vector<double>& row) { ... }));
/// \endcode

#include <functional>
#include <memory>
#include <vector>

#include "srs/common/parallel.h"
#include "srs/common/result.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/options.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/graph.h"
#include "srs/matrix/dense_matrix.h"

namespace srs {

/// \brief Configuration of an AllPairsEngine.
struct AllPairsOptions {
  /// Damping / iterations / epsilon for every measure served. `num_threads`
  /// inside is ignored; the pool size below governs parallelism.
  SimilarityOptions similarity;

  /// Worker threads in the reusable pool (the dispatching thread counts as
  /// one). <= 0 means HardwareThreads().
  int num_threads = 1;

  /// Sources per cache-blocked tile; <= 0 means the default (32). Memory is
  /// bounded by tile_size × n doubles regardless of the source-set size.
  int tile_size = 32;

  /// Optional shared cache of score vectors; null disables result caching.
  std::shared_ptr<ResultCache> result_cache;

  /// Snapshot memo used at Create(); null means GlobalSnapshotCache().
  SnapshotCache* snapshot_cache = nullptr;
};

/// \brief Computes similarity rows for source sets up to full all-pairs.
///
/// Thread-compatible like QueryEngine: one computation at a time per
/// engine; the snapshot and result cache are safely shared across engines.
class AllPairsEngine {
 public:
  /// Row consumer: `index` is the position in the source set, `source` the
  /// node, `scores` its full row ŝ(source, ·) (valid only during the call).
  using RowCallback =
      std::function<void(int64_t index, NodeId source,
                         const std::vector<double>& scores)>;

  /// Obtains the shared snapshot for the referenced graph — a plain Graph
  /// or `{versioned_graph, version}` (engine/snapshot.h), the latter
  /// resolved incrementally through the cache with rows bit-identical to
  /// an engine over `vg.Materialize(version)` — and spins up the worker
  /// pool. InvalidArgument on bad options or an out-of-range version.
  static Result<AllPairsEngine> Create(const GraphRef& graph,
                                       const AllPairsOptions& options = {});

  AllPairsEngine(AllPairsEngine&&) = default;
  AllPairsEngine& operator=(AllPairsEngine&&) = default;

  /// Nodes in the snapshot.
  int64_t NumNodes() const { return eval_.num_nodes(); }

  /// Workers in the pool.
  int NumWorkers() const { return pool_->NumWorkers(); }

  const AllPairsOptions& options() const { return options_; }

  /// The shared snapshot this engine serves from.
  const std::shared_ptr<const GraphSnapshot>& snapshot() const {
    return eval_.snapshot();
  }

  /// Serves `snapshot`, another version of the same graph, from the next
  /// call on (MeasureEvaluator::Rebind); the pool, workspaces and tile
  /// buffers stay warm. Rows are bit-identical to a new engine's over
  /// `snapshot`.
  void Rebind(std::shared_ptr<const GraphSnapshot> snapshot) {
    eval_.Rebind(std::move(snapshot), options_.similarity);
  }

  /// Streams ŝ(source, ·) for every source, tile by tile, invoking `fn` in
  /// ascending index order. The source set must be non-empty
  /// (InvalidArgument) and every node in range (OutOfRange); on error no
  /// row is computed. Duplicate sources are each emitted.
  Status ForEachRow(QueryMeasure measure, const std::vector<NodeId>& sources,
                    const RowCallback& fn);

  /// Materializes the |sources| × n score matrix, rows in source order.
  Result<DenseMatrix> ComputeRows(QueryMeasure measure,
                                  const std::vector<NodeId>& sources);

  /// Materializes the full n × n score matrix (sources = all nodes).
  Result<DenseMatrix> ComputeAllPairs(QueryMeasure measure);

 private:
  AllPairsEngine(std::shared_ptr<const GraphSnapshot> snapshot,
                 const AllPairsOptions& options);

  AllPairsOptions options_;
  // The same evaluation core the QueryEngine uses: identical kernels and
  // identical cache keys, so both engines share ResultCache entries.
  MeasureEvaluator eval_;

  // unique_ptr keeps the engine movable; the pool, workspaces, and tile
  // buffers are address-stable for the worker threads.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<std::vector<std::unique_ptr<KernelWorkspace>>> workspaces_;
  // tile_size row buffers of n doubles, allocated on first use and reused
  // for every tile thereafter (the cache-blocking working set).
  std::unique_ptr<std::vector<std::vector<double>>> tile_rows_;
};

}  // namespace srs
