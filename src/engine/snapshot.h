#pragma once

/// \file snapshot.h
/// \brief Shared immutable graph snapshots — static and versioned — and
/// their process-level cache.
///
/// Every serving engine needs the same derived structure from a graph: the
/// backward transition matrix `Q` (row-normalized Aᵀ, paper Eq. 3), its
/// transpose `Qᵀ`, and the forward transition `W` / `Wᵀ` for RWR. Building
/// those is O(m log m). A `GraphSnapshot` bundles the four matrices as
/// `CsrOverlay`s behind a `shared_ptr<const ...>` so any number of engines
/// (and threads) read one copy, and a `SnapshotCache` memoizes snapshots so
/// a second engine over the same graph reuses the matrices.
///
/// **Versioning** (graph/versioned_graph.h): a snapshot belongs to a
/// version chain. Its `fingerprint` is the structural hash of the chain's
/// *base* graph — stable across versions, so reloading the same edge list
/// keeps caches warm — while `version_fingerprint` identifies the exact
/// version (0 for a root; delta-chained otherwise). The cache resolves the
/// composite (fingerprint, version_fingerprint) key. A derived snapshot is
/// built *incrementally*: only the transition rows the delta touches are
/// recomputed and patched over the parent's overlays, so all unmodified
/// row storage is physically shared between versions, and the kernels
/// gather/scatter straight through the patches. Incremental snapshots are
/// **bit-identical** to a from-scratch rebuild of the same version (the
/// differential fuzz harness asserts this across measures × backends ×
/// engines).
///
/// The fingerprint pair also keys result-cache entries
/// (engine/result_cache.h): the graph fingerprint enters `ResultKey`
/// directly and the version fingerprint is folded into `ResultDigest`, so
/// answers from different versions can never alias in a shared cache.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "srs/common/result.h"
#include "srs/graph/graph.h"
#include "srs/graph/versioned_graph.h"
#include "srs/matrix/csr_overlay.h"
#include "srs/observability/metrics.h"

namespace srs {

/// 64-bit structural fingerprint of a graph: a deterministic hash over the
/// node count and the full out-adjacency structure. Equal graphs (same
/// nodes, same edge set) always collide; distinct graphs collide with
/// probability ~2^-64. Labels are ignored — similarity scores depend only
/// on structure.
uint64_t GraphFingerprint(const Graph& g);

/// The largest per-row |value| sum of one matrix — a snapshot gamma — and
/// how many rows attain it bitwise. The count is what lets a derived
/// snapshot update its gammas from the rows its delta rewrote alone.
struct RowSumMax {
  double value = 0.0;
  int64_t rows = 0;

  /// Folds one row's sum in. Max is exact, so folding every row in any
  /// order reproduces a full scan's bits (matrix/ops.h MaxAbsRowSum).
  void Offer(double sum) {
    if (sum > value) {
      value = sum;
      rows = 1;
    } else if (sum == value) {
      ++rows;
    }
  }
};

/// \brief Immutable transition-structure snapshot shared by the engines.
///
/// Each matrix is stored alongside its transpose: the dense kernels gather
/// over `q`/`qt`/`wt`, while the sparse frontier backend
/// (core/kernel_backend.h) scatters the rows of the *transposed* operand —
/// `qt` for Q products, `q` for Qᵀ products, and `w` for Wᵀ products —
/// touching only the edges incident to the live frontier. The matrices are
/// `CsrOverlay`s: patch-free for a root snapshot, per-row patches over the
/// parent's storage for a derived one.
struct GraphSnapshot {
  /// Structural fingerprint of the version chain's base graph (for a
  /// snapshot built from a plain Graph, of that graph itself).
  uint64_t fingerprint = 0;

  /// Identity of this exact version: 0 for roots, chained over the parent
  /// fingerprint and the delta content otherwise. Folded into
  /// ResultDigest so versions never alias in a shared ResultCache.
  uint64_t version_fingerprint = 0;

  /// The parent version's `version_fingerprint` (0 and meaningless when
  /// `version` == 0).
  uint64_t parent_fingerprint = 0;

  /// Ordinal position in the chain (0 = root).
  uint64_t version = 0;

  int64_t num_nodes = 0;
  CsrOverlay q;   ///< backward transition Q = row-normalized Aᵀ
  CsrOverlay qt;  ///< Qᵀ
  CsrOverlay w;   ///< forward transition W = row-normalized A
  CsrOverlay wt;  ///< Wᵀ (RWR walks out-links)

  /// Max abs row sums of q / qt / wt (matrix/ops.h), the amplification
  /// factors of the analytic bounds (prune error, top-k residual tails).
  double gamma_q = 0.0;
  double gamma_qt = 0.0;
  double gamma_wt = 0.0;

  /// Rows whose |value| sum equals gamma_q / gamma_qt / gamma_wt. No
  /// per-row sums are kept: a derived snapshot takes each gamma from the
  /// rows its delta rewrote (their parent and child sums) and this count,
  /// and rescans the matrix in O(nnz) only when the last row at the max
  /// dropped below it. Bitwise the from-scratch result either way (each
  /// row sum is the same gather loop; max is an exact operation).
  int64_t gamma_q_rows = 0;
  int64_t gamma_qt_rows = 0;
  int64_t gamma_wt_rows = 0;

  /// Stores each matrix's max row sum and the count of rows at it.
  void SetGammas(const RowSumMax& q_max, const RowSumMax& qt_max,
                 const RowSumMax& wt_max) {
    gamma_q = q_max.value;
    gamma_q_rows = q_max.rows;
    gamma_qt = qt_max.value;
    gamma_qt_rows = qt_max.rows;
    gamma_wt = wt_max.value;
    gamma_wt_rows = wt_max.rows;
  }

  /// Nodes whose row changed in *any* of the four matrices parent → this
  /// version (sorted; empty for roots). The seed set of delta-aware
  /// result-cache invalidation (engine/delta_invalidation.h).
  std::vector<NodeId> delta_touched;

  /// Logical footprint in bytes, shared base storage included — what one
  /// snapshot costs in isolation.
  size_t ByteSize() const {
    return q.ByteSize() + qt.ByteSize() + w.ByteSize() + wt.ByteSize();
  }

  /// Bytes this snapshot adds on top of storage shared with an ancestor:
  /// patched overlays count only their marginal patch rows, patched-row
  /// list and n-bit membership bitmap; patch-free overlays (roots,
  /// compactions) own their CSR outright. The SnapshotCache charges this,
  /// so a long version chain's reported bytes track real memory instead of
  /// multiplying the shared base per entry — a 16-edge delta at n = 1M
  /// charges about 0.5 MB, nearly all of it the four bitmaps. (A derived
  /// version whose delta was all no-ops shares everything yet has no
  /// patches; it is charged as an owner — rare and conservative.)
  size_t CacheByteSize() const {
    auto charge = [](const CsrOverlay& m) {
      return m.HasPatches() ? m.OverlayByteSize() : m.ByteSize();
    };
    return charge(q) + charge(qt) + charge(w) + charge(wt);
  }
};

/// Builds a root snapshot directly from a graph, bypassing any cache.
std::shared_ptr<const GraphSnapshot> MakeGraphSnapshot(const Graph& g);

/// Builds the snapshot of `vg`'s `version` incrementally from its parent's
/// snapshot: recomputes only the transition rows the version's delta
/// touched, patches them over the parent's overlays (unmodified rows stay
/// physically shared), and — when an overlay's patched fraction exceeds ½
/// — compacts that overlay into a fresh CSR. Nothing per node is copied
/// or scanned beyond each overlay's n-bit patch bitmap: the gammas come
/// from the rewritten rows (RowSumMax). Requires `version` >= 1, not
/// compacted at the graph level, and `parent` to be version − 1's
/// snapshot of the same chain.
std::shared_ptr<const GraphSnapshot> MakeDerivedSnapshot(
    const std::shared_ptr<const GraphSnapshot>& parent,
    const VersionedGraph& vg, uint64_t version);

/// Monotonic counters describing a SnapshotCache's behavior.
struct SnapshotCacheStats {
  uint64_t hits = 0;       ///< Get() served an existing snapshot
  uint64_t misses = 0;     ///< Get() had to build one
  uint64_t evictions = 0;  ///< snapshots dropped to respect max_snapshots
  size_t entries = 0;      ///< snapshots currently held
  size_t bytes = 0;        ///< logical bytes currently held
};

/// \brief Thread-safe LRU memo of graph snapshots, keyed by
/// (fingerprint, version fingerprint).
///
/// Holding a snapshot in the cache does not pin it forever: entries are
/// `shared_ptr`s, so an evicted snapshot stays alive for exactly as long as
/// some engine still uses it.
class SnapshotCache {
 public:
  /// Cache holding at most `max_snapshots` entries (LRU eviction).
  explicit SnapshotCache(size_t max_snapshots = 8);

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Returns the root snapshot for `g`, building and memoizing it on
  /// first use.
  std::shared_ptr<const GraphSnapshot> Get(const Graph& g);

  /// Returns the snapshot of `vg`'s `version`, resolving the
  /// (fingerprint, version) pair. On a miss the snapshot is built
  /// incrementally from the nearest cached ancestor (walking parents back
  /// to version 0 or a graph-level compaction), so applying one delta
  /// costs O(patched rows·deg) plus an n/8-byte bitmap per overlay —
  /// never the O(nnz log nnz) four-matrix rebuild.
  /// InvalidArgument when `version` is out of range.
  Result<std::shared_ptr<const GraphSnapshot>> Get(const VersionedGraph& vg,
                                                   uint64_t version);

  /// Inserts an externally built snapshot under its own
  /// (fingerprint, version_fingerprint) key — the recovery fast path:
  /// storage/snapshot_file.h deserializes a snapshot without any
  /// renormalization, and seeding it here means the first Get() for that
  /// version is a hit instead of an O(m log m) rebuild. Returns the cached
  /// copy (an already-present identical entry wins).
  std::shared_ptr<const GraphSnapshot> Seed(
      std::shared_ptr<const GraphSnapshot> snapshot);

  /// Current counters (a consistent view under the cache lock).
  SnapshotCacheStats Stats() const;

  /// Drops all memoized snapshots (in-use engines keep theirs alive).
  void Clear();

  /// Registers this cache's counters/footprint as polled metrics
  /// (`srs_snapshot_cache_*`) in `registry` (the global one when null).
  void RegisterMetrics(MetricsRegistry* registry = nullptr);

 private:
  struct Entry {
    uint64_t fingerprint;
    uint64_t version_fingerprint;
    std::shared_ptr<const GraphSnapshot> snapshot;
  };

  /// Returns the cached snapshot for the key or null (bumping LRU/stats).
  std::shared_ptr<const GraphSnapshot> Lookup(uint64_t fingerprint,
                                              uint64_t version_fingerprint);

  /// Inserts (or refreshes) under the key and applies LRU eviction.
  std::shared_ptr<const GraphSnapshot> Insert(
      uint64_t fingerprint, uint64_t version_fingerprint,
      std::shared_ptr<const GraphSnapshot> snapshot);

  const size_t max_snapshots_;
  mutable std::mutex mu_;
  // Most-recently-used first; linear scan is fine for a handful of graphs.
  std::vector<Entry> entries_;
  SnapshotCacheStats stats_;
  PolledRegistration metrics_;
};

/// Process-wide default cache used by the engines unless an explicit one is
/// supplied in their options.
SnapshotCache& GlobalSnapshotCache();

/// \brief The one graph-addressing argument of the serving engines: a plain
/// `Graph` (served at its root snapshot) or one version of a
/// `VersionedGraph`.
///
/// Every engine used to carry two `Create` overloads — `Create(Graph)` and
/// `Create(VersionedGraph, version)` — each repeating the same
/// resolve-options / pick-cache / fetch-snapshot dance. A GraphRef is that
/// dance, once: engines take a single `Create(GraphRef, options)` and call
/// `Resolve()`. The `Graph` conversion is implicit, so `Create(g, opts)`
/// still reads naturally; a versioned ref is spelled `{vg, version}`.
///
/// A GraphRef is a borrowed view — it must not outlive the graph it names.
/// Pass it down a call chain freely; do not store it.
class GraphRef {
 public:
  /// A plain graph, served at its root snapshot.
  GraphRef(const Graph& g) : graph_(&g) {}  // NOLINT implicit

  /// One version of a versioned graph, served through the incrementally
  /// resolved snapshot chain.
  GraphRef(const VersionedGraph& vg, uint64_t version)
      : versioned_(&vg), version_(version) {}

  /// The serving snapshot, memoized through `cache`
  /// (GlobalSnapshotCache() when null). InvalidArgument on an
  /// out-of-range version.
  Result<std::shared_ptr<const GraphSnapshot>> Resolve(
      SnapshotCache* cache) const;

  /// Nodes in the referenced graph (version-independent).
  int64_t NumNodes() const;

 private:
  const Graph* graph_ = nullptr;
  const VersionedGraph* versioned_ = nullptr;
  uint64_t version_ = 0;
};

}  // namespace srs
