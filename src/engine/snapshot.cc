#include "srs/engine/snapshot.h"

#include <algorithm>
#include <utility>

#include "srs/matrix/ops.h"

namespace srs {

namespace {

std::vector<int64_t> ToRowIndices(const std::vector<NodeId>& nodes) {
  std::vector<int64_t> rows(nodes.begin(), nodes.end());
  return rows;
}

void SortUnique(std::vector<int64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// The four per-matrix sets of rows whose content changes parent →
/// `version`, derived from the touched-adjacency sets:
///  * Q row i depends only on I(i)            → rows = touched_in;
///  * W row u depends only on O(u)            → rows = touched_out;
///  * Qᵀ row j = {(i, 1/|I(i)|) : i ∈ O(j)}   → rows = touched_out plus
///    every j ∈ I_new(i) of an i whose in-degree changed (a pure rescale
///    of existing entries; members dropped from I(i) had their own
///    out-list change and are already in touched_out);
///  * Wᵀ row x = {(y, 1/|O(y)|) : y ∈ I(x)}   → symmetric.
struct ChangedRows {
  std::vector<int64_t> q, qt, w, wt;
  std::vector<NodeId> all;  ///< sorted union (the invalidation seed set)
};

ChangedRows ComputeChangedRows(const VersionedGraph& vg, uint64_t version) {
  ChangedRows rows;
  rows.q = ToRowIndices(vg.TouchedIn(version));
  rows.w = ToRowIndices(vg.TouchedOut(version));

  rows.qt = ToRowIndices(vg.TouchedOut(version));
  for (NodeId i : vg.InDegreeChanged(version)) {
    for (NodeId j : vg.InNeighbors(version, i)) {
      rows.qt.push_back(j);
    }
  }
  SortUnique(&rows.qt);

  rows.wt = ToRowIndices(vg.TouchedIn(version));
  for (NodeId u : vg.OutDegreeChanged(version)) {
    for (NodeId x : vg.OutNeighbors(version, u)) {
      rows.wt.push_back(x);
    }
  }
  SortUnique(&rows.wt);

  std::vector<int64_t> all = rows.q;
  all.insert(all.end(), rows.qt.begin(), rows.qt.end());
  all.insert(all.end(), rows.w.begin(), rows.w.end());
  all.insert(all.end(), rows.wt.begin(), rows.wt.end());
  SortUnique(&all);
  rows.all.assign(all.begin(), all.end());
  return rows;
}

/// Builds the replacement rows for `rows` of one transition matrix. `emit`
/// appends row r's (col, value) entries in ascending column order, using
/// exactly the expressions a from-scratch build uses — which is what makes
/// the patched overlay bitwise equal to a rebuild.
template <typename EmitRow>
CsrMatrix BuildPatchRows(int64_t num_nodes,
                         const std::vector<int64_t>& rows,
                         const EmitRow& emit) {
  CsrMatrix::Builder builder(static_cast<int64_t>(rows.size()), num_nodes);
  for (size_t i = 0; i < rows.size(); ++i) {
    emit(rows[i], static_cast<int64_t>(i), &builder);
  }
  return builder.Build().MoveValueOrDie();
}

/// Applies the patch and compacts the overlay once more than half its rows
/// are replacements — past that density the patch lookups cost more than
/// they save, and Compact() preserves every bit.
CsrOverlay PatchOverlay(const CsrOverlay& parent,
                        const std::vector<int64_t>& rows, CsrMatrix patch) {
  CsrOverlay out = parent.WithPatchedRows(rows, std::move(patch));
  if (out.PatchedFraction() > 0.5) return CsrOverlay(out.Compact());
  return out;
}

/// Full O(nnz) scan: every row's |value| sum folded into one max.
RowSumMax ScanRowSumMax(const CsrOverlay& m) {
  RowSumMax max;
  m.ForEachRow([&](int64_t, const CsrRowSpan& row) {
    max.Offer(RowAbsSum(row));
  });
  return max;
}

/// The max after `changed` rows of `parent` were rewritten into `child`,
/// from those rows alone: the parent's count loses every changed row that
/// sat at the max, and the changed rows' new sums compete with what is
/// left. Only when no unchanged row is left at the max and every new sum
/// fell below it is the new max unknown — then `child` is rescanned.
RowSumMax PatchRowSumMax(RowSumMax max, const CsrOverlay& parent,
                         const CsrOverlay& child,
                         const std::vector<int64_t>& changed) {
  RowSumMax rewritten;
  for (int64_t r : changed) {
    if (RowAbsSum(parent.Row(r)) == max.value) --max.rows;
    rewritten.Offer(RowAbsSum(child.Row(r)));
  }
  if (rewritten.value > max.value) return rewritten;
  if (rewritten.value == max.value) {
    max.rows += rewritten.rows;
    return max;
  }
  return max.rows > 0 ? max : ScanRowSumMax(child);
}

std::shared_ptr<GraphSnapshot> BuildRootMatrices(const Graph& g) {
  auto snapshot = std::make_shared<GraphSnapshot>();
  snapshot->num_nodes = g.NumNodes();
  auto q = std::make_shared<const CsrMatrix>(g.BackwardTransition());
  auto qt = std::make_shared<const CsrMatrix>(q->Transposed());
  auto w = std::make_shared<const CsrMatrix>(g.ForwardTransition());
  auto wt = std::make_shared<const CsrMatrix>(w->Transposed());
  snapshot->q = CsrOverlay(std::move(q));
  snapshot->qt = CsrOverlay(std::move(qt));
  snapshot->w = CsrOverlay(std::move(w));
  snapshot->wt = CsrOverlay(std::move(wt));
  snapshot->SetGammas(ScanRowSumMax(snapshot->q),
                      ScanRowSumMax(snapshot->qt),
                      ScanRowSumMax(snapshot->wt));
  return snapshot;
}

/// Full (non-incremental) snapshot of `vg`'s `version` — used for version
/// 0 and for graph-level compactions, where a fresh materialized Graph
/// exists anyway. Chain identity and the invalidation seed set are still
/// threaded through.
std::shared_ptr<GraphSnapshot> BuildVersionSnapshotFull(
    const VersionedGraph& vg, uint64_t version) {
  std::shared_ptr<GraphSnapshot> snapshot =
      BuildRootMatrices(*vg.MaterializedBase(version));
  snapshot->fingerprint = vg.BaseFingerprint();
  snapshot->version_fingerprint = vg.VersionFingerprint(version);
  snapshot->version = version;
  if (version > vg.FirstVersion()) {
    snapshot->parent_fingerprint = vg.VersionFingerprint(version - 1);
    snapshot->delta_touched = ComputeChangedRows(vg, version).all;
  }
  return snapshot;
}

}  // namespace

uint64_t GraphFingerprint(const Graph& g) {
  return GraphStructuralFingerprint(g);
}

std::shared_ptr<const GraphSnapshot> MakeGraphSnapshot(const Graph& g) {
  std::shared_ptr<GraphSnapshot> snapshot = BuildRootMatrices(g);
  snapshot->fingerprint = GraphFingerprint(g);
  return snapshot;
}

std::shared_ptr<const GraphSnapshot> MakeDerivedSnapshot(
    const std::shared_ptr<const GraphSnapshot>& parent,
    const VersionedGraph& vg, uint64_t version) {
  SRS_CHECK(version > vg.FirstVersion() && version <= vg.CurrentVersion());
  SRS_CHECK(parent != nullptr);
  SRS_CHECK(parent->fingerprint == vg.BaseFingerprint() &&
            parent->version_fingerprint == vg.VersionFingerprint(version - 1))
      << "parent snapshot does not match version " << version - 1;

  const int64_t n = vg.NumNodes();
  ChangedRows rows = ComputeChangedRows(vg, version);

  // Replacement-row content mirrors the from-scratch build expressions:
  // BackwardTransition emits 1/|I(i)| over ascending in-neighbors,
  // ForwardTransition 1/|O(u)| over ascending out-neighbors, and the
  // transposes copy those exact doubles into column-sorted rows.
  CsrMatrix q_patch = BuildPatchRows(
      n, rows.q, [&](int64_t r, int64_t slot, CsrMatrix::Builder* b) {
        const auto in = vg.InNeighbors(version, static_cast<NodeId>(r));
        if (in.empty()) return;
        const double weight = 1.0 / static_cast<double>(in.size());
        for (NodeId j : in) SRS_CHECK_OK(b->Add(slot, j, weight));
      });
  CsrMatrix qt_patch = BuildPatchRows(
      n, rows.qt, [&](int64_t r, int64_t slot, CsrMatrix::Builder* b) {
        for (NodeId i : vg.OutNeighbors(version, static_cast<NodeId>(r))) {
          const double weight =
              1.0 / static_cast<double>(vg.InDegree(version, i));
          SRS_CHECK_OK(b->Add(slot, i, weight));
        }
      });
  CsrMatrix w_patch = BuildPatchRows(
      n, rows.w, [&](int64_t r, int64_t slot, CsrMatrix::Builder* b) {
        const auto out = vg.OutNeighbors(version, static_cast<NodeId>(r));
        if (out.empty()) return;
        const double weight = 1.0 / static_cast<double>(out.size());
        for (NodeId v : out) SRS_CHECK_OK(b->Add(slot, v, weight));
      });
  CsrMatrix wt_patch = BuildPatchRows(
      n, rows.wt, [&](int64_t r, int64_t slot, CsrMatrix::Builder* b) {
        for (NodeId y : vg.InNeighbors(version, static_cast<NodeId>(r))) {
          const double weight =
              1.0 / static_cast<double>(vg.OutDegree(version, y));
          SRS_CHECK_OK(b->Add(slot, y, weight));
        }
      });

  auto snapshot = std::make_shared<GraphSnapshot>();
  snapshot->fingerprint = parent->fingerprint;
  snapshot->version_fingerprint = vg.VersionFingerprint(version);
  snapshot->parent_fingerprint = parent->version_fingerprint;
  snapshot->version = version;
  snapshot->num_nodes = n;
  snapshot->q = PatchOverlay(parent->q, rows.q, std::move(q_patch));
  snapshot->qt = PatchOverlay(parent->qt, rows.qt, std::move(qt_patch));
  snapshot->w = PatchOverlay(parent->w, rows.w, std::move(w_patch));
  snapshot->wt = PatchOverlay(parent->wt, rows.wt, std::move(wt_patch));
  // Gammas from the rewritten rows alone — O(|touched|·deg), bitwise what
  // a full MaxAbsRowSum rescan would produce.
  snapshot->SetGammas(
      PatchRowSumMax({parent->gamma_q, parent->gamma_q_rows}, parent->q,
                     snapshot->q, rows.q),
      PatchRowSumMax({parent->gamma_qt, parent->gamma_qt_rows}, parent->qt,
                     snapshot->qt, rows.qt),
      PatchRowSumMax({parent->gamma_wt, parent->gamma_wt_rows}, parent->wt,
                     snapshot->wt, rows.wt));
  snapshot->delta_touched = std::move(rows.all);
  return snapshot;
}

SnapshotCache::SnapshotCache(size_t max_snapshots)
    : max_snapshots_(std::max<size_t>(1, max_snapshots)) {}

std::shared_ptr<const GraphSnapshot> SnapshotCache::Lookup(
    uint64_t fingerprint, uint64_t version_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].fingerprint == fingerprint &&
        entries_[i].version_fingerprint == version_fingerprint) {
      // Move to front (MRU).
      std::rotate(entries_.begin(), entries_.begin() + i,
                  entries_.begin() + i + 1);
      ++stats_.hits;
      return entries_.front().snapshot;
    }
  }
  return nullptr;
}

std::shared_ptr<const GraphSnapshot> SnapshotCache::Insert(
    uint64_t fingerprint, uint64_t version_fingerprint,
    std::shared_ptr<const GraphSnapshot> snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].fingerprint == fingerprint &&
        entries_[i].version_fingerprint == version_fingerprint) {
      // A racing builder beat us to it; serve its copy (identical
      // content) and drop ours.
      std::rotate(entries_.begin(), entries_.begin() + i,
                  entries_.begin() + i + 1);
      ++stats_.hits;
      return entries_.front().snapshot;
    }
  }
  ++stats_.misses;
  entries_.insert(entries_.begin(),
                  Entry{fingerprint, version_fingerprint, snapshot});
  stats_.bytes += snapshot->CacheByteSize();
  while (entries_.size() > max_snapshots_) {
    stats_.bytes -= entries_.back().snapshot->CacheByteSize();
    entries_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = entries_.size();
  return snapshot;
}

std::shared_ptr<const GraphSnapshot> SnapshotCache::Get(const Graph& g) {
  const uint64_t fingerprint = GraphFingerprint(g);
  if (auto hit = Lookup(fingerprint, 0)) return hit;
  // Build outside the lock: snapshotting a large graph must not serialize
  // unrelated lookups. A racing builder of the same graph is harmless —
  // both produce identical snapshots and Insert detects the duplicate.
  return Insert(fingerprint, 0, MakeGraphSnapshot(g));
}

Result<std::shared_ptr<const GraphSnapshot>> SnapshotCache::Get(
    const VersionedGraph& vg, uint64_t version) {
  if (version < vg.FirstVersion() || version > vg.CurrentVersion()) {
    return Status::InvalidArgument(
        "version " + std::to_string(version) + " out of range (resident [" +
        std::to_string(vg.FirstVersion()) + ", " +
        std::to_string(vg.CurrentVersion()) + "])");
  }
  const uint64_t fingerprint = vg.BaseFingerprint();

  // Walk back to the nearest snapshot we can start from: a cached
  // ancestor, or a version with a materialized graph (the chain's oldest
  // resident version or a graph-level compaction). Everything between it
  // and `version` is then derived one delta step at a time, each step
  // cached for the next call.
  uint64_t start = version;
  std::shared_ptr<const GraphSnapshot> current;
  while (true) {
    current = Lookup(fingerprint, vg.VersionFingerprint(start));
    if (current != nullptr) break;
    if (start == vg.FirstVersion() || vg.IsCompacted(start)) break;
    --start;
  }
  if (current == nullptr) {
    current = Insert(fingerprint, vg.VersionFingerprint(start),
                     BuildVersionSnapshotFull(vg, start));
  }
  for (uint64_t v = start + 1; v <= version; ++v) {
    std::shared_ptr<const GraphSnapshot> next =
        vg.IsCompacted(v) ? BuildVersionSnapshotFull(vg, v)
                          : MakeDerivedSnapshot(current, vg, v);
    current = Insert(fingerprint, vg.VersionFingerprint(v), std::move(next));
  }
  return current;
}

std::shared_ptr<const GraphSnapshot> SnapshotCache::Seed(
    std::shared_ptr<const GraphSnapshot> snapshot) {
  SRS_CHECK(snapshot != nullptr);
  const uint64_t fingerprint = snapshot->fingerprint;
  const uint64_t vfp = snapshot->version_fingerprint;
  return Insert(fingerprint, vfp, std::move(snapshot));
}

SnapshotCacheStats SnapshotCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SnapshotCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  stats_.entries = 0;
  stats_.bytes = 0;
}

void SnapshotCache::RegisterMetrics(MetricsRegistry* registry) {
  MetricsRegistry* reg = registry != nullptr ? registry : &GlobalMetrics();
  metrics_.Reset();
  struct Field {
    const char* name;
    const char* help;
    MetricType type;
    double (*get)(const SnapshotCacheStats&);
  };
  static constexpr Field kFields[] = {
      {"srs_snapshot_cache_hits_total",
       "Snapshot-cache lookups served from memo", MetricType::kCounter,
       [](const SnapshotCacheStats& s) {
         return static_cast<double>(s.hits);
       }},
      {"srs_snapshot_cache_misses_total",
       "Snapshot-cache lookups that built a snapshot", MetricType::kCounter,
       [](const SnapshotCacheStats& s) {
         return static_cast<double>(s.misses);
       }},
      {"srs_snapshot_cache_evictions_total",
       "Snapshots dropped to respect the entry cap", MetricType::kCounter,
       [](const SnapshotCacheStats& s) {
         return static_cast<double>(s.evictions);
       }},
      {"srs_snapshot_cache_entries", "Snapshots currently memoized",
       MetricType::kGauge,
       [](const SnapshotCacheStats& s) {
         return static_cast<double>(s.entries);
       }},
      {"srs_snapshot_cache_bytes",
       "Logical bytes of memoized snapshots (marginal for derived versions)",
       MetricType::kGauge,
       [](const SnapshotCacheStats& s) {
         return static_cast<double>(s.bytes);
       }},
  };
  for (const Field& field : kFields) {
    metrics_.Add(reg, field.name, field.help, field.type, {},
                 [this, get = field.get] { return get(Stats()); });
  }
}

SnapshotCache& GlobalSnapshotCache() {
  static SnapshotCache* cache = new SnapshotCache();
  return *cache;
}

Result<std::shared_ptr<const GraphSnapshot>> GraphRef::Resolve(
    SnapshotCache* cache) const {
  SnapshotCache& snapshots =
      cache != nullptr ? *cache : GlobalSnapshotCache();
  if (graph_ != nullptr) return snapshots.Get(*graph_);
  return snapshots.Get(*versioned_, version_);
}

int64_t GraphRef::NumNodes() const {
  return graph_ != nullptr ? graph_->NumNodes() : versioned_->NumNodes();
}

}  // namespace srs
