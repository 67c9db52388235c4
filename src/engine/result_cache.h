#pragma once

/// \file result_cache.h
/// \brief Sharded LRU cache of single-source score vectors.
///
/// Real query traffic is heavily repeated — popular nodes are asked about
/// again and again, and overlapping multi-source requests keep touching the
/// same rows. A ResultCache memoizes full score vectors ŝ(q, ·) keyed by
///
///   graph fingerprint × options digest × query node,
///
/// so a repeated query is a hash lookup plus a `shared_ptr` copy instead of
/// an O(K²·m) recurrence. The options digest folds the similarity measure
/// and every score-affecting option (damping, iterations, epsilon, kernel
/// backend and its prune epsilon) into the key, so engines with different
/// configurations never alias; the graph
/// fingerprint (engine/snapshot.h) ties entries to graph *structure*, so
/// reloading the same edge list keeps the cache warm while any structural
/// change invalidates it wholesale.
///
/// The cache is thread-safe and sharded: keys hash to one of N shards, each
/// with its own mutex, LRU list, and byte budget, so concurrent serving
/// threads rarely contend. Values are `shared_ptr<const vector<double>>` —
/// eviction never invalidates a vector a reader still holds. Hit / miss /
/// insertion / eviction counters are aggregated across shards in the style
/// of common/memory_tracker.h and printable via StatsString().

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "srs/core/options.h"
#include "srs/graph/graph.h"
#include "srs/observability/metrics.h"

namespace srs {

/// Digest of everything besides the graph that determines a score vector:
/// the measure (an engine-assigned small integer tag) and the
/// score-affecting SimilarityOptions fields, including the kernel backend
/// and — for the sparse backend — its prune epsilon, so pruned and exact
/// answers never alias. The top-k knobs (`top_k`,
/// `topk_early_termination`) are folded in too: a top-k configuration
/// caches encoded rankings, not full rows, and the two must never collide
/// (full-row engines normalize `top_k` to 0). `num_threads` and
/// `sieve_threshold` are excluded — they never change engine output.
///
/// `version_fingerprint` is the snapshot's version identity
/// (GraphSnapshot::version_fingerprint, 0 for an unversioned graph). The
/// `ResultKey` carries only the *base* graph fingerprint — stable across a
/// whole version chain by design, so a reloaded edge list keeps its cache
/// warm — which means the digest is the only thing separating versions:
/// omitting it would let a pre-delta answer satisfy a post-delta query in
/// a shared cache. Folding it here makes cross-version aliasing
/// impossible (regression-tested in tests/result_cache_test.cpp).
uint64_t ResultDigest(const SimilarityOptions& options, int measure_tag,
                      uint64_t version_fingerprint = 0);

/// Key of one cached score vector.
struct ResultKey {
  uint64_t graph_fingerprint = 0;
  uint64_t digest = 0;  ///< ResultDigest(options, measure)
  NodeId query = 0;

  bool operator==(const ResultKey& o) const {
    return graph_fingerprint == o.graph_fingerprint && digest == o.digest &&
           query == o.query;
  }
};

/// Configuration of a ResultCache.
struct ResultCacheOptions {
  /// Total byte budget across all shards (split evenly). Values are charged
  /// 8 bytes per score plus a small per-entry overhead.
  size_t capacity_bytes = size_t{64} << 20;

  /// Shard count; rounded up to a power of two, minimum 1. More shards →
  /// less lock contention under concurrent serving.
  int num_shards = 8;
};

/// One digest renaming of delta-aware invalidation: entries under
/// `from_digest` either move to `to_digest` (when their source provably
/// survives the delta) or are evicted.
struct DigestRemap {
  uint64_t from_digest = 0;
  uint64_t to_digest = 0;
};

/// Outcome counters of one RekeyForDelta pass.
struct DeltaEvictionStats {
  size_t retained = 0;  ///< entries rekeyed to the new version, bit-intact
  size_t evicted = 0;   ///< entries dropped as possibly delta-affected
};

/// Monotonic counters plus a point-in-time footprint.
struct ResultCacheStats {
  uint64_t hits = 0;        ///< Get() found the key
  uint64_t misses = 0;      ///< Get() did not
  uint64_t insertions = 0;  ///< Put() stored a new entry
  uint64_t evictions = 0;   ///< entries dropped for capacity (incl. rejects)
  size_t entries = 0;       ///< entries currently held
  size_t bytes = 0;         ///< bytes currently charged
};

/// \brief Thread-safe sharded LRU for score vectors.
class ResultCache {
 public:
  using Value = std::shared_ptr<const std::vector<double>>;

  explicit ResultCache(const ResultCacheOptions& options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached vector for `key` (refreshing its LRU position), or
  /// null on miss.
  Value Get(const ResultKey& key);

  /// Stores `value` under `key`, replacing any existing entry and evicting
  /// LRU entries until the shard fits its budget. A value larger than the
  /// whole shard budget is rejected (counted as an eviction) — caching it
  /// would just flush the shard for a single-use entry.
  void Put(const ResultKey& key, Value value);

  /// Counters aggregated across shards. Individual shard snapshots are
  /// consistent; the aggregate is approximate under concurrent mutation.
  ResultCacheStats Stats() const;

  /// One-line human-readable stats summary.
  std::string StatsString() const;

  /// Delta-aware invalidation (driven by engine/delta_invalidation.h):
  /// one pass over every shard visits every entry whose key matches
  /// `graph_fingerprint` and one of the `remap` source digests. Entries
  /// whose `survives(query, remap_index)` holds — the index identifies
  /// which remap matched, letting callers apply per-digest criteria such
  /// as per-measure horizons in a single scan — are re-inserted
  /// bit-intact under the remapped digest (the new version serves them as
  /// hits); the rest are evicted. Rekeyed entries count as insertions in
  /// Stats() and move to the MRU end of their (possibly different) shard.
  DeltaEvictionStats RekeyForDelta(
      uint64_t graph_fingerprint, const std::vector<DigestRemap>& remap,
      const std::function<bool(NodeId, size_t)>& survives);

  /// True when RekeyForDelta(graph_fingerprint, remap, ·) would visit at
  /// least one entry right now. Reads each shard under its lock in turn
  /// and changes nothing, so a caller can skip its survival work when
  /// nothing is cached to carry.
  bool HasRemapCandidates(uint64_t graph_fingerprint,
                          const std::vector<DigestRemap>& remap) const;

  /// Drops every entry (monotonic counters are preserved).
  void Clear();

  /// Total configured byte budget.
  size_t capacity_bytes() const;

  /// Registers this cache's counters/footprint as polled metrics
  /// (`srs_result_cache_*`) in `registry` (the global one when null). The
  /// registration lives as long as the cache; the newest registered cache
  /// owns the family.
  void RegisterMetrics(MetricsRegistry* registry = nullptr);

 private:
  struct Entry {
    ResultKey key;
    Value value;
    size_t bytes;
  };
  struct KeyHash {
    size_t operator()(const ResultKey& k) const;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<ResultKey, std::list<Entry>::iterator, KeyHash> index;
    size_t bytes = 0;
    ResultCacheStats stats;  // monotonic counters; entries/bytes unused here
  };

  Shard& ShardFor(const ResultKey& key);

  /// Index of the remap `key` falls under, or remap.size() when none.
  static size_t MatchRemap(const ResultKey& key, uint64_t graph_fingerprint,
                           const std::vector<DigestRemap>& remap);

  size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  PolledRegistration metrics_;
};

}  // namespace srs
