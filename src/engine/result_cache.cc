#include "srs/engine/result_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "srs/common/memory_tracker.h"

namespace srs {

namespace {

// Fixed per-entry overhead charged on top of the score payload: key, list
// node, and hash-table slot, rounded generously.
constexpr size_t kEntryOverheadBytes = 96;

inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return Mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

int RoundUpPowerOfTwo(int v) {
  int p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

uint64_t ResultDigest(const SimilarityOptions& options, int measure_tag,
                      uint64_t version_fingerprint) {
  uint64_t h = 0x5275c9e3d1ab47f1ULL;
  // The snapshot version goes in first: ResultKey's graph fingerprint is
  // deliberately version-stable, so without this fold a post-delta query
  // could be answered by a pre-delta row.
  h = HashCombine(h, version_fingerprint);
  h = HashCombine(h, static_cast<uint64_t>(measure_tag));
  h = HashCombine(h, DoubleBits(options.damping));
  h = HashCombine(h, static_cast<uint64_t>(options.iterations));
  h = HashCombine(h, DoubleBits(options.epsilon));
  // The kernel backend and its prune epsilon change the emitted bits, so
  // pruned and exact answers must never alias. The dense backend ignores
  // prune_epsilon — fold it as 0 there so an inert epsilon does not
  // fragment dense caches.
  h = HashCombine(h, static_cast<uint64_t>(options.backend));
  h = HashCombine(h, DoubleBits(options.backend == KernelBackendKind::kSparse
                                    ? options.prune_epsilon
                                    : 0.0));
  // top_k > 0 marks a top-k configuration, whose cached values are encoded
  // rankings (possibly early-terminated partial scores) rather than full
  // rows — they must never alias a full-row entry, nor a top-k entry for a
  // different k or termination policy. The full-row engines pass top_k = 0,
  // under which the termination flag is inert and folded as a constant.
  h = HashCombine(h, static_cast<uint64_t>(options.top_k));
  h = HashCombine(h, options.top_k > 0
                         ? static_cast<uint64_t>(options.topk_early_termination)
                         : uint64_t{1});
  return h;
}

size_t ResultCache::KeyHash::operator()(const ResultKey& k) const {
  uint64_t h = k.graph_fingerprint;
  h = HashCombine(h, k.digest);
  h = HashCombine(h, static_cast<uint64_t>(k.query));
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(const ResultCacheOptions& options) {
  const int shards = RoundUpPowerOfTwo(std::max(1, options.num_shards));
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = options.capacity_bytes / static_cast<size_t>(shards);
}

ResultCache::Shard& ResultCache::ShardFor(const ResultKey& key) {
  // The low bits of the key hash pick the bucket inside a shard's map; use
  // independently mixed bits for shard selection so shards stay balanced.
  const uint64_t h = Mix64(KeyHash{}(key));
  return *shards_[static_cast<size_t>(h) & (shards_.size() - 1)];
}

ResultCache::Value ResultCache::Get(const ResultKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  // Refresh recency: splice the entry to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return shard.lru.front().value;
}

void ResultCache::Put(const ResultKey& key, Value value) {
  if (value == nullptr) return;
  const size_t bytes = value->size() * sizeof(double) + kEntryOverheadBytes;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (bytes > shard_capacity_) {
    // Oversized for this shard: storing it would flush everything else.
    // Never admitted — also drop any stale entry under the key rather than
    // keep serving an answer the caller just tried to replace.
    if (it != shard.index.end()) {
      shard.bytes -= it->second->bytes;
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    ++shard.stats.evictions;
    return;
  }
  if (it != shard.index.end()) {
    // Replace in place and refresh recency.
    shard.bytes -= it->second->bytes;
    it->second->value = std::move(value);
    it->second->bytes = bytes;
    shard.bytes += bytes;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.push_front(Entry{key, std::move(value), bytes});
    shard.index.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    ++shard.stats.insertions;
  }
  // The entry just admitted fits the budget by itself, so this always
  // terminates with it still present.
  while (shard.bytes > shard_capacity_) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.stats.evictions;
  }
}

size_t ResultCache::MatchRemap(const ResultKey& key,
                               uint64_t graph_fingerprint,
                               const std::vector<DigestRemap>& remap) {
  if (key.graph_fingerprint != graph_fingerprint) return remap.size();
  for (size_t r = 0; r < remap.size(); ++r) {
    if (key.digest == remap[r].from_digest) return r;
  }
  return remap.size();
}

bool ResultCache::HasRemapCandidates(
    uint64_t graph_fingerprint, const std::vector<DigestRemap>& remap) const {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& entry : shard->lru) {
      if (MatchRemap(entry.key, graph_fingerprint, remap) < remap.size()) {
        return true;
      }
    }
  }
  return false;
}

DeltaEvictionStats ResultCache::RekeyForDelta(
    uint64_t graph_fingerprint, const std::vector<DigestRemap>& remap,
    const std::function<bool(NodeId, size_t)>& survives) {
  DeltaEvictionStats result;
  // Phase 1: under each shard lock, detach every matching entry — the
  // survivors' new digests generally hash to different shards, so they
  // cannot be re-linked in place. Phase 2 re-inserts survivors through
  // Put() with no lock held here (Put takes the target shard's lock).
  std::vector<std::pair<ResultKey, Value>> survivors;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      const ResultKey& key = it->key;
      const size_t match = MatchRemap(key, graph_fingerprint, remap);
      if (match == remap.size()) {
        ++it;
        continue;
      }
      if (survives(key.query, match)) {
        survivors.emplace_back(
            ResultKey{key.graph_fingerprint, remap[match].to_digest,
                      key.query},
            std::move(it->value));
        ++result.retained;
      } else {
        ++shard->stats.evictions;
        ++result.evicted;
      }
      shard->bytes -= it->bytes;
      shard->index.erase(key);
      it = shard->lru.erase(it);
    }
  }
  for (auto& [key, value] : survivors) {
    Put(key, std::move(value));
  }
  return result;
}

ResultCacheStats ResultCache::Stats() const {
  ResultCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
    total.entries += shard->lru.size();
    total.bytes += shard->bytes;
  }
  return total;
}

std::string ResultCache::StatsString() const {
  const ResultCacheStats s = Stats();
  const uint64_t lookups = s.hits + s.misses;
  const double hit_rate =
      lookups == 0 ? 0.0 : 100.0 * static_cast<double>(s.hits) /
                               static_cast<double>(lookups);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "result-cache: %llu hits / %llu lookups (%.1f%%), %zu entries "
                "(%s), %llu evictions",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(lookups), hit_rate, s.entries,
                FormatBytes(s.bytes).c_str(),
                static_cast<unsigned long long>(s.evictions));
  return buf;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
    shard->bytes = 0;
  }
}

size_t ResultCache::capacity_bytes() const {
  return shard_capacity_ * shards_.size();
}

void ResultCache::RegisterMetrics(MetricsRegistry* registry) {
  MetricsRegistry* reg = registry != nullptr ? registry : &GlobalMetrics();
  metrics_.Reset();
  // Polled, not double-counted: the shards already keep these counters
  // under their own locks; Snapshot() reads them through Stats().
  struct Field {
    const char* name;
    const char* help;
    MetricType type;
    double (*get)(const ResultCacheStats&);
  };
  static constexpr Field kFields[] = {
      {"srs_result_cache_hits_total", "Result-cache lookups that hit",
       MetricType::kCounter,
       [](const ResultCacheStats& s) { return static_cast<double>(s.hits); }},
      {"srs_result_cache_misses_total", "Result-cache lookups that missed",
       MetricType::kCounter,
       [](const ResultCacheStats& s) {
         return static_cast<double>(s.misses);
       }},
      {"srs_result_cache_insertions_total", "Result-cache entries stored",
       MetricType::kCounter,
       [](const ResultCacheStats& s) {
         return static_cast<double>(s.insertions);
       }},
      {"srs_result_cache_evictions_total",
       "Result-cache entries dropped for capacity", MetricType::kCounter,
       [](const ResultCacheStats& s) {
         return static_cast<double>(s.evictions);
       }},
      {"srs_result_cache_entries", "Result-cache entries currently held",
       MetricType::kGauge,
       [](const ResultCacheStats& s) {
         return static_cast<double>(s.entries);
       }},
      {"srs_result_cache_bytes", "Result-cache bytes currently charged",
       MetricType::kGauge,
       [](const ResultCacheStats& s) {
         return static_cast<double>(s.bytes);
       }},
  };
  for (const Field& field : kFields) {
    metrics_.Add(reg, field.name, field.help, field.type, {},
                 [this, get = field.get] { return get(Stats()); });
  }
  metrics_.Add(reg, "srs_result_cache_capacity_bytes",
               "Result-cache configured byte budget", MetricType::kGauge, {},
               [this] { return static_cast<double>(capacity_bytes()); });
}

}  // namespace srs
