#pragma once

/// \file delta_invalidation.h
/// \brief Delta-aware ResultCache propagation across one snapshot version.
///
/// Applying an EdgeDelta used to mean discarding every cached result — the
/// version fingerprint in the result digest makes pre-delta entries
/// unreachable for post-delta queries. But most of them are still *right*:
/// a single-source score row ŝ(q, ·) is a function of the transition rows
/// within the series' level horizon K of q, so an edge change farther than
/// K hops from q provably cannot alter a single bit of the row (the
/// provenance-skipping idea of incremental view maintenance, applied to
/// the level recurrence).
///
/// `PropagateResultCacheAcrossDelta` computes the **affected set** — every
/// node within K undirected hops of a changed transition row, over the
/// *union* of the parent's and the child's structure (so both deleted and
/// inserted edges block survival) — with the same frontier-expansion
/// machinery the sparse kernel backend scatters with: level-at-a-time
/// frontiers over the snapshots' `q`/`qt` overlay rows. Cached full rows
/// of unaffected sources are rekeyed to the child version **bit-intact**;
/// affected ones are evicted. The BFS runs under no cache shard lock, and
/// it records a distance for every node it reaches, so an entry cached
/// while it runs is decided as exactly as the rest.
///
/// The pass pays for the BFS only when it has something to carry: with no
/// full row cached under the parent's digests (a cache of top-k entries,
/// or of rows under other options) it labels no node and returns after
/// one O(cache entries) scan, independent of n.
///
/// Soundness and non-vacuity are property-tested in
/// tests/delta_invalidation_test.cpp: after propagation, every cache-served
/// answer equals the cold rebuild bitwise, and deltas farther than the
/// horizon from the queried sources leave survivors. The same file pins
/// the skip and every decision against a reference BFS.
///
/// Top-k entries (options.top_k > 0) are *not* carried across versions:
/// their encoded termination diagnostics depend on the snapshot's residual
/// tails (row-sum gammas), which a delta can change even for sources whose
/// scores don't. They simply age out under the parent's digest.

#include <cstdint>

#include "srs/common/result.h"
#include "srs/core/options.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/snapshot.h"

namespace srs {

/// Outcome of one cross-delta propagation pass.
struct DeltaInvalidationStats {
  size_t retained = 0;  ///< entries rekeyed to the child version, bit-intact
  size_t evicted = 0;   ///< entries dropped as possibly affected
  int64_t affected_sources = 0;  ///< nodes within the max horizon (0: BFS skipped)
  int max_horizon = 0;  ///< largest level horizon across the measures
};

/// Propagates `cache` across the delta step `parent` → `child` (child must
/// be the direct successor: same chain fingerprint, version + 1, matching
/// parent fingerprint — InvalidArgument otherwise). Full-row entries under
/// `options`' digests for all three measures are rekeyed when their source
/// is farther than the measure's level horizon from every changed row, and
/// evicted otherwise. `options` must be the SimilarityOptions the serving
/// engines were created with (the full-row engines' normalization of the
/// top-k knobs is applied internally).
Result<DeltaInvalidationStats> PropagateResultCacheAcrossDelta(
    ResultCache* cache, const GraphSnapshot& parent,
    const GraphSnapshot& child, const SimilarityOptions& options);

}  // namespace srs
