#pragma once

/// \file snapshot_file.h
/// \brief Mmap-friendly on-disk format for one graph version's serving
/// state.
///
/// A snapshot file freezes everything the serving stack needs to answer
/// queries at one version of a graph chain: the CSR adjacency (both
/// directions, plus labels), the four normalized transition matrices
/// Q / Qᵀ / W / Wᵀ **post-normalization**, and the per-row |value| sums
/// behind the analytic gammas. Loading is therefore zero-parse and
/// zero-renormalize: the reader mmaps the file, verifies per-section
/// CRC-32C checksums, and bulk-copies fixed-width little-endian arrays
/// straight into `CsrMatrix::FromSortedRows` / `Graph::FromCsr` — no
/// edge-list parsing, no O(m log m) rebuild, no floating-point work beyond
/// a max over the stored row sums (the writer computes them from the
/// matrices it writes; snapshots keep only the gammas). Every double is
/// stored bit-exact, so a recovered process serves byte-identical answers
/// (the recovery contract storage/data_dir.h builds on).
///
/// Layout (all integers little-endian, payloads 64-byte aligned):
///
///     [SnapshotFileHeader]        fixed-size, CRC over its own bytes
///     [SectionEntry × N]          id, offset, size, CRC-32C of payload
///     [padding to 64]
///     [section payloads...]       raw arrays, each padded to 64
///
/// Writes are atomic: the writer streams to `path.tmp`, fsyncs, renames
/// over `path`, and fsyncs the directory — a reader never observes a
/// half-written snapshot, and a crash mid-write leaves the previous file
/// intact (a stale `.tmp` is ignored and overwritten next time).

#include <cstdint>
#include <memory>
#include <string>

#include "srs/common/result.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/graph.h"

namespace srs {

/// Identity and content of a loaded snapshot file.
struct SnapshotFileData {
  /// Structural fingerprint of the chain's version-0 graph.
  uint64_t base_fingerprint = 0;
  /// Version ordinal this snapshot materializes.
  uint64_t version = 0;
  /// Version fingerprint at `version` (0 iff version 0).
  uint64_t version_fingerprint = 0;
  /// Parent version's fingerprint (0 and meaningless at version 0).
  uint64_t parent_fingerprint = 0;

  /// The materialized graph at `version` (labels preserved).
  Graph graph;

  /// The serving snapshot at `version`: patch-free overlays over the
  /// stored matrices, gammas (and their row counts) re-maxed from the
  /// stored row sums.
  /// `delta_touched` is intentionally empty — a freshly recovered process
  /// has no result-cache entries to invalidate.
  std::shared_ptr<const GraphSnapshot> snapshot;
};

/// Serializes `graph` (the materialized graph behind `snapshot`) and
/// `snapshot` to `path` atomically (tmp + fsync + rename + dir fsync).
/// Overlays are compacted on write, which is bit-preserving, so the file
/// stores plain CSR regardless of how the snapshot was derived.
Status WriteSnapshotFile(const std::string& path, const Graph& graph,
                         const GraphSnapshot& snapshot);

/// Loads `path`, verifying the header and every section checksum.
/// IoError names the problem on any corruption (bad magic, wrong
/// endianness, CRC mismatch, inconsistent shapes) or read failure.
Result<SnapshotFileData> ReadSnapshotFile(const std::string& path);

}  // namespace srs
