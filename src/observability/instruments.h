#pragma once

/// \file instruments.h
/// \brief The catalog of shared instruments in the global registry.
///
/// Registration is the registry's slow path; these accessors do it once
/// per process (function-local static caches the pointer) so hot paths
/// pay only the record itself. Keeping the catalog in one file also pins
/// the metric names, help strings, and bucket choices in one reviewable
/// place — README.md's "Observability" table mirrors this file.
///
/// Only *event-style* data lives here (latencies, sizes, levels): things
/// no component stats struct already counts. Components with their own
/// internally consistent stats (ResultCache, AdmissionQueue, SrsService,
/// DurableStore recovery) register polled closures instead — see their
/// RegisterMetrics methods.

#include <string_view>

#include "srs/observability/metrics.h"

namespace srs {

// --- engines ---------------------------------------------------------------

/// `srs_query_batch_seconds{shape=...}`: wall time of one merged batch
/// through the engine, by query shape ("full", "ranked", "allpairs").
Histogram* QueryBatchSecondsHistogram(std::string_view shape);

/// `srs_query_batch_sources{shape=...}`: distinct source nodes per merged
/// batch.
Histogram* QueryBatchSourcesHistogram(std::string_view shape);

/// `srs_topk_termination_levels`: series levels evaluated before a top-k
/// query terminated (cache-served answers are not recorded).
Histogram* TopKTerminationLevelsHistogram();

/// `srs_topk_levels_evaluated_total` / `srs_topk_levels_possible_total`:
/// the early-termination tally `--stats` reports (evaluated / possible).
Counter* TopKLevelsEvaluatedCounter();
Counter* TopKLevelsPossibleCounter();

// --- sparse kernels --------------------------------------------------------

/// `srs_frontier_size`: nonzeros in a sparse propagation frontier, one
/// observation per level-propagation.
Histogram* FrontierSizeHistogram();

/// `srs_sieve_dropped_total`: entries the threshold sieve pruned out of
/// touched frontiers.
Counter* SieveDroppedCounter();

/// `srs_frontier_densified_total`: propagations that crossed the density
/// threshold and fell back to the dense path.
Counter* FrontierDensifiedCounter();

// --- serving ---------------------------------------------------------------

/// `srs_admission_wait_seconds`: Submit() to batch pop, per request.
Histogram* AdmissionWaitSecondsHistogram();

/// `srs_batch_entries`: requests merged per dispatched batch.
Histogram* BatchEntriesHistogram();

/// `srs_request_seconds`: Submit() to response ready, per request.
Histogram* RequestSecondsHistogram();

/// `srs_delta_stage_seconds{stage=...}`: wall time of one SrsService::
/// ApplyDelta stage — "wal" (validate + append + fsync), "apply"
/// (VersionedGraph::Apply), "derive" (child snapshot), "propagate"
/// (result-cache carry-over) and "checkpoint" (snapshot file + WAL reset,
/// only when one is written).
Histogram* DeltaStageSecondsHistogram(std::string_view stage);

// --- storage ---------------------------------------------------------------

/// `srs_wal_append_seconds`: fsync-inclusive wall time of one LogDelta.
Histogram* WalAppendSecondsHistogram();

/// `srs_checkpoint_seconds`: wall time of one WriteCheckpoint.
Histogram* CheckpointSecondsHistogram();

/// `srs_recovery_replayed_records_total`: WAL records replayed across all
/// recoveries this process ran.
Counter* RecoveryReplayedRecordsCounter();

// --- process ---------------------------------------------------------------

/// Registers process-level polled gauges into `registry` (the global one
/// when null): `srs_process_resident_bytes`,
/// `srs_process_peak_resident_bytes`. Idempotent (re-registration
/// replaces).
void RegisterProcessMemoryMetrics(MetricsRegistry* registry = nullptr);

}  // namespace srs
