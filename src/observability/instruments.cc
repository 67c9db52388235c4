#include "srs/observability/instruments.h"

#include <string>
#include <vector>

#include "srs/common/macros.h"
#include "srs/common/memory_tracker.h"

namespace srs {

namespace {

/// The per-shape families pre-register every shape so a static per-call
/// cache stays a plain pointer (shape strings are the three literals the
/// engines pass).
struct ShapeFamily {
  Histogram* full;
  Histogram* ranked;
  Histogram* allpairs;

  Histogram* For(std::string_view shape) const {
    if (shape == "ranked") return ranked;
    if (shape == "allpairs") return allpairs;
    return full;
  }
};

ShapeFamily MakeShapeFamily(std::string_view name, std::string_view help,
                            std::vector<double> (*bounds)()) {
  MetricsRegistry& reg = GlobalMetrics();
  ShapeFamily fam;
  fam.full = reg.GetHistogram(name, help, bounds(), {{"shape", "full"}});
  fam.ranked = reg.GetHistogram(name, help, bounds(), {{"shape", "ranked"}});
  fam.allpairs =
      reg.GetHistogram(name, help, bounds(), {{"shape", "allpairs"}});
  return fam;
}

}  // namespace

Histogram* QueryBatchSecondsHistogram(std::string_view shape) {
  static const ShapeFamily fam = MakeShapeFamily(
      "srs_query_batch_seconds",
      "Wall time of one merged query batch through the engine",
      &LatencyBucketsSeconds);
  return fam.For(shape);
}

Histogram* QueryBatchSourcesHistogram(std::string_view shape) {
  static const ShapeFamily fam = MakeShapeFamily(
      "srs_query_batch_sources",
      "Distinct source nodes computed per merged batch", &CountBuckets);
  return fam.For(shape);
}

Histogram* DeltaStageSecondsHistogram(std::string_view stage) {
  static constexpr std::string_view kStages[] = {"wal", "apply", "derive",
                                                 "propagate", "checkpoint"};
  static const std::vector<Histogram*> fam = [] {
    std::vector<Histogram*> by_stage;
    for (std::string_view name : kStages) {
      by_stage.push_back(GlobalMetrics().GetHistogram(
          "srs_delta_stage_seconds", "Wall time of one ApplyDelta stage",
          LatencyBucketsSeconds(), {{"stage", std::string(name)}}));
    }
    return by_stage;
  }();
  for (size_t i = 0; i < fam.size(); ++i) {
    if (stage == kStages[i]) return fam[i];
  }
  SRS_CHECK(false) << "unknown delta stage " << stage;
  return nullptr;
}

Histogram* TopKTerminationLevelsHistogram() {
  static Histogram* h = GlobalMetrics().GetHistogram(
      "srs_topk_termination_levels",
      "Series levels evaluated before a top-k query terminated",
      LevelBuckets());
  return h;
}

Counter* TopKLevelsEvaluatedCounter() {
  static Counter* c = GlobalMetrics().GetCounter(
      "srs_topk_levels_evaluated_total",
      "Series levels actually evaluated by top-k queries");
  return c;
}

Counter* TopKLevelsPossibleCounter() {
  static Counter* c = GlobalMetrics().GetCounter(
      "srs_topk_levels_possible_total",
      "Series levels top-k queries would have evaluated without early "
      "termination");
  return c;
}

Histogram* FrontierSizeHistogram() {
  static Histogram* h = GlobalMetrics().GetHistogram(
      "srs_frontier_size",
      "Nonzeros per sparse propagation frontier", CountBuckets());
  return h;
}

Counter* SieveDroppedCounter() {
  static Counter* c = GlobalMetrics().GetCounter(
      "srs_sieve_dropped_total",
      "Frontier entries pruned by the threshold sieve");
  return c;
}

Counter* FrontierDensifiedCounter() {
  static Counter* c = GlobalMetrics().GetCounter(
      "srs_frontier_densified_total",
      "Sparse propagations that fell back to the dense path");
  return c;
}

Histogram* AdmissionWaitSecondsHistogram() {
  static Histogram* h = GlobalMetrics().GetHistogram(
      "srs_admission_wait_seconds",
      "Queue wait from request submit to batch pop",
      LatencyBucketsSeconds());
  return h;
}

Histogram* BatchEntriesHistogram() {
  static Histogram* h = GlobalMetrics().GetHistogram(
      "srs_batch_entries", "Requests merged per dispatched batch",
      CountBuckets());
  return h;
}

Histogram* RequestSecondsHistogram() {
  static Histogram* h = GlobalMetrics().GetHistogram(
      "srs_request_seconds",
      "End-to-end request latency from submit to response ready",
      LatencyBucketsSeconds());
  return h;
}

Histogram* WalAppendSecondsHistogram() {
  static Histogram* h = GlobalMetrics().GetHistogram(
      "srs_wal_append_seconds",
      "Fsync-inclusive wall time of one WAL delta append",
      LatencyBucketsSeconds());
  return h;
}

Histogram* CheckpointSecondsHistogram() {
  static Histogram* h = GlobalMetrics().GetHistogram(
      "srs_checkpoint_seconds", "Wall time of one snapshot checkpoint",
      LatencyBucketsSeconds());
  return h;
}

Counter* RecoveryReplayedRecordsCounter() {
  static Counter* c = GlobalMetrics().GetCounter(
      "srs_recovery_replayed_records_total",
      "WAL records replayed during recovery");
  return c;
}

void RegisterProcessMemoryMetrics(MetricsRegistry* registry) {
  MetricsRegistry& reg = registry != nullptr ? *registry : GlobalMetrics();
  // Deliberately leaked registrations: process-lifetime facts with no
  // owning component (the closures capture nothing that can dangle).
  reg.RegisterPolled(
      "srs_process_resident_bytes", "Current resident set size",
      MetricType::kGauge, {},
      [] { return static_cast<double>(ProcessCurrentRssBytes()); });
  reg.RegisterPolled(
      "srs_process_peak_resident_bytes", "Peak resident set size",
      MetricType::kGauge, {},
      [] { return static_cast<double>(ProcessPeakRssBytes()); });
}

}  // namespace srs
