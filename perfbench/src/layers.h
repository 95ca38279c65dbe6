// Measurements of single layers, taken from outside them: around calls to
// their public functions, or from the counters the public API returns.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/query_service.h"
#include "oracle.h"
#include "workload/generators.h"

namespace perfbench {

/// What a workload run is asked to do (from the command line).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// How many times set-up is repeated; setup_s is their median.
  int setups = 5;
  /// Where a traced run writes its spans (empty: nowhere).
  std::string spans_path;
};

/// Median wall time (ms) of the core rewrite entries for the served form,
/// anc(c, Y) under supplementary magic sets with the full sip: parse,
/// Adorn, then SupplementaryMagicRewrite, on a private Universe.
double RewriteMs();

/// Wall time (s) of loading `rel`'s rows into a fresh relation one insert
/// at a time: the storage layer's cost of building the EDB.
double LoadSeconds(const magic::Relation& rel);

/// The par relation of an ancestor workload, and its predicate.
const magic::Relation& ParRelation(const magic::Workload& w);
magic::PredId ParPredicate(const magic::Workload& w);

/// An ancestor workload served by a QueryService with the anc(c, Y) form
/// prepared, and what each set-up step cost.
struct Served {
  std::unique_ptr<magic::Workload> w;
  std::unique_ptr<magic::QueryService> service;
  magic::QueryService::FormHandle handle;
  double gen_s = 0;          // the generator call
  double prepare_ms = 0;     // QueryService::Prepare
  double first_probe_s = 0;  // the first query, which builds the par index
};

/// Starts serving `s->w`: builds the service with default options,
/// prepares the form and answers anc(probe, Y) once. Fills prepare_ms and
/// first_probe_s.
void Serve(Served* s, magic::TermId probe);

/// Sets up `setups` times (at least once), each time releasing the previous
/// set-up before calling `build`, and returns the last one; the seconds
/// each took (the `seconds` member) are appended to `*setup_s`.
template <typename Setup, typename Build>
Setup& SetUpRepeatedly(int setups, Build build, std::optional<Setup>* s,
                       std::vector<double>* setup_s) {
  for (int i = 0; i < std::max(1, setups); ++i) {
    s->reset();
    s->emplace(build());
    setup_s->push_back((*s)->seconds);
  }
  return **s;
}

/// The oracle graph of a region of an ancestor DAG: node i stands for
/// `region[i]`, and every par edge leaving a region node becomes an edge.
/// The region must be closed under par (a tail of the DAG); `extra` more
/// nodes follow it, unconnected.
Graph RegionGraph(const magic::Relation& par,
                  const std::vector<magic::TermId>& region, int extra = 0);

/// Differences between two QueryService::Stats snapshots: what the timed
/// phase of a run did.
struct StatsDelta {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t coalesced = 0;
  uint64_t evictions = 0;
  uint64_t versions_published = 0;
  magic::obs::HistogramSnapshot request_latency;
  magic::obs::HistogramSnapshot write_publish;
  magic::obs::HistogramSnapshot inline_latency;
};
StatsDelta Diff(const magic::QueryService::Stats& before,
                const magic::QueryService::Stats& after);

/// Sets read_qps from the reads counted in each round of a phase lasting
/// `phase_s` seconds (RoundRate); the note lists every round's rate.
void ReportReadRate(const std::vector<uint64_t>& counts, double phase_s,
                    const std::string& note, RunResult* result);

/// Versions alive right now: published minus retired.
size_t VersionsLive(const magic::QueryService& service);

/// One evaluated (not cache-served) read, as the engine reported it.
struct EvalRecord {
  double wall_ms = 0;  // Submit -> answer ready, measured by the caller
  magic::EvalStats stats;
};

/// Fills the eval.* and engine.outside_fixpoint_p50_ms metrics.
void ReportEval(const std::vector<EvalRecord>& evals, RunResult* result);

/// Fills the cache.* and storage.{publish_p99_ms,versions_published}
/// metrics.
void ReportServiceDelta(const StatsDelta& delta, RunResult* result);

/// Reports write_p50_ms and write_p99_ms as 0 over no samples, for a
/// workload that makes no writes.
void ReportNoWrites(RunResult* result);

/// Fills every per-layer metric a workload does not exercise with 0 and a
/// note, so each traced run reports the same names.
void FillIdleLayers(RunResult* result);

/// Reports samples as <prefix>_p<p>_ms for each p in `which` (RoundQuantile),
/// with the sample count and whether the percentile has at least ten
/// samples beyond it.
void ReportPercentiles(const std::string& prefix,
                       const std::vector<Sample>& samples,
                       const std::vector<int>& which, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
