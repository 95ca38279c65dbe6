#include "layers.h"

#include <memory>
#include <unordered_map>

#include "ast/parser.h"
#include "core/adorn.h"
#include "core/sip_strategies.h"
#include "core/supplementary.h"

namespace perfbench {

using namespace magic;

double RewriteMs() {
  constexpr const char* kText =
      "anc(X,Y) :- par(X,Y).\n"
      "anc(X,Y) :- par(X,Z), anc(Z,Y).\n"
      "?- anc(c0, Y).\n";
  std::vector<double> ms;
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    Result<ParsedUnit> parsed = ParseUnit(kText);
    if (!parsed.ok() || !parsed->query.has_value()) return 0.0;
    std::unique_ptr<SipStrategy> sip = MakeSipStrategy("full");
    Result<AdornedProgram> adorned =
        Adorn(parsed->program, *parsed->query, *sip);
    if (!adorned.ok()) return 0.0;
    Result<RewrittenProgram> rewritten = SupplementaryMagicRewrite(*adorned);
    if (!rewritten.ok()) return 0.0;
    ms.push_back(MsBetween(start, Clock::now()));
  }
  return Median(ms);
}

double LoadSeconds(const Relation& rel) {
  const auto start = Clock::now();
  Relation fresh(rel.arity());
  for (size_t row = 0; row < rel.size(); ++row) fresh.Insert(rel.Row(row));
  return SecondsSince(start);
}

const Relation& ParRelation(const Workload& w) {
  return *w.db.relations().at(ParPredicate(w));
}

PredId ParPredicate(const Workload& w) {
  for (const auto& [pred, rel] : w.db.relations()) {
    if (rel->arity() == 2) return pred;
  }
  std::abort();  // every ancestor workload has par/2
}

void Serve(Served* s, TermId probe) {
  s->service = std::make_unique<QueryService>(s->w->program, s->w->db);
  const auto prepare = Clock::now();
  QueryRequest exemplar;
  exemplar.query = s->w->query;
  Result<QueryService::FormHandle> handle = s->service->Prepare(exemplar);
  if (!handle.ok()) std::abort();
  s->handle = *handle;
  s->prepare_ms = MsBetween(prepare, Clock::now());
  const auto first = Clock::now();
  (void)s->service->Answer(s->handle, {probe});
  s->first_probe_s = SecondsSince(first);
}

Graph RegionGraph(const Relation& par, const std::vector<TermId>& region,
                  int extra) {
  Graph graph(static_cast<int>(region.size()) + extra);
  std::unordered_map<TermId, int> index;
  for (size_t i = 0; i < region.size(); ++i) {
    index[region[i]] = static_cast<int>(i);
  }
  for (size_t row = 0; row < par.size(); ++row) {
    std::span<const TermId> edge = par.Row(row);
    auto from = index.find(edge[0]);
    if (from == index.end()) continue;
    auto to = index.find(edge[1]);
    if (to == index.end()) std::abort();  // the region is not a tail
    graph.AddEdge(from->second, to->second);
  }
  return graph;
}

namespace {

obs::HistogramSnapshot Minus(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot out = after;
  out.count -= std::min(out.count, before.count);
  out.sum -= std::min(out.sum, before.sum);
  for (size_t i = 0; i < out.buckets.size(); ++i) {
    out.buckets[i] -= std::min(out.buckets[i], before.buckets[i]);
  }
  return out;
}

obs::HistogramSnapshot InlineLatency(const QueryService::Stats& stats) {
  obs::HistogramSnapshot all;
  for (const auto& form : stats.forms) all.Merge(form.inline_latency);
  return all;
}

}  // namespace

StatsDelta Diff(const QueryService::Stats& before,
                const QueryService::Stats& after) {
  StatsDelta d;
  d.cache_hits = after.answer_cache.hits - before.answer_cache.hits;
  d.cache_misses = after.answer_cache.misses - before.answer_cache.misses;
  d.coalesced = after.coalesced - before.coalesced;
  d.evictions = after.answer_cache.evictions - before.answer_cache.evictions;
  d.versions_published = after.versions_published - before.versions_published;
  d.request_latency = Minus(after.request_latency, before.request_latency);
  d.write_publish = Minus(after.write_publish, before.write_publish);
  d.inline_latency = Minus(InlineLatency(after), InlineLatency(before));
  return d;
}

void ReportReadRate(const std::vector<uint64_t>& counts, double phase_s,
                    const std::string& note, RunResult* result) {
  uint64_t total = 0;
  std::string rates;
  for (uint64_t count : counts) {
    total += count;
    rates += " " + std::to_string(
                       static_cast<uint64_t>(count / (phase_s / kRounds)));
  }
  bool per_round = false;
  const double rate = RoundRate(counts, phase_s, &per_round);
  result->Set("read_qps", rate, "1/s", total,
              std::string(per_round ? "median of" : "pooled over") +
                  " rounds at" + rates + (note.empty() ? "" : "; ") + note);
}

size_t VersionsLive(const QueryService& service) {
  const QueryService::Stats stats = service.stats();
  return stats.versions_published - stats.versions_retired;
}

void ReportEval(const std::vector<EvalRecord>& evals, RunResult* result) {
  std::vector<double> fixpoint_ms;
  std::vector<double> outside_ms;
  double seconds = 0;
  uint64_t new_facts = 0;
  uint64_t probes = 0;
  uint64_t duplicates = 0;
  uint64_t firings = 0;
  for (const EvalRecord& e : evals) {
    fixpoint_ms.push_back(e.stats.seconds * 1e3);
    outside_ms.push_back(e.wall_ms - e.stats.seconds * 1e3);
    seconds += e.stats.seconds;
    new_facts += e.stats.new_facts;
    probes += e.stats.join_probes;
    duplicates += e.stats.duplicate_facts;
    firings += e.stats.rule_firings;
  }
  const size_t n = evals.size();
  const std::vector<Sample> fixpoint = AsSamples(fixpoint_ms);
  result->Set("eval.fixpoint_p50_ms", Quantile(fixpoint, 0.50), "ms", n);
  result->Set("eval.fixpoint_p90_ms", Quantile(fixpoint, 0.90), "ms", n);
  result->Set("eval.facts_per_s",
              seconds > 0 ? static_cast<double>(new_facts) / seconds : 0.0,
              "1/s", n);
  const double reads = n > 0 ? static_cast<double>(n) : 1.0;
  result->Set("eval.new_facts_per_read", static_cast<double>(new_facts) / reads,
              "count", n);
  result->Set("eval.probes_per_read", static_cast<double>(probes) / reads,
              "count", n);
  result->Set("eval.dup_ratio",
              firings > 0 ? static_cast<double>(duplicates) /
                                static_cast<double>(firings)
                          : 0.0,
              "ratio", n);
  result->Set("engine.outside_fixpoint_p50_ms",
              Quantile(AsSamples(outside_ms), 0.50), "ms", n);
}

void ReportServiceDelta(const StatsDelta& d, RunResult* result) {
  const uint64_t lookups = d.cache_hits + d.cache_misses;
  result->Set("cache.hit_ratio",
              lookups > 0 ? static_cast<double>(d.cache_hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio", lookups);
  result->Set("cache.inline_p50_ms", d.inline_latency.Quantile(0.5) / 1e6,
              "ms", d.inline_latency.count);
  result->Set("cache.coalesced", static_cast<double>(d.coalesced), "count");
  result->Set("cache.evictions", static_cast<double>(d.evictions), "count");
  result->Set("storage.publish_p99_ms", d.write_publish.Quantile(0.99) / 1e6,
              "ms", d.write_publish.count);
  result->Set("storage.versions_published",
              static_cast<double>(d.versions_published), "count");
}

void ReportNoWrites(RunResult* result) {
  for (const char* name : {"write_p50_ms", "write_p99_ms"}) {
    result->Set(name, 0.0, "ms", 0, "not exercised: this workload writes nothing");
  }
}

void FillIdleLayers(RunResult* result) {
  static const std::pair<const char*, const char*> kAll[] = {
      {"net.call_p50_ms", "ms"},
      {"net.call_p99_ms", "ms"},
      {"net.server_p50_ms", "ms"},
      {"net.wire_share", "ratio"},
      {"net.bytes_per_read", "B"},
      {"net.frames_per_stream", "count"},
      {"net.prepare_ms", "ms"},
      {"storage.apply_p50_ms", "ms"},
      {"storage.apply_p99_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
  };
  for (const auto& [name, unit] : kAll) {
    if (result->metrics.count(name) == 0) {
      result->Set(name, 0.0, unit, 0, "layer not exercised by this workload");
    }
  }
}

void ReportPercentiles(const std::string& prefix,
                       const std::vector<Sample>& samples,
                       const std::vector<int>& which, RunResult* result) {
  for (int p : which) {
    const double q = p / 100.0;
    bool per_round = false;
    const double value = RoundQuantile(samples, q, &per_round);
    std::string note = per_round ? "median of " + std::to_string(kRounds) +
                                       " rounds"
                                 : "all rounds pooled";
    if (SamplesBeyond(samples.size(), q) < 10) {
      const double tail = SupportedTail(samples.size());
      note += tail > 0 ? "; fewer than 10 samples beyond, the highest "
                         "percentile with 10 beyond is p" +
                             std::to_string(tail * 100).substr(0, 4)
                       : "; fewer than 10 samples beyond any percentile";
    }
    result->Set(prefix + "_p" + std::to_string(p) + "_ms", value, "ms",
                samples.size(), note);
  }
}

}  // namespace perfbench
