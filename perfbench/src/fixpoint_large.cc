// fixpoint_large: one client in a closed loop on the handle tier over the
// 10^6-fact MakeAncestorLargeDag, default service options. Seeds never
// repeat within a run, so the answer cache is bypassed by the traffic
// itself; eval, storage index probes and answer collection do the work.
#include <memory>
#include <optional>

#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using namespace magic;

namespace {

constexpr int kFacts = 1'000'000;
constexpr int kNodes = kFacts / 8;
constexpr int kSpan = 16;
// Seeds come from the last kWindow nodes before the tail node: a seed k
// nodes from the tail derives O(k^2) facts, so the window bounds the work
// per read while the EDB stays 10^6 facts.
constexpr int kWindow = 640;
// Step of the seed order through the window: coprime to kWindow (so every
// node is visited once per lap) and near kWindow / golden ratio, so any
// prefix of the order spreads evenly over the window and runs of any length
// see the same mix.
constexpr int kStep = 397;
// Untimed reads before the timed phase (allocator and caches warm up),
// taken from the far end of the seed order so no timed seed repeats them.
constexpr int kWarmReads = 16;
constexpr int kRegionBegin = kNodes - 1 - kWindow;

struct Setup {
  Served served;
  std::vector<TermId> node_term;  // TermId of c<i>, for the window region
  double seconds = 0;
};

Setup BuildOnce(uint64_t seed) {
  Setup s;
  const auto start = Clock::now();
  s.served.w = std::make_unique<Workload>(MakeAncestorLargeDag(
      kNodes, kFacts, kSpan, static_cast<uint32_t>(SubSeed(seed, 1))));
  s.served.gen_s = SecondsSince(start);
  // Untimed: names the oracle needs, interned before the service freezes
  // the universe.
  const auto untimed = Clock::now();
  s.node_term.resize(kWindow + 1);
  for (int i = 0; i <= kWindow; ++i) {
    s.node_term[static_cast<size_t>(i)] =
        s.served.w->universe->Constant("c" + std::to_string(kRegionBegin + i));
  }
  const double untimed_s = SecondsSince(untimed);
  // The tail node has no successors, so the first query pays the
  // million-row index build and nothing else.
  Serve(&s.served, s.node_term.back());
  s.seconds = SecondsSince(start) - untimed_s;
  return s;
}

}  // namespace

RunResult RunFixpointLarge(const Options& opt) {
  RunResult result;
  std::vector<double> setup_s;
  std::optional<Setup> holder;
  Setup& s = SetUpRepeatedly(
      opt.setups, [&] { return BuildOnce(opt.seed); }, &holder, &setup_s);
  QueryService& service = *s.served.service;

  // Oracle, before timing: reachability over the window region's edges.
  const Graph graph = RegionGraph(ParRelation(*s.served.w), s.node_term);
  std::vector<uint64_t> row_key(s.node_term.begin(), s.node_term.end());
  Rng order_rng(SubSeed(opt.seed, 2));
  const int offset = static_cast<int>(order_rng.Below(kWindow));
  std::vector<int> order;
  std::vector<Digest> expected;
  for (int j = 0; j < kWindow; ++j) {
    const int node = (offset + j * kStep) % kWindow;
    order.push_back(node);
    expected.push_back(ExpectedDigest(graph, node, row_key));
  }

  for (int j = 0; j < kWarmReads; ++j) {
    const int node = order[static_cast<size_t>(kWindow - 1 - j)];
    (void)service
        .Submit(s.served.handle, {s.node_term[static_cast<size_t>(node)]})
        .get();
  }
  order.resize(kWindow - kWarmReads);

  SpanLog spans(opt.trace);
  const QueryService::Stats before = service.stats();
  std::vector<Sample> reads;
  std::vector<double> read_offset_s;
  std::vector<EvalRecord> evals;
  std::vector<Digest> got;
  reads.reserve(kWindow);
  got.reserve(kWindow);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opt.seconds));
  size_t issued = 0;
  while (Clock::now() < end && issued < order.size()) {
    const TermId seed_term =
        s.node_term[static_cast<size_t>(order[issued])];
    const int64_t t0 = spans.enabled() ? SpanLog::NowNs() : 0;
    const auto send = Clock::now();
    QueryAnswer answer = service.Submit(s.served.handle, {seed_term}).get();
    const auto done = Clock::now();
    spans.Add("engine.submit", issued, t0,
              spans.enabled() ? SpanLog::NowNs() : 0);
    const double ms = MsBetween(send, done);
    reads.push_back(Sample{ms, !answer.status.ok()});
    read_offset_s.push_back(MsBetween(start, send) / 1e3);
    if (!answer.from_cache) evals.push_back(EvalRecord{ms, answer.eval_stats});
    Digest digest;
    for (const auto& tuple : answer.tuples) digest.Add(tuple[0]);
    got.push_back(digest);
    ++issued;
  }
  const double read_seconds = SecondsSince(start);
  std::vector<uint64_t> per_round(kRounds);
  for (size_t i = 0; i < reads.size(); ++i) {
    reads[i].round = Round(read_offset_s[i], read_seconds);
    ++per_round[static_cast<size_t>(reads[i].round)];
  }
  const QueryService::Stats after = service.stats();
  // Read right after the read phase, which is all this workload runs.
  const double peak_rss_mb = PeakRssMb();

  // Check every read, outside the timed region.
  for (size_t i = 0; i < got.size(); ++i) {
    if (!reads[i].failed && !(got[i] == expected[i])) {
      reads[i].failed = true;
      ++result.wrong;
    }
  }
  result.attempted = reads.size();
  for (const Sample& r : reads) result.failed += r.failed ? 1 : 0;
  result.correct = result.wrong == 0;

  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  ReportReadRate(per_round, read_seconds,
                 issued == order.size() ? "seed window exhausted before --seconds"
                                        : "",
                 &result);
  ReportPercentiles("read", reads, {50, 90, 99}, &result);
  ReportNoWrites(&result);
  result.Set("peak_rss_mb", peak_rss_mb, "MiB");

  if (opt.trace) {
    ReportEval(evals, &result);
    ReportServiceDelta(Diff(before, after), &result);
    result.Set("storage.versions_live_max",
               static_cast<double>(VersionsLive(service)), "count");
    result.Set("engine.prepare_ms", s.served.prepare_ms, "ms");
    result.Set("core.rewrite_ms", RewriteMs(), "ms");
    result.Set("storage.first_probe_s", s.served.first_probe_s, "s");
    result.Set("workload.gen_s", s.served.gen_s, "s");
    result.Set("storage.load_s", LoadSeconds(ParRelation(*s.served.w)), "s");
    // Closed loop, no writes: no schedule to run late against.
    FillIdleLayers(&result);
    if (!opt.spans_path.empty()) WriteSpans(opt.spans_path, {&spans});
  }
  return result;
}

}  // namespace perfbench
