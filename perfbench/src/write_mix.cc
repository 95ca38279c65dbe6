// write_mix: in-process, over a mid-size MakeAncestorLargeDag, default
// service options (answer cache on). Two closed-loop readers send zipfian
// seeds through the handle tier; beside them one writer applies
// single-edge insert or retract batches through QueryService::ApplyWrites
// on a fixed schedule. Every write net-changes par, so it clones the
// relation, publishes a version and retires every cached answer; some of
// the edges change answers. Reads and writes share the storage and cache
// layers here. The cache keeps superseded versions' entries until its
// budget evicts them, so read throughput falls as a run goes on; the
// per-round rates in read_qps's note show it.
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using namespace magic;

namespace {

constexpr int kFacts = 8'192;
constexpr int kNodes = kFacts / 8;
constexpr int kSpan = 16;
// The region the readers and the writer touch: the last kWindow nodes
// before the tail node, plus the tail node.
constexpr int kWindow = 96;
constexpr int kRegionBegin = kNodes - 1 - kWindow;
constexpr int kRegion = kWindow + 1;
// Seeds: region nodes 1..kSeeds, i.e. 95 down to 32 nodes from the tail.
// A seed k nodes from the tail derives O(k^2) facts; the band keeps every
// re-derivation within a factor of nine of the others.
constexpr int kSeeds = 64;
// Zipf rank r reads seed (r * kRankStride) % kSeeds: a fixed spread of the
// popular seeds over the band, the same for every run seed.
constexpr int kRankStride = 13;
// Fresh constants some written edges point at: linking node c to one adds
// it to the answers of every seed that reaches c.
constexpr int kFresh = 16;
constexpr int kReaders = 2;
// Writes per second: each one invalidates every cached answer, so most
// reads re-derive (the hit ratio stays far below the median), and a run
// holds enough writes for a p99 with ten samples beyond it.
constexpr double kWriteRate = 100.0;
// Untimed seconds of reads and writes before the timed phase.
constexpr double kWarmSeconds = 1.0;

struct Setup {
  Served served;
  std::vector<TermId> node_term;  // region nodes, then the fresh nodes
  double seconds = 0;
};

Setup BuildOnce(uint64_t seed) {
  Setup s;
  const auto start = Clock::now();
  s.served.w = std::make_unique<Workload>(MakeAncestorLargeDag(
      kNodes, kFacts, kSpan, static_cast<uint32_t>(SubSeed(seed, 1))));
  s.served.gen_s = SecondsSince(start);
  const auto untimed = Clock::now();
  Universe& universe = *s.served.w->universe;
  for (int i = 0; i < kRegion; ++i) {
    s.node_term.push_back(
        universe.Constant("c" + std::to_string(kRegionBegin + i)));
  }
  for (int j = 0; j < kFresh; ++j) {
    s.node_term.push_back(universe.Constant("x" + std::to_string(j)));
  }
  const double untimed_s = SecondsSince(untimed);

  Serve(&s.served, s.node_term[kWindow]);
  // Warm the answer cache with every seed the readers draw from.
  for (int i = 1; i <= kSeeds; ++i) {
    (void)s.served.service->Answer(s.served.handle,
                                   {s.node_term[static_cast<size_t>(i)]});
  }
  s.seconds = SecondsSince(start) - untimed_s;
  return s;
}

struct ReadKeyHash {
  size_t operator()(const WindowedRead& k) const {
    return Mix64(k.digest.sum ^ (k.digest.rows << 48) ^
                 (uint64_t{k.a} << 32) ^ (uint64_t{k.b} << 8) ^
                 static_cast<uint64_t>(k.seed));
  }
};

/// One reader's record of its reads: a latency, a round and a key index
/// per read, plus the distinct keys (identical reads share one). kFailedRead marks a read the service
/// failed.
struct ReaderLog {
  static constexpr uint32_t kFailedRead = UINT32_MAX;
  std::vector<float> ms;
  std::vector<uint8_t> round;
  std::vector<uint32_t> key;
  std::vector<WindowedRead> keys;
  std::unordered_map<WindowedRead, uint32_t, ReadKeyHash> index;
  std::vector<EvalRecord> evals;

  ReaderLog() {
    // Reserved, not touched: pages are only resident once written, so the
    // log adds to peak RSS in proportion to the reads made, without the
    // jumps that growing by doubling would add.
    ms.reserve(size_t{8} << 20);
    round.reserve(size_t{8} << 20);
    key.reserve(size_t{8} << 20);
  }

  void Add(double read_ms, int read_round, bool ok, const WindowedRead& k) {
    ms.push_back(static_cast<float>(read_ms));
    round.push_back(static_cast<uint8_t>(read_round));
    if (!ok) {
      key.push_back(kFailedRead);
      return;
    }
    auto [it, fresh] =
        index.emplace(k, static_cast<uint32_t>(keys.size()));
    if (fresh) keys.push_back(k);
    key.push_back(it->second);
  }
};

}  // namespace

RunResult RunWriteMix(const Options& opt) {
  RunResult result;
  std::vector<double> setup_s;
  std::optional<Setup> holder;
  Setup& s = SetUpRepeatedly(
      opt.setups, [&] { return BuildOnce(opt.seed); }, &holder, &setup_s);
  QueryService& service = *s.served.service;
  const Workload& w = *s.served.w;
  const PredId par = ParPredicate(w);

  // Oracle state 0: the region's edges as loaded.
  const std::vector<TermId> region(s.node_term.begin(),
                                   s.node_term.begin() + kRegion);
  const Graph graph = RegionGraph(ParRelation(w), region, kFresh);

  // Inputs from the seed: the edges the writer toggles (and, below, the
  // zipf draws and the writer's choices). Links to fresh nodes change
  // answers; backbone edges may; extra forward edges never do (the
  // backbone already connects their ends) but still publish a version.
  Rng input_rng(SubSeed(opt.seed, 3));
  std::vector<int> rank_to_node;
  for (int r = 0; r < kSeeds; ++r) {
    rank_to_node.push_back(1 + (r * kRankStride) % kSeeds);
  }
  std::vector<Edge> candidates;
  for (int j = 0; j < kFresh; ++j) {
    candidates.push_back(
        Edge{static_cast<int>(input_rng.Below(kRegion)), kRegion + j});
  }
  for (int k = 0; k < 8; ++k) {
    const int from = static_cast<int>(input_rng.Below(kWindow));
    candidates.push_back(Edge{from, from + 1});
  }
  while (candidates.size() < kFresh + 8 + 16) {
    const int from = static_cast<int>(input_rng.Below(kWindow - 2));
    const int to = std::min(kWindow, from + 2 + static_cast<int>(
                                                    input_rng.Below(kSpan - 1)));
    if (!graph.HasEdge(from, to)) candidates.push_back(Edge{from, to});
  }
  // One candidate per edge: the writer tracks each candidate's presence.
  std::sort(candidates.begin(), candidates.end(),
            [](const Edge& x, const Edge& y) {
              return std::tie(x.from, x.to) < std::tie(y.from, y.to);
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Edge& x, const Edge& y) {
                                 return x.from == y.from && x.to == y.to;
                               }),
                   candidates.end());
  std::vector<uint64_t> row_key(s.node_term.begin(), s.node_term.end());
  const Zipf zipf(kSeeds);

  const bool trace = opt.trace;
  std::vector<SpanLog> reader_spans;
  for (int r = 0; r < kReaders; ++r) reader_spans.emplace_back(trace);
  SpanLog writer_spans(trace);
  std::vector<ReaderLog> reads(kReaders);
  std::vector<Edge> write_log;  // the edge write k+1 toggled ({-1, -1}: none)
  std::vector<Sample> writes;
  std::vector<double> apply_ms;
  std::vector<double> late_ms;
  size_t versions_live_max = 0;
  std::atomic<uint32_t> writes_begun{0};
  std::atomic<uint32_t> writes_acked{0};

  // Readers and writer run an untimed warm phase first, then the timed
  // phase; only the timed phase is recorded, but the oracle steps through
  // every write.
  const auto start = Clock::now();
  const auto timed_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kWarmSeconds));
  const auto end = timed_start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(opt.seconds));
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(SubSeed(opt.seed, 10 + static_cast<uint64_t>(r)));
      SpanLog& spans = reader_spans[static_cast<size_t>(r)];
      uint64_t request = 0;
      ReaderLog& log = reads[static_cast<size_t>(r)];
      while (Clock::now() < end) {
        WindowedRead k;
        k.seed = rank_to_node[zipf.Draw(rng)];
        k.a = writes_acked.load(std::memory_order_acquire);
        const int64_t t0 = spans.enabled() ? SpanLog::NowNs() : 0;
        const auto send = Clock::now();
        QueryAnswer answer =
            service
                .Submit(s.served.handle,
                        {s.node_term[static_cast<size_t>(k.seed)]})
                .get();
        const auto done = Clock::now();
        k.b = writes_begun.load(std::memory_order_acquire);
        const double ms = MsBetween(send, done);
        for (const auto& tuple : answer.tuples) k.digest.Add(tuple[0]);
        ++request;
        if (send < timed_start) continue;
        // Cache-served reads take microseconds and number in the millions:
        // they are counted, not spanned.
        if (!answer.from_cache) {
          spans.Add("engine.submit", request, t0,
                    spans.enabled() ? SpanLog::NowNs() : 0);
          log.evals.push_back(EvalRecord{ms, answer.eval_stats});
        }
        log.Add(ms, Round(MsBetween(timed_start, send) / 1e3, opt.seconds),
                answer.status.ok(), k);
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(SubSeed(opt.seed, 4));
    std::vector<bool> present;
    for (const Edge& e : candidates) present.push_back(graph.HasEdge(e.from, e.to));
    for (uint64_t k = 0;; ++k) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(k) / kWriteRate));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const auto begin = Clock::now();
      const bool timed = due >= timed_start;
      const int round = Round(MsBetween(timed_start, due) / 1e3, opt.seconds);
      if (begin >= end) {  // fell so far behind that the run is over
        writes.push_back(Sample{MsBetween(due, begin), true, round});
        continue;
      }
      if (timed) late_ms.push_back(MsBetween(due, begin));
      const size_t pick = rng.Below(candidates.size());
      const Edge& e = candidates[pick];
      WriteBatch batch;
      const std::vector<TermId> tuple = {
          s.node_term[static_cast<size_t>(e.from)],
          s.node_term[static_cast<size_t>(e.to)]};
      if (present[pick]) {
        batch.Retract(par, tuple);
      } else {
        batch.Insert(par, tuple);
      }
      writes_begun.fetch_add(1, std::memory_order_acq_rel);
      const int64_t t0 = writer_spans.enabled() ? SpanLog::NowNs() : 0;
      Result<WriteResult> written = service.ApplyWrites(batch);
      const auto acked = Clock::now();
      writes_acked.fetch_add(1, std::memory_order_acq_rel);
      writer_spans.Add("storage.apply_writes", k, t0,
                       writer_spans.enabled() ? SpanLog::NowNs() : 0);
      const bool toggled =
          written.ok() && written->inserted + written->retracted == 1;
      if (toggled) present[pick] = !present[pick];
      write_log.push_back(toggled ? e : Edge{-1, -1});
      if (!timed) continue;
      writes.push_back(Sample{MsBetween(due, acked), !toggled, round});
      apply_ms.push_back(MsBetween(begin, acked));
      if (trace) {
        versions_live_max =
            std::max(versions_live_max, VersionsLive(service));
      }
    }
  });
  std::this_thread::sleep_until(timed_start);
  const QueryService::Stats before = service.stats();
  for (std::thread& t : threads) t.join();
  const double elapsed = SecondsSince(timed_start);
  const QueryService::Stats after = service.stats();

  // Check every distinct read against the EDB states it could legally
  // have seen.
  std::vector<const WindowedRead*> distinct;
  for (const ReaderLog& log : reads) {
    for (const WindowedRead& k : log.keys) distinct.push_back(&k);
  }
  const std::unordered_set<const WindowedRead*> wrong =
      WrongReads(graph, write_log, distinct, row_key);

  std::vector<Sample> read_samples;
  std::vector<uint64_t> reads_per_round(kRounds);
  std::vector<EvalRecord> all_evals;
  for (const ReaderLog& log : reads) {
    for (size_t i = 0; i < log.ms.size(); ++i) {
      const uint32_t key = log.key[i];
      const bool bad = key != ReaderLog::kFailedRead && wrong.count(&log.keys[key]);
      result.wrong += bad ? 1 : 0;
      read_samples.push_back(Sample{log.ms[i],
                                    bad || key == ReaderLog::kFailedRead,
                                    log.round[i]});
      ++reads_per_round[log.round[i]];
    }
    all_evals.insert(all_evals.end(), log.evals.begin(), log.evals.end());
  }
  result.attempted = read_samples.size() + writes.size();
  for (const Sample& x : read_samples) result.failed += x.failed ? 1 : 0;
  for (const Sample& x : writes) result.failed += x.failed ? 1 : 0;
  result.correct = result.wrong == 0;

  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  ReportReadRate(reads_per_round, elapsed, "", &result);
  ReportPercentiles("read", read_samples, {50, 90, 99}, &result);
  ReportPercentiles("write", writes, {50, 99}, &result);
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");

  if (trace) {
    ReportEval(all_evals, &result);
    ReportServiceDelta(Diff(before, after), &result);
    const std::vector<Sample> apply = AsSamples(apply_ms);
    result.Set("storage.apply_p50_ms", Quantile(apply, 0.50), "ms",
               apply.size());
    result.Set("storage.apply_p99_ms", Quantile(apply, 0.99), "ms",
               apply.size());
    result.Set("storage.versions_live_max",
               static_cast<double>(versions_live_max), "count");
    result.Set("loadgen.late_p99_ms", Quantile(AsSamples(late_ms), 0.99), "ms",
               late_ms.size());
    result.Set("engine.prepare_ms", s.served.prepare_ms, "ms");
    result.Set("core.rewrite_ms", RewriteMs(), "ms");
    result.Set("storage.first_probe_s", s.served.first_probe_s, "s");
    result.Set("workload.gen_s", s.served.gen_s, "s");
    result.Set("storage.load_s", LoadSeconds(ParRelation(w)), "s");
    FillIdleLayers(&result);
    if (!opt.spans_path.empty()) {
      std::vector<const SpanLog*> logs = {&writer_spans};
      for (const SpanLog& log : reader_spans) logs.push_back(&log);
      WriteSpans(opt.spans_path, logs);
    }
  }
  return result;
}

}  // namespace perfbench
