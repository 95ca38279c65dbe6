// wire_zipf: an open-loop schedule at one fixed rate over 4 loopback
// connections to an in-process net::MagicServer running default service
// options (answer cache on, warmed before timing). Seeds are zipfian over
// the 256-node ancestor chain; most requests are QUERY and a fixed share
// are STREAM. The net layer, dispatch and the cache-hit path do the work.
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using namespace magic;

namespace {

constexpr int kChain = 256;
constexpr int kConnections = 4;
constexpr double kRate = 1000.0;       // requests per second
constexpr double kTimeoutMs = 100.0;   // client-side, from the due time
constexpr double kStreamShare = 0.10;
constexpr int kRankStride = 97;

enum class Kind : uint8_t { kQuery, kStream };
enum class Outcome : uint8_t { kOk, kDropped, kLate, kTransport, kBadReply };

/// One scheduled request and what became of it.
struct Request {
  Kind kind = Kind::kQuery;
  uint16_t node = 0;
  Outcome outcome = Outcome::kDropped;
  float ms = 0;       // due -> reply (or -> given up)
  float call_ms = 0;  // send -> reply
  float late_ms = 0;  // due -> send
  uint32_t bytes = 0;
  uint32_t frames = 0;
  Digest digest;
};

struct Connection {
  net::MagicClient client;
  double prepare_ms = 0;
};

constexpr const char* kPrepare = "PREPARE q anc(c0, Y)";

bool Open(const net::MagicServer& server, Connection* conn) {
  Result<net::MagicClient> client =
      net::MagicClient::Connect(server.host(), server.port());
  if (!client.ok()) return false;
  conn->client = std::move(*client);
  const auto start = Clock::now();
  Result<net::MagicClient::Reply> reply = conn->client.Call(kPrepare);
  conn->prepare_ms = MsBetween(start, Clock::now());
  return reply.ok() && reply->ok();
}

/// Bounds every blocking read on the connection, so no reply can hold a
/// client past the end of the run.
void SetReadTimeout(const net::MagicClient& client, Clock::time_point until) {
  const double ms = std::max(1.0, MsBetween(Clock::now(), until));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>(
      (ms - static_cast<double>(tv.tv_sec) * 1000) * 1000);
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

size_t FrameBytes(const net::MagicClient::Reply& reply) {
  size_t bytes = 4 + std::strlen(WireCodeName(reply.code));
  if (!reply.head.empty()) bytes += 1 + reply.head.size();
  for (const std::string& line : reply.lines) bytes += 1 + line.size();
  return bytes;
}

// Members are destroyed in reverse order: connections, then the server,
// then the service and the workload it serves.
struct Setup {
  Served served;
  std::unique_ptr<net::MagicServer> server;
  std::vector<Connection> connections;
  std::vector<EvalRecord> warm_evals;
  double seconds = 0;
  bool ok = true;
};

Setup BuildOnce() {
  Setup s;
  const auto start = Clock::now();
  s.served.w = std::make_unique<Workload>(MakeAncestorChain(kChain));
  s.served.gen_s = SecondsSince(start);
  const auto untimed = Clock::now();
  std::vector<TermId> node_term;
  for (int i = 0; i < kChain; ++i) {
    node_term.push_back(
        s.served.w->universe->Constant("c" + std::to_string(i)));
  }
  const double untimed_s = SecondsSince(untimed);

  Serve(&s.served, node_term.back());
  // Warm the answer cache: every seed the schedule can draw, evaluated
  // once. These are the only fixpoints this workload runs.
  for (int i = 0; i < kChain; ++i) {
    const auto t0 = Clock::now();
    QueryAnswer answer = s.served.service->Answer(
        s.served.handle, {node_term[static_cast<size_t>(i)]});
    if (!answer.from_cache) {
      s.warm_evals.push_back(
          EvalRecord{MsBetween(t0, Clock::now()), answer.eval_stats});
    }
  }
  s.server = std::make_unique<net::MagicServer>(
      s.served.w->universe, s.served.w->program, s.served.service.get());
  if (!s.server->Start().ok()) s.ok = false;
  s.connections.resize(kConnections);
  for (Connection& conn : s.connections) {
    if (s.ok && !Open(*s.server, &conn)) s.ok = false;
  }
  s.seconds = SecondsSince(start) - untimed_s;
  return s;
}

}  // namespace

RunResult RunWireZipf(const Options& opt) {
  RunResult result;
  std::vector<double> setup_s;
  std::optional<Setup> holder;
  Setup& s = SetUpRepeatedly(
      opt.setups, [] { return BuildOnce(); }, &holder, &setup_s);
  if (!s.ok) {
    std::fprintf(stderr, "perfbench: wire_zipf set-up failed\n");
    result.correct = false;
    return result;
  }
  QueryService& service = *s.served.service;

  // Inputs from the seed, and the oracle's answers, before timing.
  // Zipf rank r reads node (r * kRankStride) % kChain: a fixed spread of
  // the popular seeds over the chain (answer sizes 0..255), the same for
  // every run seed; the seed drives the draws.
  Rng input_rng(SubSeed(opt.seed, 3));
  std::vector<int> rank_to_node;
  for (int r = 0; r < kChain; ++r) {
    rank_to_node.push_back((r * kRankStride) % kChain);
  }
  const Zipf zipf(kChain);
  const size_t total =
      static_cast<size_t>(std::max(1.0, std::floor(kRate * opt.seconds)));
  std::vector<Request> requests(total);
  for (Request& req : requests) {
    req.kind = input_rng.Uniform() < kStreamShare ? Kind::kStream
                                                   : Kind::kQuery;
    req.node = static_cast<uint16_t>(rank_to_node[zipf.Draw(input_rng)]);
  }
  Graph chain(kChain);
  std::vector<uint64_t> row_key;
  for (int i = 0; i < kChain; ++i) {
    if (i + 1 < kChain) chain.AddEdge(i, i + 1);
    row_key.push_back(Fnv1a("c" + std::to_string(i)));
  }
  std::vector<Digest> expected;
  for (int i = 0; i < kChain; ++i) {
    expected.push_back(ExpectedDigest(chain, i, row_key));
  }

  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kTimeoutMs));
  std::vector<SpanLog> spans;
  for (int k = 0; k < kConnections; ++k) spans.emplace_back(opt.trace);
  std::atomic<size_t> next{0};
  const QueryService::Stats before = service.stats();
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto schedule_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  const auto hard_end = schedule_end + timeout;
  std::vector<std::thread> threads;
  for (int k = 0; k < kConnections; ++k) {
    threads.emplace_back([&, k] {
      Connection& conn = s.connections[static_cast<size_t>(k)];
      SpanLog& log = spans[static_cast<size_t>(k)];
      bool connected = true;
      for (size_t i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
        Request& req = requests[i];
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         static_cast<double>(i) / kRate));
        std::this_thread::sleep_until(due);
        auto now = Clock::now();
        if (now > due + timeout) {  // already past its deadline: never sent
          req.outcome = Outcome::kDropped;
          req.ms = static_cast<float>(MsBetween(due, now));
          continue;
        }
        if (!connected) connected = Open(*s.server, &conn);
        if (!connected) {
          req.outcome = Outcome::kTransport;
          req.ms = static_cast<float>(MsBetween(due, Clock::now()));
          continue;
        }
        SetReadTimeout(conn.client, hard_end);
        req.late_ms = static_cast<float>(MsBetween(due, now));
        const int64_t t0 = log.enabled() ? SpanLog::NowNs() : 0;
        const auto send = Clock::now();
        Result<net::MagicClient::Reply> reply = Status::Internal("unsent");
        const char* span = "net.call";
        if (req.kind == Kind::kStream) {
          span = "net.stream";
          const std::string text = "STREAM q c" + std::to_string(req.node);
          req.bytes = static_cast<uint32_t>(4 + text.size());
          reply = conn.client.Stream(text, [&](const std::string& row) {
            req.digest.Add(Fnv1a(row));
            req.bytes += static_cast<uint32_t>(5 + row.size());
            ++req.frames;
            return Clock::now() < hard_end;
          });
        } else {
          const std::string text = "QUERY q c" + std::to_string(req.node);
          req.bytes = static_cast<uint32_t>(4 + text.size());
          reply = conn.client.Call(text);
        }
        const auto done = Clock::now();
        log.Add(span, i, t0, log.enabled() ? SpanLog::NowNs() : 0);
        req.ms = static_cast<float>(MsBetween(due, done));
        req.call_ms = static_cast<float>(MsBetween(send, done));
        if (!reply.ok() || !conn.client.connected()) {
          req.outcome = Outcome::kTransport;
          connected = false;
          continue;
        }
        ++req.frames;
        req.bytes += static_cast<uint32_t>(FrameBytes(*reply));
        if (req.kind == Kind::kQuery) {
          for (const std::string& line : reply->lines) {
            req.digest.Add(Fnv1a(line));
          }
        }
        req.outcome = !reply->ok()           ? Outcome::kBadReply
                      : done > due + timeout ? Outcome::kLate
                                             : Outcome::kOk;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = SecondsSince(start);
  const QueryService::Stats after = service.stats();

  // Check every answered read against the oracle, after the timed region.
  // A late answer still has to be right.
  std::vector<Sample> reads;
  std::vector<double> call_ms;
  std::vector<double> late_ms;
  size_t answered = 0;
  std::vector<uint64_t> answered_per_round(kRounds);
  size_t dropped = 0;
  size_t late = 0;
  uint64_t read_bytes = 0;
  uint64_t stream_frames = 0;
  size_t streams = 0;
  for (Request& req : requests) {
    if (req.outcome == Outcome::kOk || req.outcome == Outcome::kLate) {
      if (!(req.digest == expected[req.node])) {
        req.outcome = Outcome::kBadReply;
        ++result.wrong;
      } else {
        ++answered;
        ++answered_per_round[static_cast<size_t>(
            Round(static_cast<double>(&req - requests.data()) / kRate,
                  opt.seconds))];
        read_bytes += req.bytes;
        if (req.kind == Kind::kStream) {
          stream_frames += req.frames;
          ++streams;
        }
      }
    }
    dropped += req.outcome == Outcome::kDropped ? 1 : 0;
    late += req.outcome == Outcome::kLate ? 1 : 0;
    const bool failed = req.outcome != Outcome::kOk;
    const int round = Round(
        static_cast<double>(&req - requests.data()) / kRate, opt.seconds);
    reads.push_back(Sample{req.ms, failed, round});
    if (req.outcome != Outcome::kDropped && req.outcome != Outcome::kTransport) {
      call_ms.push_back(req.call_ms);
      late_ms.push_back(req.late_ms);
    }
    result.failed += failed ? 1 : 0;
  }
  result.attempted = total;
  result.correct = result.wrong == 0;

  result.Set("setup_s", Median(setup_s), "s", setup_s.size());
  ReportReadRate(answered_per_round, elapsed,
                 "answered on time or late; " + std::to_string(dropped) +
                     " dropped unsent, " + std::to_string(late) +
                     " answered after the timeout",
                 &result);
  ReportPercentiles("read", reads, {50, 90, 99}, &result);
  ReportNoWrites(&result);
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");

  if (opt.trace) {
    const StatsDelta delta = Diff(before, after);
    ReportEval(s.warm_evals, &result);
    ReportServiceDelta(delta, &result);
    const std::vector<Sample> calls = AsSamples(call_ms);
    const double call_p50 = Quantile(calls, 0.50);
    const double server_p50 = delta.request_latency.Quantile(0.5) / 1e6;
    result.Set("net.call_p50_ms", call_p50, "ms", calls.size());
    result.Set("net.call_p99_ms", Quantile(calls, 0.99), "ms", calls.size());
    result.Set("net.server_p50_ms", server_p50, "ms",
               delta.request_latency.count);
    result.Set("net.wire_share", call_p50 > 0 ? 1.0 - server_p50 / call_p50 : 0,
               "ratio", calls.size());
    result.Set("net.bytes_per_read",
               answered > 0 ? static_cast<double>(read_bytes) /
                                  static_cast<double>(answered)
                            : 0.0,
               "B", answered);
    result.Set("net.frames_per_stream",
               streams > 0 ? static_cast<double>(stream_frames) /
                                 static_cast<double>(streams)
                           : 0.0,
               "count", streams);
    std::vector<double> prepare_ms;
    for (const Connection& conn : s.connections) {
      prepare_ms.push_back(conn.prepare_ms);
    }
    result.Set("net.prepare_ms", Median(prepare_ms), "ms", prepare_ms.size());
    result.Set("storage.versions_live_max",
               static_cast<double>(VersionsLive(service)), "count");
    result.Set("loadgen.late_p99_ms", Quantile(AsSamples(late_ms), 0.99), "ms",
               late_ms.size());
    result.Set("engine.prepare_ms", s.served.prepare_ms, "ms");
    result.Set("core.rewrite_ms", RewriteMs(), "ms");
    result.Set("storage.first_probe_s", s.served.first_probe_s, "s");
    result.Set("workload.gen_s", s.served.gen_s, "s");
    result.Set("storage.load_s", LoadSeconds(ParRelation(*s.served.w)), "s");
    FillIdleLayers(&result);
    if (!opt.spans_path.empty()) {
      std::vector<const SpanLog*> logs;
      for (const SpanLog& log : spans) logs.push_back(&log);
      WriteSpans(opt.spans_path, logs);
    }
  }
  return result;
}

}  // namespace perfbench
