// Shared pieces of the perfbench load generator: deterministic inputs, the
// percentile rule, answer digests, the in-memory span log, and the result
// record every workload fills in.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// SplitMix64: the one generator every input of a run is drawn from, so the
/// same --seed gives the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives an independent stream for one input of a run (DAG, zipf draw,
/// STREAM share, writer edges) from the run seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001b3ULL + stream);
  return rng.Next();
}

/// Zipf(s = 1) over n items: item 0 is the most popular.
class Zipf {
 public:
  explicit Zipf(size_t n) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = total;
    }
    for (double& value : cdf_) value /= total;
  }
  size_t Draw(Rng& rng) const {
    const double u = rng.Uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                            cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// --- the percentile rule ------------------------------------------------

/// One timed operation. A failed operation (refused, timed out, wrong
/// answer) ranks after every successful one, whatever its time. `round`
/// is the fifth of the timed phase the operation started in (see Round).
struct Sample {
  double ms = 0;
  bool failed = false;
  int round = 0;
};

/// Samples in rank order: successes by time, then failures by time.
inline std::vector<Sample> RankOrder(std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              if (a.failed != b.failed) return !a.failed;
              return a.ms < b.ms;
            });
  return samples;
}

/// Nearest-rank quantile (0 < q <= 1) of rank-ordered samples: the value
/// at rank ceil(q * n). 0 when there are no samples.
inline double Quantile(const std::vector<Sample>& ranked, double q) {
  if (ranked.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(ranked.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, ranked.size());
  return ranked[rank - 1].ms;
}

/// Number of samples ranked strictly beyond quantile q.
inline size_t SamplesBeyond(size_t n, double q) {
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
  return n >= rank ? n - rank : 0;
}

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that has at least
/// ten samples beyond it; 0 when even the median has fewer.
inline double SupportedTail(size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (SamplesBeyond(n, q) >= 10) return q;
  }
  return 0.0;
}

// --- rounds ---------------------------------------------------------------
//
// A timed phase is cut into kRounds equal rounds, and an end-to-end metric
// over operations numerous enough (kRoundMinOps in every round) is the
// median of its per-round values: a few seconds of interference from
// outside the process move one round, not the result. Fewer operations
// per round, and a round's value depends on which ones it drew, so those
// metrics pool all rounds.

constexpr int kRounds = 5;
constexpr size_t kRoundMinOps = 1000;

/// The round of an operation that started `offset_s` seconds into a timed
/// phase lasting `phase_s` seconds.
inline int Round(double offset_s, double phase_s) {
  const int round = static_cast<int>(offset_s / phase_s * kRounds);
  return std::clamp(round, 0, kRounds - 1);
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Quantile q of `samples`: the median over rounds of each round's
/// quantile when every round holds kRoundMinOps samples and ten beyond q,
/// else the quantile of all samples pooled. `*per_round` says which.
inline double RoundQuantile(const std::vector<Sample>& samples, double q,
                            bool* per_round) {
  std::vector<std::vector<Sample>> rounds(kRounds);
  for (const Sample& sample : samples) {
    rounds[static_cast<size_t>(sample.round)].push_back(sample);
  }
  *per_round = true;
  for (const auto& round : rounds) {
    if (round.size() < kRoundMinOps || SamplesBeyond(round.size(), q) < 10) {
      *per_round = false;
    }
  }
  if (!*per_round) return Quantile(RankOrder(samples), q);
  std::vector<double> values;
  for (auto& round : rounds) {
    values.push_back(Quantile(RankOrder(std::move(round)), q));
  }
  return Median(values);
}

/// Operations per second from per-round counts of a phase lasting
/// `phase_s` seconds: the median over rounds when every round holds
/// kRoundMinOps operations, else the pooled rate. `*per_round` says which.
inline double RoundRate(const std::vector<uint64_t>& counts, double phase_s,
                        bool* per_round) {
  std::vector<double> rates;
  uint64_t total = 0;
  *per_round = true;
  for (uint64_t count : counts) {
    rates.push_back(static_cast<double>(count) / (phase_s / kRounds));
    total += count;
    if (count < kRoundMinOps) *per_round = false;
  }
  return *per_round ? Median(rates) : static_cast<double>(total) / phase_s;
}

// --- answer digests -----------------------------------------------------

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

inline uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Order-independent digest of an answer set: the row count plus the
/// wrapping sum of mixed row keys. Equal sets give equal digests; one
/// wrong, missing or extra row changes it.
struct Digest {
  uint64_t sum = 0;
  uint64_t rows = 0;
  void Add(uint64_t row_key) {
    sum += Mix64(row_key);
    ++rows;
  }
  bool operator==(const Digest&) const = default;
};

// --- spans --------------------------------------------------------------

/// One call into a layer, recorded from the benchmark's side of the call,
/// which makes every span a root. `request` identifies the operation it
/// belongs to within its log.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span log: appended without locks by its owning thread, kept
/// in memory, written out once when the run ends. A disabled log records
/// nothing and reads no clock.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 14);
  }
  bool enabled() const { return enabled_; }
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  void Add(const char* name, uint64_t request, int64_t start_ns,
           int64_t end_ns) {
    if (enabled_) spans_.push_back(Span{name, request, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Writes every span of `logs` as one JSON object per line.
inline bool WriteSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   "{\"log\":%zu,\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i, s.name, static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

inline std::vector<Sample> AsSamples(const std::vector<double>& ms) {
  std::vector<Sample> out;
  out.reserve(ms.size());
  for (double v : ms) out.push_back(Sample{v, false});
  return RankOrder(std::move(out));
}

// --- the result record --------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  /// Sample count behind the value (0 for values that are not statistics
  /// over operations, e.g. a peak or a ratio of counters).
  size_t samples = 0;
  std::string note;
};

/// What one workload run reports: the operation tallies and every metric
/// it measured, by name.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0, const std::string& note = "") {
    metrics[name] = Metric{value, unit, samples, note};
  }
};

/// The process's peak resident set (VmHWM), in MiB.
inline double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb / 1024.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
