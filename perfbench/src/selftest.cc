// Self-tests of the benchmark's own machinery: the percentile rule, the
// determinism of seeded inputs, and the oracle, including its check of
// reads made beside writes. Exits 0 when all pass.
//
//   perfbench_selftest
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "layers.h"
#include "oracle.h"
#include "workload/generators.h"

namespace {

using namespace perfbench;

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void PercentileRule() {
  std::vector<Sample> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(Sample{double(i), false});
  std::vector<Sample> ranked = RankOrder(samples);
  Check(Quantile(ranked, 0.50) == 500, "p50 of 1..1000 is 500");
  Check(Quantile(ranked, 0.99) == 990, "p99 of 1..1000 is 990");
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Check(SupportedTail(1000) == 0.99, "1000 samples support p99");
  Check(SupportedTail(999) == 0.95, "999 samples support p95, not p99");
  Check(SupportedTail(100) == 0.90, "100 samples support p90");
  Check(SupportedTail(19) == 0.0, "19 samples support no percentile");

  // A failure ranks after every success, however fast it failed.
  samples = {{5, false}, {1, true}, {3, false}, {2, false}};
  ranked = RankOrder(samples);
  Check(ranked.back().failed && ranked.back().ms == 1,
        "a failed sample ranks last");
  Check(Quantile(ranked, 0.75) == 5, "p75 skips over the failure");
  Check(Quantile(ranked, 1.0) == 1, "p100 is the failure");
  Check(Quantile({}, 0.5) == 0, "no samples: 0");
}

std::vector<size_t> ZipfDraws(uint64_t seed) {
  Rng rng(SubSeed(seed, 3));
  const Zipf zipf(256);
  std::vector<size_t> draws;
  for (int i = 0; i < 1000; ++i) draws.push_back(zipf.Draw(rng));
  return draws;
}

std::vector<magic::TermId> DagRows(uint64_t seed) {
  magic::Workload w = magic::MakeAncestorLargeDag(
      1000, 8000, 16, static_cast<uint32_t>(SubSeed(seed, 1)));
  const magic::Relation& par = ParRelation(w);
  std::vector<magic::TermId> rows;
  for (size_t row = 0; row < par.size(); ++row) {
    for (magic::TermId term : par.Row(row)) rows.push_back(term);
  }
  return rows;
}

void SeededInputs() {
  Check(ZipfDraws(7) == ZipfDraws(7), "same seed, same zipf draws");
  Check(ZipfDraws(7) != ZipfDraws(8), "other seed, other zipf draws");
  std::vector<size_t> draws = ZipfDraws(7);
  size_t top = 0;
  for (size_t d : draws) top += d == 0 ? 1 : 0;
  Check(top > 100 && top < 250, "zipf rank 0 takes about 1/H(256) of draws");
  Check(DagRows(7) == DagRows(7), "same seed, same DAG");
  Check(DagRows(7) != DagRows(8), "other seed, other DAG");
}

void Oracle() {
  Graph chain(8);
  for (int i = 0; i + 1 < 8; ++i) chain.AddEdge(i, i + 1);
  std::vector<uint64_t> key;
  for (int i = 0; i < 8; ++i) key.push_back(Fnv1a("c" + std::to_string(i)));
  const Digest expected = ExpectedDigest(chain, 2, key);
  Digest right;
  for (int i = 3; i < 8; ++i) right.Add(key[static_cast<size_t>(i)]);
  Check(right == expected, "oracle accepts the right answer");
  Digest wrong;
  for (int i = 3; i < 7; ++i) wrong.Add(key[static_cast<size_t>(i)]);
  wrong.Add(key[1]);  // one injected wrong tuple in place of c7
  Check(!(wrong == expected), "oracle rejects one injected wrong tuple");
  Digest missing;
  for (int i = 3; i < 7; ++i) missing.Add(key[static_cast<size_t>(i)]);
  Check(!(missing == expected), "oracle rejects a missing tuple");
  Digest extra = right;
  extra.Add(key[0]);
  Check(!(extra == expected), "oracle rejects an extra tuple");

  // Stepping through EDB states: retracting c4 -> c5 cuts c5.. from c2.
  chain.Toggle(4, 5);
  Digest cut;
  for (int i = 3; i < 5; ++i) cut.Add(key[static_cast<size_t>(i)]);
  Check(ExpectedDigest(chain, 2, key) == cut, "oracle follows a retraction");
  chain.Toggle(4, 5);
  Check(ExpectedDigest(chain, 2, key) == expected,
        "oracle follows the re-insertion");
}

// The legal-window pass of reads made beside writes. State 0 is the chain
// c0 -> .. -> c7; write 1 retracts c4 -> c5, write 2 re-inserts it, write 3
// retracts c2 -> c3. Reads of anc(c2, Y) that saw state 1 ({c3, c4}) are
// legal only in windows that hold state 1.
void OracleWindows() {
  Graph chain(8);
  for (int i = 0; i + 1 < 8; ++i) chain.AddEdge(i, i + 1);
  std::vector<uint64_t> key;
  for (int i = 0; i < 8; ++i) key.push_back(Fnv1a("c" + std::to_string(i)));
  const std::vector<Edge> writes = {{4, 5}, {4, 5}, {2, 3}};
  Digest state1;
  state1.Add(key[3]);
  state1.Add(key[4]);
  Digest state0 = state1;
  for (int i = 5; i < 8; ++i) state0.Add(key[static_cast<size_t>(i)]);
  const Digest state3;  // c2 reaches nothing

  auto judged_wrong = [&](const WindowedRead& read,
                          const std::vector<Edge>& log) {
    return WrongReads(chain, log, {&read}, key).count(&read) == 1;
  };
  Check(!judged_wrong({state1, 1, 1, 2}, writes),
        "window [1,1] accepts the state-1 answer");
  Check(!judged_wrong({state1, 0, 2, 2}, writes),
        "window [0,2] accepts the state-1 answer");
  Check(judged_wrong({state1, 2, 3, 2}, writes),
        "window [2,3] rejects an answer legal only before it");
  Check(judged_wrong({state1, 0, 0, 2}, writes),
        "window [0,0] rejects an answer legal only after it");
  Check(!judged_wrong({state3, 3, 3, 2}, writes),
        "window [3,3] accepts the empty state-3 answer");
  Check(judged_wrong({state0, 1, 1, 2}, writes),
        "window [1,1] rejects the state-0 answer");
  Check(!judged_wrong({state0, 1, 1, 2}, {{-1, -1}, {4, 5}, {4, 5}}),
        "a write that changed nothing leaves the state as it was");
  Digest injected = state1;
  injected.Add(key[6]);
  Check(judged_wrong({injected, 0, 3, 2}, writes),
        "an injected wrong tuple matches no state of any window");
}

}  // namespace

int main() {
  PercentileRule();
  SeededInputs();
  Oracle();
  OracleWindows();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
