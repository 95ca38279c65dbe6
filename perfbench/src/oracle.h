// The answer oracle: plain reachability over an edge list. For the
// ancestor program anc(X,Y) :- par(X,Y). anc(X,Y) :- par(X,Z), anc(Z,Y).
// the answers to anc(c, Y) are exactly the nodes reachable from c by one
// or more par edges, which is what semi-naive evaluation derives on the
// same EDB (Drabent, arXiv:1012.2299). Every read a workload makes is
// checked against this, after its timed region.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.h"

namespace perfbench {

/// A directed graph over nodes 0..n-1 whose edges can be toggled, so one
/// graph can step through a sequence of EDB states.
class Graph {
 public:
  explicit Graph(int nodes) : out_(static_cast<size_t>(nodes)) {}

  int size() const { return static_cast<int>(out_.size()); }

  bool HasEdge(int a, int b) const {
    const std::vector<int>& succ = out_[static_cast<size_t>(a)];
    return std::find(succ.begin(), succ.end(), b) != succ.end();
  }
  /// Inserts a -> b; false if it was already present.
  bool AddEdge(int a, int b) {
    if (HasEdge(a, b)) return false;
    out_[static_cast<size_t>(a)].push_back(b);
    return true;
  }
  /// Retracts a -> b; false if it was absent.
  bool RemoveEdge(int a, int b) {
    std::vector<int>& succ = out_[static_cast<size_t>(a)];
    auto it = std::find(succ.begin(), succ.end(), b);
    if (it == succ.end()) return false;
    *it = succ.back();
    succ.pop_back();
    return true;
  }
  /// Inserts a -> b if absent, retracts it if present.
  void Toggle(int a, int b) {
    if (!RemoveEdge(a, b)) AddEdge(a, b);
  }

  /// Every node reachable from `from` by one or more edges.
  std::vector<int> Reach(int from) const {
    std::vector<char> seen(out_.size(), 0);
    std::vector<int> stack = {from};
    std::vector<int> reached;
    while (!stack.empty()) {
      const int node = stack.back();
      stack.pop_back();
      for (int next : out_[static_cast<size_t>(node)]) {
        if (seen[static_cast<size_t>(next)]) continue;
        seen[static_cast<size_t>(next)] = 1;
        reached.push_back(next);
        stack.push_back(next);
      }
    }
    return reached;
  }

 private:
  std::vector<std::vector<int>> out_;
};

/// The digest a correct answer to anc(node `from`, Y) has, where
/// `row_key[n]` is the key a served row naming node n digests to.
inline Digest ExpectedDigest(const Graph& graph, int from,
                             const std::vector<uint64_t>& row_key) {
  Digest digest;
  for (int node : graph.Reach(from)) {
    digest.Add(row_key[static_cast<size_t>(node)]);
  }
  return digest;
}

/// An edge of the oracle graph; from = -1 stands for a write that changed
/// nothing.
struct Edge {
  int from = 0;
  int to = 0;
};

/// A read made while writes ran, as the oracle checks it: the seed, the
/// answer's digest, and the window of EDB states it may legally have seen.
/// State k is the EDB after the first k writes; the window runs from state
/// `a` (writes acknowledged before the read was sent) to state `b` (writes
/// begun before it completed), both included.
struct WindowedRead {
  Digest digest;
  uint32_t a = 0;
  uint32_t b = 0;
  int seed = 0;
  bool operator==(const WindowedRead&) const = default;
};

/// The reads that no state of their window explains. `graph` is state 0;
/// write k + 1 toggles `writes[k]`. Steps a copy of the graph through the
/// writes once, checking each read at every state of its window until one
/// matches.
inline std::unordered_set<const WindowedRead*> WrongReads(
    Graph graph, const std::vector<Edge>& writes,
    std::vector<const WindowedRead*> reads,
    const std::vector<uint64_t>& row_key) {
  std::sort(reads.begin(), reads.end(),
            [](const WindowedRead* x, const WindowedRead* y) {
              return x->a < y->a;
            });
  std::unordered_set<const WindowedRead*> wrong;
  std::vector<const WindowedRead*> active;
  size_t next = 0;
  for (uint32_t state = 0; state <= writes.size(); ++state) {
    if (state > 0 && writes[state - 1].from >= 0) {
      graph.Toggle(writes[state - 1].from, writes[state - 1].to);
    }
    while (next < reads.size() && reads[next]->a <= state) {
      active.push_back(reads[next++]);
    }
    std::unordered_map<int, Digest> expected;
    std::vector<const WindowedRead*> still_open;
    for (const WindowedRead* read : active) {
      auto it = expected.find(read->seed);
      if (it == expected.end()) {
        it = expected
                 .emplace(read->seed, ExpectedDigest(graph, read->seed, row_key))
                 .first;
      }
      if (read->digest == it->second) continue;  // legal at this state
      if (read->b <= state) {
        wrong.insert(read);  // no legal state left: a wrong answer
      } else {
        still_open.push_back(read);
      }
    }
    active.swap(still_open);
  }
  // Windows that start or end beyond the last write.
  for (const WindowedRead* read : active) wrong.insert(read);
  for (; next < reads.size(); ++next) wrong.insert(reads[next]);
  return wrong;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
