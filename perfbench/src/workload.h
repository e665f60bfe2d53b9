// Workload definitions: the seeded input graph, the request stream and the
// update log of each benchmark workload. Everything here is a pure function
// of (workload, seed), so the end-to-end run and the traced replay see the
// same inputs.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "oracle.h"

namespace perfbench {

/// Wire method numbers (the daemon's protocol values).
enum Method : uint8_t {
  kOnline = 0,
  kBicore = 1,
  kDelta = 2,
  kScsAuto = 3,
  kScsPeel = 4,
  kScsExpand = 5,
  kScsBinary = 6,
};
inline constexpr int kNumMethods = 7;
const char* MethodName(uint8_t method);
inline bool IsScs(uint8_t method) { return method >= kScsAuto; }

/// Wire update-op numbers.
enum Op : uint8_t { kInsert = 0, kRemove = 1, kReweight = 2, kCommit = 3 };

struct Request {
  uint8_t method = kDelta;
  bool lower = false;  ///< q is a lower-layer id
  uint32_t q = 0;      ///< layer-local id
  uint32_t alpha = 1;
  uint32_t beta = 1;
};

struct Update {
  uint8_t op = kCommit;
  uint32_t u = 0;  ///< upper layer-local
  uint32_t v = 0;  ///< lower layer-local
  double w = 0.0;
};

struct WorkloadSpec {
  std::string name;
  // Chung-Lu graph shape.
  uint32_t num_upper;
  uint32_t num_lower;
  uint32_t num_edges;
  double skew_upper;
  double skew_lower;
  bool compress;  ///< bundle built with --compress=max
  std::vector<std::pair<uint8_t, double>> mix;  ///< method, share of stream
  /// δ of the shape. Grid levels are fractions of it, capped at the
  /// generated graph's own δ: a seed whose graph lands at δ±1 then keeps
  /// the same (α,β) pairs instead of shifting every one of them.
  uint32_t nominal_delta;
  /// (α,β) levels as fractions of δ. `full_grid` crosses every pair of
  /// levels; otherwise the pairs are (l0,l0), (l0,l1), (l1,l0), (l2,l2).
  std::vector<double> levels;
  bool full_grid;
  double zipf_s;  ///< q skew over the pair's core vertices; 0 = uniform
  double open_rate_qps;
  uint32_t read_conns;
  uint32_t closed_depth;  ///< requests in flight per connection, closed loop
  double batch_period_ms;
  bool batch_ops;  ///< false: the writer sends empty commits only
  uint32_t daemon_threads;
};

const WorkloadSpec* FindWorkload(const std::string& name);

/// Share of a run given to the open-loop phase; the closed-loop phase takes
/// the rest.
inline constexpr double kOpenShare = 0.6;

/// Stream ids for `Workload::Make`.
inline constexpr uint64_t kOpenStream = 1;
inline constexpr uint64_t kClosedStream = 2;
inline constexpr uint64_t kVerifyStream = 3;
inline constexpr uint64_t kSampleStream = 4;

class Workload {
 public:
  Workload(const WorkloadSpec& spec, uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  uint32_t num_upper() const { return nu_; }
  uint32_t num_lower() const { return nl_; }
  const std::vector<OEdge>& edges() const { return edges_; }
  uint32_t delta() const { return delta_; }
  const std::vector<std::pair<uint32_t, uint32_t>>& pairs() const {
    return pairs_;
  }
  /// Oracle over the initial graph (cores of every pair already cached).
  Oracle& oracle() { return oracle_; }

  /// Request i of stream `stream`.
  Request Make(uint64_t stream, uint64_t i) const;

  /// Writes the graph as a `u v w` edge list; the text holds exactly the
  /// weights in `edges()`.
  bool WriteEdgeList(const std::string& path) const;

  /// Count of distinct (method, α, β, q) keys the request distribution can
  /// produce (the memo's key space).
  uint64_t DistinctKeys() const;

 private:
  WorkloadSpec spec_;
  uint64_t seed_;
  uint32_t nu_ = 0;
  uint32_t nl_ = 0;
  std::vector<OEdge> edges_;
  std::vector<std::string> weight_text_;
  Oracle oracle_;
  uint32_t delta_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  std::vector<std::vector<uint32_t>> members_;  ///< per pair, seeded order
  std::vector<std::vector<double>> zipf_cdf_;   ///< per pair
  std::vector<double> mix_cdf_;
};

/// The writer's op log: two reweight-only batches, then one insert/remove
/// churn batch, and so on, each closed by a commit. Tracks the live edge set,
/// so no op ever conflicts, and yields the final graph for the oracle.
class UpdateLog {
 public:
  /// Without `with_ops` every batch is a commit alone.
  UpdateLog(const Workload& w, bool with_ops);

  /// The next batch (b = 0, 1, 2, ... in order): its ops, then a commit.
  std::vector<Update> NextBatch();

  /// The live edge set after every batch handed out so far.
  const std::vector<OEdge>& Edges() const { return live_; }

 private:
  uint64_t Key(uint32_t u, uint32_t v) const {
    return static_cast<uint64_t>(u) * nl_ + v;
  }
  uint32_t nu_;
  uint32_t nl_;
  uint64_t seed_;
  bool ops_;
  uint64_t next_ = 0;
  std::vector<OEdge> live_;
  std::unordered_map<uint64_t, uint32_t> index_;  ///< key -> slot in live_
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
