// Independent answer oracle for the benchmark. It shares no code with the
// library: its own adjacency, its own (α,β)-core peeling, its own
// components and a plain threshold search for the significant community.
// It favours plain code over speed (O(m) per core, O(|C| log W) per SCS
// answer) so that it can be checked by reading.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace perfbench {

/// One weighted edge, upper id `u` and lower id `v` both layer-local.
struct OEdge {
  uint32_t u = 0;
  uint32_t v = 0;
  double w = 0.0;
};

/// The (α,β)-core of the graph and its connected components.
struct CoreView {
  /// Per unified vertex (upper ids first, then lower ids offset by the
  /// upper count): component id, or -1 outside the core.
  std::vector<int32_t> comp;
  /// Edge count of each component.
  std::vector<uint32_t> comp_edges;
  /// Unified ids of every core vertex, ascending.
  std::vector<uint32_t> members;
};

/// What a correct server answers for one SCS request.
struct ScsAnswer {
  bool found = false;
  uint32_t num_edges = 0;     ///< |C|
  uint32_t result_edges = 0;  ///< |R|
  double significance = 0.0;  ///< f(R)
};

class Oracle {
 public:
  Oracle(uint32_t num_upper, uint32_t num_lower, const std::vector<OEdge>& edges);

  uint32_t NumUpper() const { return nu_; }
  uint32_t NumLower() const { return nl_; }

  /// The (α,β)-core by repeated deletion of upper vertices with degree < α
  /// and lower vertices with degree < β. Cached per (α, β).
  const CoreView& Core(uint32_t alpha, uint32_t beta);

  /// Largest k whose (k,k)-core is nonempty.
  uint32_t Degeneracy();

  /// |C_{α,β}(q)| in edges; `q` is a unified id.
  uint32_t CommunityEdges(uint32_t q, uint32_t alpha, uint32_t beta) {
    const CoreView& c = Core(alpha, beta);
    return c.comp[q] < 0 ? 0 : c.comp_edges[c.comp[q]];
  }

  /// Significant community by threshold search over C's distinct weights:
  /// f(R) is the largest w such that q survives in the (α,β)-core of C's
  /// edges of weight ≥ w, and R is q's component there.
  ScsAnswer Scs(uint32_t q, uint32_t alpha, uint32_t beta);

 private:
  uint32_t nu_;
  uint32_t nl_;
  std::vector<OEdge> edges_;
  std::vector<uint32_t> off_;  ///< CSR offsets, size n + 1
  std::vector<uint32_t> nbr_;  ///< neighbour (unified id)
  std::vector<uint32_t> eid_;  ///< edge index into edges_
  std::map<std::pair<uint32_t, uint32_t>, CoreView> cores_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
