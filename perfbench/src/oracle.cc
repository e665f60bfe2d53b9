#include "oracle.h"

#include <algorithm>

namespace perfbench {

Oracle::Oracle(uint32_t num_upper, uint32_t num_lower,
               const std::vector<OEdge>& edges)
    : nu_(num_upper), nl_(num_lower), edges_(edges) {
  const uint32_t n = nu_ + nl_;
  off_.assign(n + 1, 0);
  for (const OEdge& e : edges_) {
    ++off_[e.u + 1];
    ++off_[nu_ + e.v + 1];
  }
  for (uint32_t x = 0; x < n; ++x) off_[x + 1] += off_[x];
  nbr_.resize(off_[n]);
  eid_.resize(off_[n]);
  std::vector<uint32_t> fill(off_.begin(), off_.end() - 1);
  for (uint32_t i = 0; i < edges_.size(); ++i) {
    const uint32_t a = edges_[i].u;
    const uint32_t b = nu_ + edges_[i].v;
    nbr_[fill[a]] = b;
    eid_[fill[a]++] = i;
    nbr_[fill[b]] = a;
    eid_[fill[b]++] = i;
  }
}

const CoreView& Oracle::Core(uint32_t alpha, uint32_t beta) {
  auto it = cores_.find({alpha, beta});
  if (it != cores_.end()) return it->second;
  const uint32_t n = nu_ + nl_;
  std::vector<uint32_t> deg(n);
  std::vector<uint8_t> alive(n, 1);
  std::vector<uint32_t> stack;
  auto need = [&](uint32_t x) { return x < nu_ ? alpha : beta; };
  for (uint32_t x = 0; x < n; ++x) {
    deg[x] = off_[x + 1] - off_[x];
    if (deg[x] < need(x)) {
      alive[x] = 0;
      stack.push_back(x);
    }
  }
  while (!stack.empty()) {
    const uint32_t x = stack.back();
    stack.pop_back();
    for (uint32_t i = off_[x]; i < off_[x + 1]; ++i) {
      const uint32_t y = nbr_[i];
      if (alive[y] && --deg[y] < need(y)) {
        alive[y] = 0;
        stack.push_back(y);
      }
    }
  }
  CoreView view;
  view.comp.assign(n, -1);
  for (uint32_t s = 0; s < n; ++s) {
    if (!alive[s] || view.comp[s] >= 0) continue;
    const int32_t c = static_cast<int32_t>(view.comp_edges.size());
    view.comp_edges.push_back(0);
    view.comp[s] = c;
    stack.assign(1, s);
    while (!stack.empty()) {
      const uint32_t x = stack.back();
      stack.pop_back();
      for (uint32_t i = off_[x]; i < off_[x + 1]; ++i) {
        const uint32_t y = nbr_[i];
        if (!alive[y]) continue;
        if (x < nu_) ++view.comp_edges[c];  // count each edge at its upper end
        if (view.comp[y] < 0) {
          view.comp[y] = c;
          stack.push_back(y);
        }
      }
    }
  }
  for (uint32_t x = 0; x < n; ++x) {
    if (alive[x]) view.members.push_back(x);
  }
  return cores_.emplace(std::make_pair(alpha, beta), std::move(view))
      .first->second;
}

uint32_t Oracle::Degeneracy() {
  uint32_t lo = 0;  // (lo,lo)-core known nonempty (the 0-core is everything)
  uint32_t hi = 1;
  while (!Core(hi, hi).members.empty()) {
    lo = hi;
    hi *= 2;
  }
  while (hi - lo > 1) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (Core(mid, mid).members.empty()) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

ScsAnswer Oracle::Scs(uint32_t q, uint32_t alpha, uint32_t beta) {
  ScsAnswer ans;
  const CoreView& core = Core(alpha, beta);
  if (core.comp[q] < 0) return ans;
  const int32_t c = core.comp[q];
  ans.found = true;
  ans.num_edges = core.comp_edges[c];

  // C's edges, strongest first, over dense local vertex ids.
  std::vector<uint32_t> local(nu_ + nl_, UINT32_MAX);
  std::vector<uint32_t> is_upper;
  std::vector<uint32_t> cedges;
  for (uint32_t x : core.members) {
    if (core.comp[x] != c) continue;
    local[x] = static_cast<uint32_t>(is_upper.size());
    is_upper.push_back(x < nu_ ? 1 : 0);
    if (x >= nu_) continue;
    for (uint32_t i = off_[x]; i < off_[x + 1]; ++i) {
      if (core.comp[nbr_[i]] == c) cedges.push_back(eid_[i]);
    }
  }
  std::sort(cedges.begin(), cedges.end(), [&](uint32_t a, uint32_t b) {
    return edges_[a].w > edges_[b].w;
  });
  const uint32_t k = static_cast<uint32_t>(is_upper.size());
  const uint32_t m = static_cast<uint32_t>(cedges.size());
  // Arcs per local vertex, tagged with the edge's rank in weight order.
  std::vector<uint32_t> aoff(k + 1, 0);
  for (uint32_t r = 0; r < m; ++r) {
    const OEdge& e = edges_[cedges[r]];
    ++aoff[local[e.u] + 1];
    ++aoff[local[nu_ + e.v] + 1];
  }
  for (uint32_t x = 0; x < k; ++x) aoff[x + 1] += aoff[x];
  std::vector<uint32_t> ato(2 * m), arank(2 * m);
  std::vector<uint32_t> fill(aoff.begin(), aoff.end() - 1);
  for (uint32_t r = 0; r < m; ++r) {
    const OEdge& e = edges_[cedges[r]];
    const uint32_t a = local[e.u];
    const uint32_t b = local[nu_ + e.v];
    ato[fill[a]] = b;
    arank[fill[a]++] = r;
    ato[fill[b]] = a;
    arank[fill[b]++] = r;
  }
  const uint32_t lq = local[q];

  // prefix_end[i]: number of edges with weight >= the i-th distinct weight.
  std::vector<uint32_t> prefix_end;
  for (uint32_t r = 0; r < m; ++r) {
    if (r + 1 == m || edges_[cedges[r + 1]].w != edges_[cedges[r]].w) {
      prefix_end.push_back(r + 1);
    }
  }

  std::vector<uint32_t> deg(k);
  std::vector<uint8_t> alive(k);
  std::vector<uint32_t> stack;
  // Peels the subgraph of the `len` strongest edges; true iff q survives.
  auto survives = [&](uint32_t len) {
    stack.clear();
    for (uint32_t x = 0; x < k; ++x) {
      deg[x] = 0;
      for (uint32_t i = aoff[x]; i < aoff[x + 1]; ++i) deg[x] += arank[i] < len;
      alive[x] = deg[x] >= (is_upper[x] ? alpha : beta);
      if (!alive[x]) stack.push_back(x);
    }
    while (!stack.empty()) {
      const uint32_t x = stack.back();
      stack.pop_back();
      for (uint32_t i = aoff[x]; i < aoff[x + 1]; ++i) {
        const uint32_t y = ato[i];
        if (arank[i] >= len || !alive[y]) continue;
        if (--deg[y] < (is_upper[y] ? alpha : beta)) {
          alive[y] = 0;
          stack.push_back(y);
        }
      }
    }
    return alive[lq] != 0;
  };

  // The whole of C (the weakest threshold) keeps q by construction; find
  // the strongest threshold that still does.
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(prefix_end.size()) - 1;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (survives(prefix_end[mid])) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const uint32_t len = prefix_end[lo];
  survives(len);
  ans.significance = edges_[cedges[len - 1]].w;
  // |R|: edges of q's component among the survivors.
  std::vector<uint8_t> seen(k, 0);
  stack.assign(1, lq);
  seen[lq] = 1;
  uint32_t redges = 0;
  while (!stack.empty()) {
    const uint32_t x = stack.back();
    stack.pop_back();
    for (uint32_t i = aoff[x]; i < aoff[x + 1]; ++i) {
      const uint32_t y = ato[i];
      if (arank[i] >= len || !alive[y]) continue;
      if (is_upper[x]) ++redges;
      if (!seen[y]) {
        seen[y] = 1;
        stack.push_back(y);
      }
    }
  }
  ans.result_edges = redges;
  return ans;
}

}  // namespace perfbench
