#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "common.h"

namespace perfbench {

namespace {

// Weights are 1 + k/10^4 for k < 990000, written as fixed-point text and
// read back with strtod, so the value the benchmark checks against is
// exactly the value the program parses from the file.
constexpr uint32_t kWeightSteps = 990000;

void FormatWeight(uint32_t k, char* buf, std::size_t n) {
  std::snprintf(buf, n, "%u.%04u", 1 + k / 10000, k % 10000);
}

double WeightOf(uint32_t k) {
  char buf[32];
  FormatWeight(k, buf, sizeof buf);
  return std::strtod(buf, nullptr);
}

// Inverse-CDF sampler over expected-degree weights (i+1)^(-1/(skew-1)).
class PowerLaw {
 public:
  PowerLaw(uint32_t n, double skew) : cdf_(n) {
    double s = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      s += std::pow(static_cast<double>(i) + 1.0, -1.0 / (skew - 1.0));
      cdf_[i] = s;
    }
  }
  uint32_t Sample(Rng& rng) const {
    const double x = rng.Unit() * cdf_.back();
    return static_cast<uint32_t>(
        std::min<std::size_t>(cdf_.size() - 1,
                              std::upper_bound(cdf_.begin(), cdf_.end(), x) -
                                  cdf_.begin()));
  }

 private:
  std::vector<double> cdf_;
};

struct Generated {
  uint32_t nu = 0;
  uint32_t nl = 0;
  std::vector<OEdge> edges;
  std::vector<uint32_t> weight_k;
};

Generated Generate(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(seed * 0x100000001b3ull + 17);
  PowerLaw up(spec.num_upper, spec.skew_upper);
  PowerLaw lo(spec.num_lower, spec.skew_lower);
  std::unordered_set<uint64_t> seen;
  seen.reserve(spec.num_edges * 2);
  Generated g;
  g.edges.reserve(spec.num_edges);
  uint64_t attempts = 0;
  while (g.edges.size() < spec.num_edges) {
    // Past 64 tries per edge the hottest pairs are saturated; fill the
    // residue with uniform pairs so generation always ends.
    const bool skewed = ++attempts < 64ull * spec.num_edges;
    const uint32_t u = skewed ? up.Sample(rng)
                              : static_cast<uint32_t>(rng.Below(spec.num_upper));
    const uint32_t v = skewed ? lo.Sample(rng)
                              : static_cast<uint32_t>(rng.Below(spec.num_lower));
    if (!seen.insert(static_cast<uint64_t>(u) << 32 | v).second) continue;
    const uint32_t k = static_cast<uint32_t>(rng.Below(kWeightSteps));
    g.edges.push_back({u, v, WeightOf(k)});
    g.weight_k.push_back(k);
    g.nu = std::max(g.nu, u + 1);
    g.nl = std::max(g.nl, v + 1);
  }
  return g;
}

}  // namespace

const char* MethodName(uint8_t method) {
  static const char* const kNames[kNumMethods] = {
      "online", "bicore", "delta", "scs-auto", "scs-peel", "scs-expand",
      "scs-binary"};
  return method < kNumMethods ? kNames[method] : "?";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  // Shapes: DTI-like ≈9K×68K with 274K edges (δ≈47) and BS-like 7.8K×18.6K
  // with 43K edges (δ≈13), both Chung-Lu with uniform weights. Rates sit
  // well below the measured capacity of a 2-worker daemon on 4 cores (see
  // README.md), so no request waits on a growing backlog.
  static const std::vector<WorkloadSpec> kSpecs = {
      {"lookup", 9020, 67600, 274000, 1.9, 2.2, false,
       {{kDelta, 0.9}, {kBicore, 0.1}}, /*nominal_delta=*/47,
       {0.5, 0.75, 1.0}, false, 1.1,
       /*open_rate_qps=*/10000, /*read_conns=*/3, /*closed_depth=*/4,
       /*batch_period_ms=*/100, /*batch_ops=*/false, /*daemon_threads=*/2},
      {"scs_mixed", 9020, 67600, 274000, 1.9, 2.2, true,
       {{kScsAuto, 0.75}, {kScsPeel, 0.05}, {kScsExpand, 0.05},
        {kScsBinary, 0.05}, {kDelta, 0.05}, {kOnline, 0.05}},
       /*nominal_delta=*/47, {0.3, 0.45, 0.6, 0.8, 1.0}, true, 0.0,
       /*open_rate_qps=*/250, /*read_conns=*/3, /*closed_depth=*/2,
       /*batch_period_ms=*/100, /*batch_ops=*/false, /*daemon_threads=*/2},
      {"live_updates", 7800, 18600, 43000, 2.2, 2.3, false,
       {{kDelta, 0.7}, {kScsAuto, 0.3}}, /*nominal_delta=*/13,
       {0.3, 0.5, 0.7, 1.0}, true, 0.0,
       /*open_rate_qps=*/2000, /*read_conns=*/3, /*closed_depth=*/2,
       /*batch_period_ms=*/100, /*batch_ops=*/true, /*daemon_threads=*/2},
  };
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Workload::Workload(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed), oracle_(0, 0, {}) {
  Generated g = Generate(spec, seed);
  nu_ = g.nu;
  nl_ = g.nl;
  oracle_ = Oracle(g.nu, g.nl, g.edges);
  edges_ = std::move(g.edges);
  weight_text_.reserve(g.weight_k.size());
  for (uint32_t k : g.weight_k) {
    char buf[32];
    FormatWeight(k, buf, sizeof buf);
    weight_text_.emplace_back(buf);
  }
  delta_ = oracle_.Degeneracy();

  std::vector<uint32_t> lv;
  for (double f : spec.levels) {
    const double level = std::ceil(f * spec.nominal_delta);
    lv.push_back(std::clamp<uint32_t>(static_cast<uint32_t>(level), 1,
                                      std::max<uint32_t>(delta_, 1)));
  }
  std::vector<std::pair<uint32_t, uint32_t>> cand;
  if (spec.full_grid) {
    for (uint32_t a : lv) {
      for (uint32_t b : lv) cand.push_back({a, b});
    }
  } else {
    cand = {{lv[0], lv[0]}, {lv[0], lv[1]}, {lv[1], lv[0]}, {lv[2], lv[2]}};
  }
  std::set<std::pair<uint32_t, uint32_t>> uniq;
  for (const auto& p : cand) {
    if (!uniq.insert(p).second) continue;
    const CoreView& core = oracle_.Core(p.first, p.second);
    if (core.members.empty()) continue;
    pairs_.push_back(p);
    std::vector<uint32_t> m = core.members;
    Rng rng(seed ^ Mix64(p.first * 1000003ull + p.second));
    for (std::size_t i = m.size(); i > 1; --i) {
      std::swap(m[i - 1], m[rng.Below(i)]);
    }
    std::vector<double> cdf(m.size());
    double s = 0.0;
    for (std::size_t r = 0; r < m.size(); ++r) {
      s += spec.zipf_s > 0 ? std::pow(static_cast<double>(r) + 1.0, -spec.zipf_s)
                           : 1.0;
      cdf[r] = s;
    }
    members_.push_back(std::move(m));
    zipf_cdf_.push_back(std::move(cdf));
  }
  double s = 0.0;
  for (const auto& [method, share] : spec.mix) {
    s += share;
    mix_cdf_.push_back(s);
  }
}

Request Workload::Make(uint64_t stream, uint64_t i) const {
  Rng rng(Mix64(seed_ * 0x9e3779b97f4a7c15ull + stream) ^ Mix64(i));
  Request r;
  const double x = rng.Unit() * mix_cdf_.back();
  std::size_t k = 0;
  while (k + 1 < mix_cdf_.size() && x >= mix_cdf_[k]) ++k;
  r.method = spec_.mix[k].first;
  const std::size_t p = rng.Below(pairs_.size());
  r.alpha = pairs_[p].first;
  r.beta = pairs_[p].second;
  const std::vector<double>& cdf = zipf_cdf_[p];
  const double y = rng.Unit() * cdf.back();
  const std::size_t rank = std::min<std::size_t>(
      cdf.size() - 1,
      std::upper_bound(cdf.begin(), cdf.end(), y) - cdf.begin());
  const uint32_t q = members_[p][rank];
  r.lower = q >= nu_;
  r.q = r.lower ? q - nu_ : q;
  return r;
}

bool Workload::WriteEdgeList(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%% perfbench %s seed %llu\n", spec_.name.c_str(),
               static_cast<unsigned long long>(seed_));
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    std::fprintf(f, "%u %u %s\n", edges_[i].u, edges_[i].v,
                 weight_text_[i].c_str());
  }
  return std::fclose(f) == 0;
}

uint64_t Workload::DistinctKeys() const {
  uint64_t per_method = 0;
  for (const auto& m : members_) per_method += m.size();
  return per_method * spec_.mix.size();
}

UpdateLog::UpdateLog(const Workload& w, bool with_ops)
    : nu_(w.num_upper()),
      nl_(w.num_lower()),
      seed_(w.seed()),
      ops_(with_ops),
      live_(w.edges()) {
  index_.reserve(live_.size() * 2);
  for (uint32_t i = 0; i < live_.size(); ++i) {
    index_[Key(live_[i].u, live_[i].v)] = i;
  }
}

std::vector<Update> UpdateLog::NextBatch() {
  const uint64_t b = next_++;
  std::vector<Update> out;
  if (ops_) {
    Rng rng(Mix64(seed_ * 31 + 7) ^ Mix64(b));
    // Every third batch is insert/remove churn, the others reweight-only:
    // the median commit then falls inside the reweight population (the
    // publish path) and the p90 inside the churn one (maintenance); with
    // strict alternation the median sat on the boundary between the two
    // and moved with the seed. Reweight batches carry 1-64 ops; a churn
    // batch is one remove and one insert: each costs the maintenance path
    // milliseconds (a reweight microseconds), so bigger churn batches
    // would push the writer past its commit capacity at this cadence, and
    // varying their size spread the p90 from run to run.
    const bool churn = b % 3 == 2;
    const uint32_t size =
        churn ? 2 : 1 + static_cast<uint32_t>(rng.Below(64));
    auto weight = [&] {
      return WeightOf(static_cast<uint32_t>(rng.Below(kWeightSteps)));
    };
    for (uint32_t j = 0; j < size; ++j) {
      if (!churn) {  // reweight-only: the decomposition is shared
        OEdge& e = live_[rng.Below(live_.size())];
        e.w = weight();
        out.push_back({kReweight, e.u, e.v, e.w});
      } else if (j % 2 == 0) {  // churn: remove a live edge
        const uint32_t slot = static_cast<uint32_t>(rng.Below(live_.size()));
        const OEdge e = live_[slot];
        out.push_back({kRemove, e.u, e.v, 0.0});
        index_.erase(Key(e.u, e.v));
        live_[slot] = live_.back();
        live_.pop_back();
        if (slot < live_.size()) index_[Key(live_[slot].u, live_[slot].v)] = slot;
      } else {  // churn: insert an absent edge
        uint32_t u = 0;
        uint32_t v = 0;
        do {
          u = static_cast<uint32_t>(rng.Below(nu_));
          v = static_cast<uint32_t>(rng.Below(nl_));
        } while (index_.count(Key(u, v)) != 0);
        const OEdge e{u, v, weight()};
        index_[Key(u, v)] = static_cast<uint32_t>(live_.size());
        live_.push_back(e);
        out.push_back({kInsert, u, v, e.w});
      }
    }
  }
  out.push_back({kCommit, 0, 0, 0.0});
  return out;
}

}  // namespace perfbench
