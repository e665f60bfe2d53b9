#include "check.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

std::string Where(const Request& r, const wire::Response& resp) {
  char buf[160];
  std::snprintf(buf, sizeof buf, " at %s q=%u%s a=%u b=%u epoch=%llu",
                MethodName(r.method), r.q, r.lower ? "l" : "u", r.alpha,
                r.beta, static_cast<unsigned long long>(resp.epoch));
  return buf;
}

}  // namespace

void Checker::Fail(const std::string& what) {
  if (errors_++ == 0) first_error_ = what;
}

void Checker::Check(const Request& r, const wire::Response& resp,
                    Oracle* oracle, bool sample) {
  ++property_checked_;
  const uint32_t q = r.lower ? nu_ + r.q : r.q;
  auto fail = [&](const char* what) { Fail(what + Where(r, resp)); };

  if (resp.type != wire::kQuery) return fail("response type is not query");
  if (resp.found != (resp.num_edges > 0)) return fail("found disagrees with |C|");
  if (IsScs(r.method)) {
    if (resp.result_edges > resp.num_edges) return fail("|R| > |C|");
    if (!resp.found && (resp.result_edges != 0 || resp.significance != 0.0)) {
      return fail("empty answer carries a community");
    }
    if (resp.found && resp.result_edges == 0) return fail("found R is empty");
    if (resp.found && r.method != kScsAuto &&
        resp.kernel != r.method - kScsAuto) {
      return fail("SCS kernel differs from the requested one");
    }
  } else if (resp.result_edges != 0 || resp.significance != 0.0 ||
             resp.kernel != 0xff) {
    return fail("retrieval answer carries SCS fields");
  }
  const auto key = std::make_tuple(q, r.alpha, r.beta, resp.epoch);
  const auto [it, fresh] = seen_.emplace(key, resp.num_edges);
  if (!fresh && it->second != resp.num_edges) {
    return fail("methods disagree on |C|");
  }

  if (oracle == nullptr) return;
  if (resp.num_edges != oracle->CommunityEdges(q, r.alpha, r.beta)) {
    return fail("|C| differs from the oracle");
  }
  if (sample && IsScs(r.method)) deferred_.push_back({r, resp, oracle});
}

void Checker::CompareSamples() {
  for (const Deferred& d : deferred_) {
    ++oracle_checked_;
    const uint32_t q = d.req.lower ? nu_ + d.req.q : d.req.q;
    const auto skey = std::make_tuple(d.oracle, q, d.req.alpha, d.req.beta);
    auto c = scs_cache_.find(skey);
    if (c == scs_cache_.end()) {
      c = scs_cache_.emplace(skey, d.oracle->Scs(q, d.req.alpha, d.req.beta))
              .first;
    }
    const ScsAnswer& want = c->second;
    const wire::Response& got = d.resp;
    if (got.found != want.found || got.result_edges != want.result_edges ||
        std::memcmp(&got.significance, &want.significance, sizeof(double)) !=
            0) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "SCS answer differs from the oracle (got found=%d |R|=%u "
                    "f=%.17g, want found=%d |R|=%u f=%.17g)",
                    got.found, got.result_edges, got.significance, want.found,
                    want.result_edges, want.significance);
      Fail(buf + Where(d.req, got));
    }
  }
  deferred_.clear();
}

}  // namespace perfbench
