// Self-test of the oracle and the checker on a graph small enough to work
// out by hand.
#include "selftest.h"

#include <cstdio>
#include <cstring>
#include <string>

#include "check.h"
#include "oracle.h"
#include "wire.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    ++failures;
    std::fprintf(stderr, "selftest: %s\n", what.c_str());
  }
}

void ExpectScs(Oracle& o, uint32_t q, uint32_t a, uint32_t b, bool found,
               uint32_t c, uint32_t r, double f) {
  const ScsAnswer s = o.Scs(q, a, b);
  Expect(s.found == found && s.num_edges == c && s.result_edges == r &&
             s.significance == f,
         "oracle SCS q=" + std::to_string(q) + " (" + std::to_string(a) + "," +
             std::to_string(b) + ")");
}

}  // namespace

bool RunSelfTest() {
  failures = 0;
  // Upper u0..u3, lower v0..v2 (unified ids 4..6):
  //   u0-v0 9, u0-v1 8, u1-v0 7, u1-v1 6, u2-v1 5, u2-v2 4, u1-v2 3, u3-v2 10
  // (2,2)-core: u3 (degree 1) goes, leaving 7 edges in one component.
  //   q=u0: at w>=7 u1 keeps only v0 and the cascade takes u0; at w>=6 the
  //         K2,2 {u0,u1}x{v0,v1} stands: f(R)=6, |R|=4.
  //   q=u2: at w>=4 v2 keeps u2 alone (u3 is peeled), so u2 falls; only the
  //         whole core (w>=3) keeps it: f(R)=3, |R|=7. Same for q=v2.
  // (1,1)-core: all 8 edges; q=u3 keeps its single edge up to w=10.
  // (3,1)-core: the star u1-{v0,v1,v2}; q=v0 needs all of it: f(R)=3.
  // (3,3)-core: empty, so the degeneracy is 2.
  const std::vector<OEdge> edges = {{0, 0, 9}, {0, 1, 8}, {1, 0, 7},
                                    {1, 1, 6}, {2, 1, 5}, {2, 2, 4},
                                    {1, 2, 3}, {3, 2, 10}};
  Oracle o(4, 3, edges);
  Expect(o.Degeneracy() == 2, "degeneracy");
  Expect(o.CommunityEdges(0, 2, 2) == 7, "|C| of u0 at (2,2)");
  Expect(o.CommunityEdges(3, 2, 2) == 0, "u3 outside the (2,2)-core");
  Expect(o.CommunityEdges(3, 1, 1) == 8, "|C| of u3 at (1,1)");
  ExpectScs(o, 0, 2, 2, true, 7, 4, 6.0);
  ExpectScs(o, 2, 2, 2, true, 7, 7, 3.0);
  ExpectScs(o, 6, 2, 2, true, 7, 7, 3.0);
  ExpectScs(o, 3, 2, 2, false, 0, 0, 0.0);
  ExpectScs(o, 3, 1, 1, true, 8, 1, 10.0);
  ExpectScs(o, 4, 3, 1, true, 3, 3, 3.0);

  // The checker accepts the right answer and rejects one flipped bit, an
  // |R| above |C|, and methods disagreeing on |C|.
  const Request req{kScsPeel, false, 0, 2, 2};
  wire::Response good;
  good.status = wire::kOk;
  good.type = wire::kQuery;
  good.kernel = 1;
  good.found = true;
  good.num_edges = 7;
  good.result_edges = 4;
  good.significance = 6.0;
  good.epoch = 1;
  {
    Checker c(4);
    c.Check(req, good, &o, true);
    c.CompareSamples();
    Expect(c.ok(), "checker rejects a correct answer: " + c.first_error());
  }
  {
    wire::Response bad = good;
    uint64_t bits = 0;
    std::memcpy(&bits, &bad.significance, sizeof bits);
    bits ^= 1;
    std::memcpy(&bad.significance, &bits, sizeof bits);
    Checker c(4);
    c.Check(req, bad, &o, true);
    c.CompareSamples();
    Expect(!c.ok(), "checker accepts a flipped significance bit");
  }
  {
    wire::Response bad = good;
    bad.result_edges = 8;
    Checker c(4);
    c.Check(req, bad, nullptr, false);
    Expect(!c.ok(), "checker accepts |R| > |C|");
  }
  {
    Checker c(4);
    c.Check(req, good, nullptr, false);
    wire::Response other;
    other.status = wire::kOk;
    other.type = wire::kQuery;
    other.found = true;
    other.num_edges = 6;
    other.epoch = 1;
    c.Check(Request{kOnline, false, 0, 2, 2}, other, nullptr, false);
    Expect(!c.ok(), "checker accepts methods disagreeing on |C|");
  }
  return failures == 0;
}

}  // namespace perfbench
