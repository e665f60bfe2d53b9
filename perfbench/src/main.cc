// perfbench: the end-to-end daemon benchmark and its traced replay.
//
//   perfbench selftest
//   perfbench e2e   --workload W --seed N --seconds S --workdir D --abcs PATH
//                   [--flip-significance]
//   perfbench trace --workload W --seed N --seconds S --workdir D
//                   [--e2e-p50-ms X]
//
// Both run modes print one JSON result line last on stdout; perfbench/run.py
// is the entry point that builds, runs and merges them.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "e2e.h"
#include "selftest.h"
#include "trace.h"

int main(int argc, char** argv) {
  // Both run modes sleep until a request is due (ppoll, sleep_until); with
  // the default 50 us timer slack that lateness dominated the ~20 us
  // memo-hit round trip being measured. Acts on this process only.
  prctl(PR_SET_TIMERSLACK, 1UL);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench selftest|e2e|trace [options]\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "selftest") return perfbench::RunSelfTest() ? 0 : 1;

  perfbench::E2EOptions e2e;
  perfbench::TraceOptions trace;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      e2e.workload = trace.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      e2e.seed = trace.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      e2e.seconds = trace.seconds = std::atof(argv[++i]);
    } else if (a == "--workdir" && has_value) {
      e2e.workdir = trace.workdir = argv[++i];
    } else if (a == "--abcs" && has_value) {
      e2e.abcs = argv[++i];
    } else if (a == "--e2e-p50-ms" && has_value) {
      trace.e2e_p50_ms = std::atof(argv[++i]);
    } else if (a == "--flip-significance") {
      e2e.flip_significance = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (e2e.workload.empty() || e2e.workdir.empty() || e2e.seconds <= 0) {
    std::fprintf(stderr, "missing --workload, --workdir or --seconds\n");
    return 2;
  }
  if (mode == "e2e") {
    if (e2e.abcs.empty()) return 2;
    return perfbench::RunEndToEnd(e2e);
  }
  if (mode == "trace") return perfbench::RunTrace(trace);
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
