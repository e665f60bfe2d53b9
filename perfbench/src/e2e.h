#ifndef PERFBENCH_E2E_H_
#define PERFBENCH_E2E_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct E2EOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string workdir;  ///< graph, bundle and daemon log go here
  std::string abcs;     ///< path of the `abcs` binary
  /// Flip one significance bit of a sampled answer before checking it (the
  /// checker's own test: the run must then report incorrect outputs).
  bool flip_significance = false;
};

/// Runs the end-to-end phase and prints its result as one JSON line.
/// Returns nonzero (printing no result) when the run could not complete.
int RunEndToEnd(const E2EOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_E2E_H_
