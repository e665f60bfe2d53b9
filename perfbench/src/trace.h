#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct TraceOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string workdir;  ///< spans are written here at exit
  /// The end-to-end run's p50 on the same stream, for serve.overhead_us.
  double e2e_p50_ms = 0.0;
};

/// Replays the workload in-process through each layer's public functions,
/// in the order the daemon calls them, and prints the per-layer metrics as
/// one JSON line.
int RunTrace(const TraceOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
