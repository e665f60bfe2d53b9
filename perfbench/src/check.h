// Response checker: property checks on every answer, and bit-exact
// comparison with the independent oracle on a sample.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "oracle.h"
#include "wire.h"
#include "workload.h"

namespace perfbench {

class Checker {
 public:
  explicit Checker(uint32_t num_upper) : nu_(num_upper) {}

  /// Checks one kOk query response. `oracle` answers for the graph the
  /// response was computed on; null when that graph is not known (reads
  /// racing live updates), leaving only the property checks. With `sample`,
  /// an SCS answer is kept for `CompareSamples`.
  void Check(const Request& r, const wire::Response& resp, Oracle* oracle,
             bool sample);

  /// Compares every kept SCS answer field by field with the oracle's
  /// (significance bit-exact). Separate from `Check` so that the oracle's
  /// work stays out of the timed load.
  void CompareSamples();

  /// Records a failure found elsewhere (totals, epochs).
  void Fail(const std::string& what);

  bool ok() const { return errors_ == 0; }
  uint64_t errors() const { return errors_; }
  const std::string& first_error() const { return first_error_; }
  uint64_t oracle_checked() const { return oracle_checked_; }
  uint64_t property_checked() const { return property_checked_; }

 private:
  uint32_t nu_;
  uint64_t errors_ = 0;
  std::string first_error_;
  uint64_t oracle_checked_ = 0;
  uint64_t property_checked_ = 0;
  /// |C| seen per (q, α, β, epoch), for cross-method agreement.
  std::map<std::tuple<uint32_t, uint32_t, uint32_t, uint64_t>, uint32_t> seen_;
  struct Deferred {
    Request req;
    wire::Response resp;
    Oracle* oracle;
  };
  std::vector<Deferred> deferred_;
  /// Oracle SCS answers per (oracle, q, α, β).
  std::map<std::tuple<const Oracle*, uint32_t, uint32_t, uint32_t>, ScsAnswer>
      scs_cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
