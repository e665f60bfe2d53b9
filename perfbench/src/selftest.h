#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Checks the oracle and the checker on a hand-worked graph; false (with
/// the failures on stderr) when either is wrong.
bool RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
