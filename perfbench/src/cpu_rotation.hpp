// Spreads the benchmark over every CPU it may run on.
//
// On a shared virtual machine the vCPUs run at different, drifting speeds
// (their physical cores are shared with other tenants), and Linux keeps a
// busy thread on one CPU, so a run's figures depended on which vCPU it
// landed on: ±25% between processes on a 4-vCPU host. A background thread
// therefore re-pins every thread of the process every few milliseconds,
// thread k onto allowed CPU (step + k) mod n, so each pass of a run visits
// all CPUs and every run samples the same mix.
#pragma once

#include <sched.h>

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotation {
 public:
  /// Starts rotating at once; a no-op when only one CPU is allowed.
  explicit CpuRotation(int period_ms = 10);
  /// Stops the rotation and restores every thread's original CPU set.
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void apply(long step) const;
  void loop();

  cpu_set_t allowed_{};
  std::vector<int> cpus_;  ///< the allowed CPUs, ascending
  int period_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // declared last: it runs loop() over the fields above
};

}  // namespace perfbench
