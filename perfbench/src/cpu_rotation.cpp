#include "cpu_rotation.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {
namespace {

// Thread ids of this process, ascending, without the caller's own.
std::vector<pid_t> other_threads(pid_t self) {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(std::stol(e.path().filename()));
    if (tid != self) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace

CpuRotation::CpuRotation(int period_ms) : period_ms_(period_ms) {
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
}

CpuRotation::~CpuRotation() {
  if (!thread_.joinable()) return;
  stop_ = true;
  thread_.join();
  for (pid_t tid : other_threads(0))
    sched_setaffinity(tid, sizeof allowed_, &allowed_);
}

void CpuRotation::apply(long step) const {
  const std::vector<pid_t> tids =
      other_threads(static_cast<pid_t>(syscall(SYS_gettid)));
  for (std::size_t k = 0; k < tids.size(); ++k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(static_cast<std::size_t>(step) + k) % cpus_.size()], &one);
    // A thread that exited since the listing just fails with ESRCH.
    sched_setaffinity(tids[k], sizeof one, &one);
  }
}

void CpuRotation::loop() {
  for (long step = 0; !stop_; ++step) {
    apply(step);
    std::this_thread::sleep_for(std::chrono::milliseconds(period_ms_));
  }
}

}  // namespace perfbench
