// Wall-clock stopwatch used by the throughput harness.
#pragma once

#include <chrono>
#include <ctime>

namespace qmax::common {

class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}

  void reset() noexcept { start_ = clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }
  [[nodiscard]] double nanos() const noexcept { return seconds() * 1e9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Whether this platform has a working per-thread CPU clock, probed once
/// at runtime (a compile-time CLOCK_THREAD_CPUTIME_ID can still fail at
/// runtime under emulation or restricted sandboxes). ThreadCpuStopwatch
/// checks this so a wall-clock fallback reading is never silently passed
/// off as CPU time.
[[nodiscard]] inline bool thread_cputime_supported() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  static const bool ok = [] {
    timespec ts{};
    return clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0;
  }();
  return ok;
#else
  return false;
#endif
}

/// Per-thread CPU-time stopwatch: seconds of CPU the *calling thread*
/// actually consumed, excluding time spent descheduled. On time-shared
/// hosts (CI runners, the single-core container this repo often builds
/// in) wall-clock makes every parallel pipeline look flat; dividing work
/// by the busiest thread's CPU time instead models the throughput the
/// same code reaches when each thread owns a core. Falls back to the
/// wall clock where the per-thread clock is unavailable — the probe is
/// taken once, so one stopwatch never mixes the two clocks.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() noexcept : start_(now()) {}

  void reset() noexcept { start_ = now(); }

  [[nodiscard]] double seconds() const noexcept { return now() - start_; }

 private:
  [[nodiscard]] static double now() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    if (thread_cputime_supported()) {
      timespec ts{};
      if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  double start_;
};

/// Million-operations-per-second given an op count and elapsed seconds;
/// the unit the paper reports (MPPS) for packet streams.
[[nodiscard]] inline double mops(std::uint64_t ops, double seconds) noexcept {
  return seconds > 0.0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
}

}  // namespace qmax::common
