#pragma once

#include <chrono>

namespace pcor {

/// \brief Monotonic wall-clock stopwatch used by the experiment harness.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// \brief Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pcor
