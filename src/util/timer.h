/**
 * @file
 * Wall-clock timing helper used by the benchmark harness.
 */
#ifndef GB_UTIL_TIMER_H
#define GB_UTIL_TIMER_H

#include <chrono>

namespace gb {

/** Monotonic wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() : start_(Clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

} // namespace gb

#endif // GB_UTIL_TIMER_H
