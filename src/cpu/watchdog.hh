/**
 * @file
 * Cooperative per-point wall-clock watchdog. The simulator has no
 * preemption, so runaway points (an accidentally-quadratic workload at
 * --size=ref, a guest stuck in an interpreter loop) are cancelled
 * cooperatively: the run loops call expire() between bursts of at most
 * kCheckInterval retired instructions, and an expired deadline throws
 * TimeoutError, which the harness classifies as PointStatus::TimedOut.
 *
 * Disarmed cost is one bool test per burst; armed cost is one
 * steady_clock read per burst.
 */

#ifndef SCD_CPU_WATCHDOG_HH
#define SCD_CPU_WATCHDOG_HH

#include <chrono>
#include <cstdint>

#include "common/logging.hh"

namespace scd::cpu
{

/** Wall-clock deadline checked cooperatively from the step loops. */
class Watchdog
{
  public:
    /** Longest run of instructions between two expire() calls. */
    static constexpr uint64_t kCheckInterval = 1ull << 16;

    /** Start the clock: expire @p seconds from now (<= 0 disarms). */
    void
    arm(double seconds)
    {
        if (seconds <= 0.0) {
            armed_ = false;
            return;
        }
        seconds_ = seconds;
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds));
        armed_ = true;
    }

    /** Throw TimeoutError if the deadline has passed. */
    void
    expire() const
    {
        if (armed_ && std::chrono::steady_clock::now() >= deadline_) {
            throw TimeoutError(detail::formatMessage(
                "point exceeded wall-clock limit of ", seconds_,
                " seconds"));
        }
    }

  private:
    bool armed_ = false;
    double seconds_ = 0.0;
    std::chrono::steady_clock::time_point deadline_;
};

} // namespace scd::cpu

#endif // SCD_CPU_WATCHDOG_HH
