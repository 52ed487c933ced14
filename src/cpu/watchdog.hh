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

    /**
     * Start the clock: expire @p seconds from now (<= 0 or NaN disarms). A
     * deadline past what steady_clock can hold (inf, 1e10 s) is clamped
     * to the latest time point it can: converting it to integer ticks
     * would overflow and land the deadline in the past.
     */
    void
    arm(double seconds)
    {
        using clock = std::chrono::steady_clock;
        if (!(seconds > 0.0)) {
            armed_ = false;
            return;
        }
        seconds_ = seconds;
        const auto now = clock::now();
        const std::chrono::duration<double> headroom =
            clock::time_point::max() - now;
        // The 1 s margin absorbs the rounding of the double conversions.
        deadline_ = seconds >= headroom.count() - 1.0
                        ? clock::time_point::max()
                        : now + std::chrono::duration_cast<clock::duration>(
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
