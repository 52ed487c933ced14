/**
 * @file
 * parallelFor: the experiment harness's one scheduler.
 */

#ifndef SCD_HARNESS_POOL_HH
#define SCD_HARNESS_POOL_HH

#include <cstddef>
#include <functional>

namespace scd::harness
{

/**
 * Run fn(0) ... fn(count - 1) on min(jobs, count) threads, the caller's
 * among them, and wait. The threads take indices from one shared atomic
 * counter, so one long task never strands the rest; jobs <= 1 runs every
 * index on the caller's thread, in index order. Every index runs even
 * when some throw; one failure is rethrown as it is, several are folded
 * into one FatalError carrying the count and the first few messages.
 */
void parallelFor(unsigned jobs, size_t count,
                 const std::function<void(size_t)> &fn);

} // namespace scd::harness

#endif // SCD_HARNESS_POOL_HH
