/**
 * @file
 * Deterministic fault injection for testing the harness's recovery
 * paths that no real input reaches.
 *
 * The sites are compiled into every build; a fault is armed only from
 * code, with faultinj::arm(). When the armed site is hit for the nth
 * time, the layer disarms itself (one-shot) and throws a FatalError
 * "injected fault at <site> (occurrence <n>)" — except the "point-oom"
 * site, which throws std::bad_alloc to exercise the per-point
 * out-of-memory guard. A visit to a site while nothing is armed costs
 * one atomic load; sites run once per point or once per replay chunk.
 *
 * Registered sites (tests iterate registeredSites() to prove every
 * recovery path fires):
 *   replay-ring  replay.cc, producer chunk loop — a failure inside the
 *                execute-once replay engine: the group falls back to
 *                the direct path and its points end Degraded
 *   point-oom    replay.cc, contained point wrapper — an allocation
 *                failure inside one experiment point
 */

#ifndef SCD_COMMON_FAULT_INJECT_HH
#define SCD_COMMON_FAULT_INJECT_HH

#include <string>
#include <vector>

namespace scd::faultinj
{

/** Site names with a hit() call site, for tests. */
const std::vector<std::string> &registeredSites();

/**
 * Arm a one-shot fault at @p site, firing on the @p nth hit (1-based).
 * @p site must name a registered site: an unknown name throws a
 * FatalError listing the registry instead of silently never firing.
 */
void arm(const std::string &site, unsigned nth);

/** Disarm any pending fault and reset hit counters. */
void disarm();

/** True if a fault is currently armed. */
bool armed();

/** Record a hit at @p site; throws if this hit matches the armed
 *  (site, nth) pair. */
void hit(const char *site);

} // namespace scd::faultinj

#endif // SCD_COMMON_FAULT_INJECT_HH
