/**
 * @file
 * Deterministic fault injection for testing the harness's recovery
 * paths.
 *
 * The layer is compile-time gated like the event-trace hooks: the CMake
 * option SCD_FAULTINJ defines SCD_FAULT_ENABLED and turns the
 * SCD_FAULT_POINT(site) macro into a real check; otherwise the macro
 * compiles to nothing and release binaries carry zero overhead.
 *
 * A fault is armed either from the environment,
 *
 *     SCD_FAULT=<site>:<nth>   (e.g. SCD_FAULT=replay-ring:3)
 *
 * or programmatically via faultinj::arm(). When the armed site is hit
 * for the nth time, the layer disarms itself (one-shot) and throws a
 * FatalError "injected fault at <site> (occurrence <n>)" — except the
 * special "point-oom" site, which throws std::bad_alloc to exercise
 * the per-point out-of-memory guard.
 *
 * Registered sites (tests iterate registeredSites() to prove every
 * recovery path fires):
 *   guest-trap   runner.cc, after the guest finishes — simulates a
 *                guest runtime trap / nonzero exit
 *   replay-ring  replay.cc, producer chunk loop — simulates a failure
 *                inside the execute-once replay engine
 *   json-write   stats_sink.cc, writeTo — simulates an I/O failure
 *                while exporting the stats JSON
 *   point-oom    replay.cc, contained point wrapper — simulates an
 *                allocation failure inside one experiment point
 */

#ifndef SCD_COMMON_FAULT_INJECT_HH
#define SCD_COMMON_FAULT_INJECT_HH

#include <string>
#include <vector>

namespace scd::faultinj
{

/** Site names with an SCD_FAULT_POINT call site, for tests. */
const std::vector<std::string> &registeredSites();

/**
 * Arm a one-shot fault at @p site, firing on the @p nth hit (1-based).
 * @p site must name a registered site: a typo'd SCD_FAULT used to be
 * accepted and then silently never fire, so unknown names now throw a
 * FatalError listing the registry.
 */
void arm(const std::string &site, unsigned nth);

/** Disarm any pending fault and reset hit counters. */
void disarm();

/** True if a fault is currently armed (for skip logic in tests). */
bool armed();

/**
 * Record a hit at @p site; throws if this hit matches the armed
 * (site, nth) pair. Called via SCD_FAULT_POINT, not directly.
 * On first use reads SCD_FAULT from the environment.
 */
void hit(const char *site);

/** True when the fault-injection layer is compiled in. */
constexpr bool
compiledIn()
{
#ifdef SCD_FAULT_ENABLED
    return true;
#else
    return false;
#endif
}

} // namespace scd::faultinj

#ifdef SCD_FAULT_ENABLED
#define SCD_FAULT_POINT(site) ::scd::faultinj::hit(site)
#else
#define SCD_FAULT_POINT(site) ((void)0)
#endif

#endif // SCD_COMMON_FAULT_INJECT_HH
