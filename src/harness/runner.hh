/**
 * @file
 * Experiment runner: compiles a script for one of the two VMs, builds the
 * guest world for the scheme's dispatch variant, runs it on a configured
 * core, and returns the statistics the paper's figures are built from.
 */

#ifndef SCD_HARNESS_RUNNER_HH
#define SCD_HARNESS_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/stats.hh"
#include "core/scheme.hh"
#include "cpu/config.hh"
#include "cpu/core.hh"
#include "guest/guest_program.hh"
#include "workloads.hh"

namespace scd::obs
{
class TraceBuffer;
}

namespace scd::harness
{

/** Which VM interprets the script. */
enum class VmKind
{
    Rlua, ///< register-based, Lua-like
    Sjs,  ///< stack-based, SpiderMonkey-like
};

inline const char *
vmName(VmKind vm)
{
    return vm == VmKind::Rlua ? "rlua" : "sjs";
}

/** Everything a figure needs from one simulation. */
struct ExperimentResult
{
    cpu::RunResult run;
    StatGroup stats;
    std::string output;
    uint64_t interpreterTextBytes = 0;
    /** Wall time of Core::run() alone, excluding compile/setup. */
    double simSeconds = 0.0;

    /** Simulator speed: retired guest instructions per host second. */
    double
    instructionsPerSecond() const
    {
        return simSeconds > 0 ? double(run.instructions) / simSeconds : 0.0;
    }

    double
    mpki(const std::string &counter) const
    {
        return run.instructions == 0
                   ? 0.0
                   : 1000.0 * double(stats.get(counter)) /
                         double(run.instructions);
    }

    /** Total branch mispredictions per kilo-instruction. */
    double branchMpki() const;

    /** I-cache misses per kilo-instruction. */
    double
    icacheMpki() const
    {
        return mpki("icache.misses");
    }

    /** Fraction of retired instructions inside dispatcher code. */
    double
    dispatchFraction() const
    {
        return run.instructions == 0
                   ? 0.0
                   : double(stats.get("dispatchInstructions")) /
                         double(run.instructions);
    }
};

/**
 * Run @p source under @p vm with @p scheme on a core derived from
 * @p machine. The scheme picks both the interpreter binary (jump
 * threading is a software variant) and the hardware knobs (SCD / VBBI).
 * A non-null @p trace is attached to the core's timing model before the
 * run, which then records its pipeline events (src/obs/trace.hh) and
 * steps the reference interpreter; the numbers are the same either way.
 * A positive @p timeoutSeconds arms the core's cooperative watchdog:
 * the run throws TimeoutError when the deadline expires. @p tier picks
 * Core::run's execution tier; the results do not depend on it.
 */
ExperimentResult runExperiment(
    VmKind vm, const std::string &source, core::Scheme scheme,
    const cpu::CoreConfig &machine, uint64_t maxInstructions = 0,
    obs::TraceBuffer *trace = nullptr, double timeoutSeconds = 0.0,
    cpu::DispatchTier tier = cpu::DispatchTier::Threaded);

/** Convenience: run a Table III workload at the given input size. */
ExperimentResult runWorkload(
    VmKind vm, const Workload &workload, InputSize size,
    core::Scheme scheme, const cpu::CoreConfig &machine,
    uint64_t maxInstructions = 0, obs::TraceBuffer *trace = nullptr,
    double timeoutSeconds = 0.0,
    cpu::DispatchTier tier = cpu::DispatchTier::Threaded);

/** The interpreter binary variant a scheme runs on. */
guest::DispatchKind dispatchForScheme(core::Scheme scheme);

/**
 * Compile @p source for @p vm with @p kind dispatch, memoized in a
 * process-global cache keyed by (vm, source hash, dispatch kind) — the
 * guest binary depends on nothing else. Thread-safe; compilation of a
 * new key happens outside the lock so concurrent first touches of
 * different keys do not serialize.
 */
std::shared_ptr<const guest::GuestProgram>
compileGuest(VmKind vm, const std::string &source,
             guest::DispatchKind kind);

/** Hit/compile counters of the guest compile cache (for tests). */
struct GuestCacheStats
{
    uint64_t hits = 0;
    uint64_t compiles = 0;
};

GuestCacheStats guestCacheStats();

/** Drop all cached guests and zero the counters (tests). */
void resetGuestCache();

} // namespace scd::harness

#endif // SCD_HARNESS_RUNNER_HH
