/**
 * @file
 * The simulated core: a thin façade composing a FunctionalCore (SRV64 +
 * SCD architectural execution) with the InOrderTiming scoreboard
 * pipeline. The split keeps the architecturally-visible
 * microarchitectural state — the jump-table entries consumed by bop
 * (paper §III-B) — consistent through the timing model's JTE port while
 * everything purely cycle-related stays in the timing model. run() is
 * the fused timed path: the functional core retires every instruction
 * straight into the concrete timing model. See docs/SIMULATOR.md
 * ("Architecture").
 */

#ifndef SCD_CPU_CORE_HH
#define SCD_CPU_CORE_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "config.hh"
#include "functional_core.hh"
#include "inorder_timing.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "retire_info.hh"

namespace scd::cpu
{

/** Outcome of Core::run(). */
struct RunResult
{
    int exitCode = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    bool exited = false; ///< false if the instruction limit was hit
};

/** The simulated core. */
class Core final
{
  public:
    Core(const CoreConfig &config, mem::GuestMemory &memory);

    /** Pre-decode and map the text segment; resets the PC to its entry. */
    void
    loadProgram(const isa::Program &prog)
    {
        functional_.loadProgram(prog);
    }

    /** Attach interpreter metadata (may be empty). */
    void
    setDispatchMeta(const DispatchMeta &meta)
    {
        functional_.setDispatchMeta(meta);
    }

    /** Arm the per-point wall-clock watchdog (<= 0 disarms). */
    void armWatchdog(double seconds) { functional_.armWatchdog(seconds); }

    /**
     * Select the execution tier of run() (see cpu/dispatch_tier.hh;
     * default Threaded). Switch steps the reference interpreter; both
     * tiers retire the same stream into the same timing model. While
     * timing() has a trace buffer attached, run() steps the reference
     * interpreter on either tier (only its retire records events).
     */
    void
    setDispatchTier(DispatchTier tier)
    {
        functional_.setDispatchTier(tier);
    }
    DispatchTier dispatchTier() const { return functional_.dispatchTier(); }

    /**
     * Run until the guest exits or @p maxInstructions retire
     * (0 = unlimited), in bursts of at most Watchdog::kCheckInterval
     * instructions with a watchdog check between bursts.
     */
    RunResult run(uint64_t maxInstructions = 0);

    /** Accumulated guest console output. */
    const std::string &output() const { return functional_.output(); }

    /** Counter snapshot of every statistic the harness consumes. */
    StatGroup collectStats() const;

    /** The composed timing model. */
    InOrderTiming &timing() { return timing_; }

    const CoreConfig &config() const { return config_; }

    /** Architectural register read (for tests). */
    uint64_t readReg(unsigned r) const { return functional_.readReg(r); }
    double readFreg(unsigned r) const { return functional_.readFreg(r); }

  private:
    CoreConfig config_;
    InOrderTiming timing_;
    FunctionalCore functional_;
};

} // namespace scd::cpu

#endif // SCD_CPU_CORE_HH
