/**
 * @file
 * The threaded-code execution tier of the FunctionalCore: the fast tier
 * that must match the reference switch interpreter, applying the same
 * dispatch transformation the paper studies in guest interpreters to the
 * simulator's own hot loop.
 *
 * The tier runs the core's own lowered text: the 16-byte slots that
 * FunctionalCore::loadProgram() builds and the reference step() fetches
 * from, whose op doubles as the handler index. Execution chains handlers
 * with GNU computed gotos (`goto *kLabels[ip->op]`), replacing the
 * reference interpreter's fetch/bounds-check/switch per instruction with
 * one indirect jump per instruction from a per-opcode dispatch site. A
 * transfer checks its target against the text the way the reference
 * fetch does; the two sentinel slots after the text fault a fall-through
 * off its end and a transfer out of it. The tree already relies on GNU
 * extensions (__int128, __builtin_memcpy), so every compiler that builds
 * it has labels-as-values too.
 *
 * One handler body, two instantiations of the executor: recording
 * (runRecorded) appends one RetireInfo per slot to a buffer for replay
 * consumers; timed (runTimed, behind Core::run) retires each slot into
 * a concrete InOrderTiming before the next slot dispatches, so a bop's
 * JTE probe sees the previous retire's insert. Each timed handler calls
 * its family's specialization of InOrderTiming's retire body, with what
 * the family knows of its opcodes as compile-time constants and the
 * slot's run-time fields in registers; no RetireInfo is built on that
 * path.
 *
 * The tier contract: a threaded run retires the bit-identical RetireInfo
 * stream — same architectural effects, same traps, same SCD-bank updates,
 * same stats counters — as the reference switch tier (enforced by
 * tests/dispatch_tier_test.cc). It shares the semantic helper bodies in
 * functional_core_inl.hh with the reference interpreter, so per-rule
 * logic exists exactly once.
 *
 * Guest self-modification: a store into text re-lowers the touched slots
 * in place (FunctionalCore::textWritten) before it retires. A store
 * retires as the instruction it was when fetched, and the next dispatch
 * reads the new slots, exactly like the reference's next fetch.
 */

#ifndef SCD_CPU_THREADED_TIER_HH
#define SCD_CPU_THREADED_TIER_HH

#include <cstddef>
#include <cstdint>

#include "retire_info.hh"

namespace scd::cpu
{

class FunctionalCore;
class InOrderTiming;

/**
 * The threaded executor. It keeps no state of its own: each run reads
 * and writes the core's slots and architectural state directly (friend
 * access), so the reference interpreter can take over at any instruction
 * boundary.
 */
class ThreadedTier
{
  public:
    /** Tier-equivalent of the step()-and-record loop; see FunctionalCore. */
    static size_t runRecorded(FunctionalCore &core, RetireInfo *out,
                              size_t cap);

    /**
     * Tier-equivalent of the step()-and-retire loop; see
     * FunctionalCore::runTimed. Each slot retires straight into
     * @p timing (its handler family's specialization of the retire
     * body), before the next slot dispatches.
     */
    static size_t runTimed(FunctionalCore &core, InOrderTiming &timing,
                           size_t cap);

  private:
    /**
     * Executor state folded to/from the core's architectural fields
     * around a run; a local struct for the same reason as
     * FunctionalCore::HotState.
     */
    struct Cursor
    {
        size_t idx;            ///< current slot index (== (pc-base)/4)
        uint64_t retired;
        uint64_t pendingBadPc; ///< pc to report when idx = the kBadPc slot
    };

    /**
     * The handler-threaded executor: runs from cur.idx until @p budget
     * (> 0) instructions retired or the guest exited. Recording (kTimed
     * false) writes one RetireInfo per instruction at @p ri and advances
     * it; timed (kTimed true) ignores @p ri and retires each instruction
     * into @p timing on the spot.
     */
    template <bool kTimed>
    static void exec(FunctionalCore &c, Cursor &cur, RetireInfo *ri,
                     InOrderTiming *timing, uint64_t budget);

    /**
     * The run shared by runRecorded and runTimed: one exec of up to
     * @p cap instructions, with the cursor folded back into the core
     * (also when a handler throws).
     */
    template <bool kTimed>
    static size_t run(FunctionalCore &c, RetireInfo *out,
                      InOrderTiming *timing, size_t cap);

    /** Fold cur back into the core and map idx to an architectural PC. */
    static void syncCore(FunctionalCore &c, const Cursor &cur);

    /** Build a Cursor from the core's state; validates pc. */
    static Cursor makeCursor(const FunctionalCore &c);
};

} // namespace scd::cpu

#endif // SCD_CPU_THREADED_TIER_HH
