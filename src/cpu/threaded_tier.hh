/**
 * @file
 * The threaded-code execution tier of the FunctionalCore: the fast tier
 * that must match the reference switch interpreter, applying the same
 * dispatch transformation the paper studies in guest interpreters to the
 * simulator's own hot loop.
 *
 * A one-pass translation lowers the pre-decoded text segment into a flat
 * stream of 32-byte TSlots, each carrying its handler index plus fully
 * pre-decoded operands (sign-extended immediate, flag word, register
 * indices, and — for direct branches — the taken-successor slot index).
 * Execution then chains handlers with GNU computed gotos
 * (`goto *kLabels[ip->hop]`), replacing the reference interpreter's
 * fetch/bounds-check/switch per instruction with one indirect jump per
 * instruction from a per-opcode dispatch site. The tree already relies
 * on GNU extensions (__int128, __builtin_memcpy), so every compiler that
 * builds it has labels-as-values too.
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
 * Guest self-modification: FunctionalCore::textWritten() reports dirty
 * slot ranges via noteTextWrite(). Translations are shared across cores
 * through a process-global cache, so the first write clones the program
 * (copy-on-write) and subsequent writes retranslate the dirty slots in
 * place. The executor pauses *between* instructions for that — a store
 * that hits text retires normally, then the run loop retranslates and
 * resumes at the architectural PC — so the slot stream never changes
 * mid-burst.
 */

#ifndef SCD_CPU_THREADED_TIER_HH
#define SCD_CPU_THREADED_TIER_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "retire_info.hh"

namespace scd::cpu
{

class FunctionalCore;
class InOrderTiming;

// Defined in threaded_tier.cc; opaque here.
struct TProgram; ///< a translated text segment (slots + sentinels)

/** Counters of the process-global translation cache (for tests/bench). */
struct ThreadedCacheStats
{
    uint64_t hits = 0;     ///< translations served from the cache
    uint64_t compiles = 0; ///< translations built (misses + invalidations)
    uint64_t entries = 0;  ///< live cached programs
};

ThreadedCacheStats threadedCacheStats();

/** Drop all cached translations and zero the counters (for tests). */
void resetThreadedCache();

/**
 * Per-core threaded execution engine. Built lazily by
 * FunctionalCore::ensureThreaded() from the core's decoded slots; executes
 * directly against the core's architectural state (friend access), so the
 * reference interpreter can take over at any instruction boundary.
 */
class ThreadedTier
{
  public:
    explicit ThreadedTier(FunctionalCore &core);
    ~ThreadedTier();
    ThreadedTier(const ThreadedTier &) = delete;
    ThreadedTier &operator=(const ThreadedTier &) = delete;

    /** Tier-equivalent of the step()-and-record loop; see FunctionalCore. */
    size_t runRecorded(RetireInfo *out, size_t cap);

    /**
     * Tier-equivalent of the step()-and-retire loop; see
     * FunctionalCore::runTimed. Each slot retires straight into
     * @p timing (its handler family's specialization of the retire
     * body),
     * before the next slot dispatches.
     */
    size_t runTimed(InOrderTiming &timing, size_t cap);

    /**
     * Invalidate the translation of slots [first, last) after a guest
     * text write (called by FunctionalCore::textWritten with the slots
     * already re-decoded). Safe mid-run: the executor observes the
     * pending flag when the writing store completes and pauses for
     * retranslation at the next instruction boundary.
     */
    void noteTextWrite(size_t first, size_t last);

  private:
    /** Why the executor handed control back to the run loop. */
    enum class ExecStatus : uint8_t
    {
        Exited,      ///< the guest's exit syscall retired
        Budget,      ///< instruction budget exhausted
        Retranslate, ///< a store dirtied text; retranslate, then resume
    };

    /**
     * Executor state folded to/from the core's architectural fields
     * around each burst; a local struct for the same reason as
     * FunctionalCore::HotState.
     */
    struct Cursor
    {
        size_t idx;            ///< current slot index (== (pc-base)/4)
        uint64_t retired;
        uint64_t pendingBadPc; ///< pc to report when idx = bad trampoline
    };

    /**
     * The handler-threaded executor: runs from cur.idx until @p budget
     * instructions retired or the status says why it stopped. Recording
     * (kTimed false) writes one RetireInfo per instruction at @p ri and
     * advances it; timed (kTimed true) ignores @p ri and retires each
     * instruction into @p timing on the spot.
     */
    template <bool kTimed>
    ExecStatus exec(Cursor &cur, RetireInfo *ri, InOrderTiming *timing,
                    uint64_t budget);

    /**
     * The burst loop shared by runRecorded and runTimed: run exec
     * until @p cap instructions retired or the guest exited, pausing
     * for retranslation, and fold the cursor back into the core (also
     * when a handler throws).
     */
    template <bool kTimed>
    size_t run(RetireInfo *out, InOrderTiming *timing, size_t cap);

    /** Translate (or fetch from the global cache) the core's slots. */
    static std::shared_ptr<const TProgram>
    translate(const FunctionalCore &core);

    /** The translation being executed (the COW clone once one exists). */
    const TProgram &prog() const;

    /** Retranslate the dirty slot range in place (COW-cloning first). */
    void applyDirty();

    /** Fold cur back into the core and map idx to an architectural PC. */
    void syncCore(const Cursor &cur);

    /** Build a Cursor from the core's state; validates pc. */
    Cursor makeCursor() const;

    FunctionalCore &core_;
    std::shared_ptr<const TProgram> prog_; ///< executing translation
    std::unique_ptr<TProgram> owned_;      ///< set once text went dirty
    size_t dirtyFirst_ = 0, dirtyLast_ = 0;
    bool dirtyPending_ = false;
};

} // namespace scd::cpu

#endif // SCD_CPU_THREADED_TIER_HH
