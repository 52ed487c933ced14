/**
 * @file
 * The functional half of the simulated core: architectural state (integer
 * and FP register files, the SCD register banks Rop/Rmask/Rbop-pc, guest
 * memory, syscalls), the lowered text segment, and one-instruction
 * execution. Each step emits a compact RetireInfo record: runTimed()
 * retires each one straight into the core's InOrderTiming, runRecorded()
 * fills a buffer (the record lockstep tests and perfbench's profile).
 *
 * The text is decoded once: loadProgram() lowers every word into a
 * 16-byte Slot, and the reference step() and both executors of the
 * threaded tier (threaded_tier.hh) fetch from that one array. A guest
 * store into text re-lowers the touched slots in place, so the next fetch
 * on either tier runs the new code.
 */

#ifndef SCD_CPU_FUNCTIONAL_CORE_HH
#define SCD_CPU_FUNCTIONAL_CORE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "config.hh"
#include "dispatch_tier.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"
#include "mem/memory.hh"
#include "retire_info.hh"
#include "watchdog.hh"

namespace scd::cpu
{

class InOrderTiming;
class TimingModel;
class ThreadedTier;

/**
 * Program metadata supplied by the guest builders: which PC ranges belong
 * to dispatcher code (Figure 3), which jumps are the dispatch jumps
 * (Figure 2), and VBBI hint registers for marked indirect jumps.
 */
struct DispatchMeta
{
    std::vector<std::pair<uint64_t, uint64_t>> dispatchRanges; ///< [lo, hi)
    std::set<uint64_t> dispatchJumpPcs;
    std::map<uint64_t, uint8_t> vbbiHints; ///< jump pc -> hint register
};

/** Architectural state and single-instruction execution. */
class FunctionalCore
{
  public:
    /**
     * @p timing provides the architectural JTE port consulted by bop and
     * jru; @p config supplies the SCD knobs (scdEnabled, bopPolicy,
     * ropForwardDistance) that are architecturally visible. Both must
     * outlive the core.
     */
    FunctionalCore(const CoreConfig &config, mem::GuestMemory &memory,
                   TimingModel &timing);

    /** Lower and map the text segment; resets the PC to its entry. */
    void loadProgram(const isa::Program &prog);

    /** Attach interpreter metadata (may be empty). */
    void setDispatchMeta(const DispatchMeta &meta);

    /**
     * Select the execution tier used by runTimed() and runRecorded()
     * (default: Threaded). step() always runs the reference
     * interpreter; the tiers retire bit-identical streams either way.
     */
    void setDispatchTier(DispatchTier tier) { tier_ = tier; }
    DispatchTier dispatchTier() const { return tier_; }

    /**
     * Execute one instruction on the reference interpreter and fill @p ri
     * for the timing model. Returns false once the guest has exited.
     */
    bool
    step(RetireInfo *ri)
    {
        HotState hs{pc_, retired_};
        bool live = stepImpl(ri, hs);
        pc_ = hs.pc;
        retired_ = hs.retired;
        return live;
    }

    /**
     * Execute and record: fill up to @p cap RetireInfo records (the
     * stream a timing model would see) and return the number filled.
     * Stops early only when the guest exits; a partial fill with
     * exited() == false never happens. Equivalent to a step() loop but
     * runs on the selected dispatch tier.
     */
    size_t runRecorded(RetireInfo *out, size_t cap);

    /**
     * Execute and retire: run up to @p cap instructions on the selected
     * tier, retiring each into @p timing before the next one executes,
     * and return the number retired. Stops early only when the guest
     * exits. On Switch, and whenever @p timing has a trace buffer
     * attached, this is the reference step()-then-retire loop; on
     * Threaded each handler retires its slot into @p timing through its
     * family's specialization of the retire body, between slots. @p
     * timing must be the model whose JTE port the core was built with,
     * so a bop probes the JTEs that earlier retires inserted.
     */
    size_t runTimed(InOrderTiming &timing, size_t cap);

    bool exited() const { return exited_; }
    int exitCode() const { return exitCode_; }
    uint64_t retired() const { return retired_; }

    /**
     * The pc of the next instruction to run; after a guest fault, the
     * faulting instruction or the bad target.
     */
    uint64_t pc() const { return pc_; }

    /**
     * Arm the cooperative wall-clock watchdog: the run loops throw
     * TimeoutError once @p seconds elapse (<= 0 disarms).
     */
    void armWatchdog(double seconds) { watchdog_.arm(seconds); }
    const Watchdog &watchdog() const { return watchdog_; }

    /** Accumulated guest console output. */
    const std::string &output() const { return output_; }

    /** Architectural register read (for tests). */
    uint64_t readReg(unsigned r) const { return x_[r]; }
    double readFreg(unsigned r) const { return f_[r]; }

    /**
     * Fold the one counter the retired stream cannot show into @p group:
     * scd.bopFallThroughForced. Everything countable from the stream
     * (instructions, branch classes, bop hits/misses, JTE inserts) is
     * counted by the timing model that retires it.
     */
    void exportStats(StatGroup &group) const;

    /**
     * One lowered text slot: the decoded instruction's fields next to
     * the cached flag word (which also encodes the VBBI hint, see
     * PcFlags), so a fetch touches a single 16-byte array entry. op is
     * the slot's handler index on the threaded tier: an isa::Opcode in
     * the text, and kEndOfText / kBadPc in the two sentinel slots
     * appended after it, which slotAt() never reaches.
     */
    struct Slot
    {
        isa::Opcode op = isa::Opcode::EBREAK;
        uint8_t rd = 0;
        uint8_t rs1 = 0;
        uint8_t rs2 = 0;
        uint8_t bank = 0;  ///< SCD jump-table bank
        int32_t imm = 0;   ///< sign-extended immediate (branch/jal: bytes)
        uint32_t flags = 0; ///< isa::OpFlags | core-private PcFlags
    };
    static_assert(sizeof(Slot) == 16,
                  "a Slot stays 16 bytes for power-of-two indexing");

    /** The sentinel slots' ops: past every isa::Opcode. */
    static constexpr isa::Opcode kEndOfText = isa::Opcode(isa::kNumOpcodes);
    static constexpr isa::Opcode kBadPc = isa::Opcode(isa::kNumOpcodes + 1);

    /**
     * Per-slot flag word cached at load time so step() never consults
     * the opcodeInfo table: the low bits are the opcode's isa::OpFlags,
     * the high bits the core-private dispatch-metadata flags below. The
     * word is exported verbatim in RetireInfo::flags, where the timing
     * model counts dispatchInstructions from PcFlagInDispatchRange.
     */
    static constexpr unsigned kDispatchRangeShift = 24;
    static constexpr unsigned kVbbiHintShift = 26;
    enum PcFlags : uint32_t
    {
        /** Counts toward Figure 3 (see kDispatchRangeShift). */
        PcFlagInDispatchRange = 1u << kDispatchRangeShift,
        PcFlagDispatchJump = 1u << 25, ///< the dispatch indirect jump
        // Bits [31:26] hold the VBBI hint register + 1 (0 = unmarked),
        // packed here so a Slot stays 16 bytes.
    };

  private:
    struct ScdBank
    {
        uint64_t rmask = 0;
        uint64_t ropData = 0;
        bool ropValid = false;
        uint64_t rbopPc = UINT64_MAX;
        uint64_t ropWriteIndex = 0; ///< retire index of the .op producer
    };

    /**
     * Per-instruction mutable state threaded through stepImpl as a local
     * of the caller instead of member fields: guest stores are memcpys
     * through pointers the optimizer cannot reason about, so members
     * would be spilled and reloaded around every memory access, while a
     * local whose address never escapes stays in registers for the whole
     * run loop.
     */
    struct HotState
    {
        uint64_t pc;
        uint64_t retired;
    };

    /** The step body: execute one instruction and fill @p ri. */
    bool stepImpl(RetireInfo *ri, HotState &hs);

    void handleSyscall();
    uint64_t loadValue(isa::Opcode op, uint64_t addr);
    void storeValue(const Slot &slot, uint64_t addr);

    // ---- semantics helpers shared by both dispatch tiers ----------------
    // Defined inline in functional_core_inl.hh and included by both
    // functional_core.cc and threaded_tier.cc: one body per semantic
    // rule, so the tiers cannot drift apart.
    /** jru's Rop consumption; returns whether a JTE insert is due. */
    inline bool jruConsume(uint8_t bank, uint64_t &jteOpcode);
    /**
     * The bop instruction minus control flow: eligibility, the JTE
     * probe through @p port, and the Rbop-pc update. @p retiredIdx is
     * the retire index of the bop itself. Returns the short-circuit
     * target on a hit. @p port is the core's own JTE port: the
     * TimingModel, or on the fused timed path the same object as its
     * concrete InOrderTiming, so the probe is a direct call.
     */
    template <class Port>
    std::optional<uint64_t>
    bopExec(Port &port, uint8_t bank, uint64_t pc, uint64_t retiredIdx,
            uint32_t &ropStall, bool &bopProbed, bool &bopHit,
            uint64_t &jteOpcode);

    /**
     * Guest self-modification hook, called after every store: when the
     * stored bytes can overlap the text segment, re-lower the touched
     * slots from memory in place (keeping the dispatch-metadata flag
     * bits). The fast-path cost is one subtract + compare; the ±8-byte
     * fringe keeps that reject branch-free for spanning stores.
     */
    void
    noteIfTextWrite(uint64_t addr, unsigned width)
    {
        if (addr - (textBase_ - 8) < textLimit_ + 16) [[unlikely]]
            textWritten(addr, width);
    }
    void textWritten(uint64_t addr, unsigned width);

    /** Decode @p word into a slot carrying its opcode's flag word. */
    static Slot lower(uint32_t word);

    /**
     * Fetch the decoded slot at @p pc. Inline with the panic path out of
     * line: the bounds check is on the hottest path there is and must
     * not drag the message-formatting machinery into it.
     */
    const Slot &
    slotAt(uint64_t pc) const
    {
        // A pc below textBase_ wraps to a huge offset and fails the limit
        // check; misalignment is caught by the low bits (textBase_ is
        // word-aligned).
        uint64_t off = pc - textBase_;
        if (off >= textLimit_ || (off & 3) != 0)
            badFetch(pc);
        return slots_[off >> 2];
    }

    [[noreturn]] void badFetch(uint64_t pc) const;

    static int16_t
    vbbiHintOf(uint32_t flags)
    {
        return int16_t(int(flags >> kVbbiHintShift) - 1);
    }

    const CoreConfig &config_;
    mem::GuestMemory &mem_;
    TimingModel &timing_; ///< JTE port only; never charged cycles here

    // Lowered text segment: one slot per text word, then the sentinels.
    uint64_t textBase_ = 0;
    uint64_t textLimit_ = 0; ///< text size in bytes (4 * text slots)
    std::vector<Slot> slots_;

    // Architectural state.
    uint64_t pc_ = 0;
    uint64_t x_[32] = {};
    double f_[32] = {};
    static constexpr unsigned kScdBanks = 4;
    ScdBank banks_[kScdBanks];
    uint64_t retired_ = 0;

    // bops the Rop forwarding distance forced down the slow path. They
    // retire like any ineligible bop, so only bopExec can count them.
    uint64_t bopFallThroughForced_ = 0;

    // Guest interaction.
    std::string output_;
    bool exited_ = false;
    int exitCode_ = 0;
    Watchdog watchdog_;

    // The threaded execution tier (src/cpu/threaded_tier.hh) keeps no
    // state: it runs the slots above and reads and writes the
    // architectural state directly.
    friend class ThreadedTier;
    DispatchTier tier_ = DispatchTier::Threaded;
};

} // namespace scd::cpu

#endif // SCD_CPU_FUNCTIONAL_CORE_HH
