/**
 * @file
 * The in-order scoreboard timing model extracted from the original
 * monolithic core: an issue model with a register scoreboard, front-end
 * redirect penalties, branch prediction (a branch::Frontend held by
 * value and carrying the SCD JTE overlay — ideal single-level BTB by
 * default, optionally multi-level/FDIP — plus tournament/gshare
 * direction, RAS, optional VBBI and ITTAGE), caches and TLBs. Accounts
 * one retired instruction at a time, described by a RetireInfo or by a
 * threaded handler's record of the same shape (see retireAs); the
 * sequence of operations per instruction mirrors the original
 * Core::step() exactly, and under the
 * default ideal frontend statistics are bit-identical to the pre-split
 * simulator. Every organization runs through the same non-virtual
 * frontend port; non-ideal ones add probe bubbles and treat a false JTE
 * hit as a slow-path dispatch plus a resteer penalty (jteLookup reports
 * such probes as misses, so direct execution and the replay consumers
 * retire the same stream).
 */

#ifndef SCD_CPU_INORDER_TIMING_HH
#define SCD_CPU_INORDER_TIMING_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <variant>

#include "branch/btb.hh"
#include "branch/direction.hh"
#include "branch/frontend.hh"
#include "branch/ittage.hh"
#include "branch/jte_table.hh"
#include "branch/vbbi.hh"
#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "config.hh"
#include "functional_core.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "obs/trace.hh"
#include "timing_model.hh"

namespace scd::cpu
{

/**
 * Scoreboard timing for a (possibly multi-issue) in-order pipeline.
 *
 * One retire body, retireAs(), composed of the pipeline's stages: fetch,
 * issue (the scoreboard), execute (result latency and the data access),
 * control flow, and writeback. retire(), consume() and with them the
 * switch reference loop, replay and perfbench run it over a RetireInfo.
 * The fused timed path (ThreadedTier::exec<true>) runs the same body
 * inline in each threaded handler, over a record type whose handler-
 * known facts are compile-time constants, so those tests fold away.
 *
 * The event-trace hooks compile into one instantiation only, the one
 * retire() runs; every other instantiation carries no trace code. A
 * core with a buffer attached therefore steps the reference loop.
 */
class InOrderTiming final : public TimingModel
{
  public:
    explicit InOrderTiming(const CoreConfig &config);
    // Pinned in place: vbbi_ refers to frontend_.
    InOrderTiming(const InOrderTiming &) = delete;
    InOrderTiming &operator=(const InOrderTiming &) = delete;

    std::optional<uint64_t>
    jteLookup(uint8_t bank, uint64_t opcode) override
    {
        if (dedicatedJtes_)
            return dedicatedJtes_->lookup(bank, opcode);
        branch::FrontendProbe p = frontend_.probeJte(bank, opcode);
        cycle_ += p.bubbles;
        if (p.falseHit) [[unlikely]] {
            jteFalseResteer();
            return std::nullopt;
        }
        return p.target;
    }

    /** Account one retired instruction and record its events in the
     *  attached trace buffer, if any (the traced retire body). */
    void retire(const RetireInfo &ri) override;

    /** Batched retirement for replay consumers: the untraced retire body
     *  inline in a loop over a bop-free span. */
    void consume(const RetireInfo *ri, size_t n) override;

    /**
     * Account one retired instruction described by @p ri. R is
     * RetireInfo or a record type with RetireInfo's field names, any of
     * which may be a static constexpr member (see threaded_tier.cc's
     * SlotRetire); a constant field folds its test out of the body.
     * kTraced compiles the trace hooks in; only retire() sets it.
     */
    template <bool kTraced = false, class R> void retireAs(const R &ri);

    uint64_t cycles() const override { return cycle_; }
    void exportStats(StatGroup &group) const override;

    /** Attach a pipeline event-trace buffer (src/obs/trace.hh) to the
     *  model and its frontend; nullptr detaches it. */
    void attachTrace(obs::TraceBuffer *trace);

    /** True while a trace buffer is attached. */
    bool tracing() const { return trace_ != nullptr; }

    /** Invalidate all JTEs: what a retiring jte.flush does, and what an
     *  OS context switch does from outside the guest. */
    void jteFlush();

    /** JTEs resident in the frontend. */
    unsigned jteCount() const { return frontend_.jteCount(); }

  private:
    // ---- the stages of retireAs ------------------------------------------
    void fetch(uint64_t pc, uint32_t flags);
    template <bool kTraced, class R> void issue(const R &ri);
    template <class R> uint64_t execute(const R &ri);
    template <bool kTraced, class R> void controlFlow(const R &ri);
    template <class R> void writeback(const R &ri, uint64_t resultLatency);

    // ---- control flow, one per CtrlKind -----------------------------------
    template <bool kTraced, class R> void conditional(const R &ri);
    template <bool kTraced, class R> void jal(const R &ri);
    template <bool kTraced, class R> void jalr(const R &ri);
    template <bool kTraced, class R> void bop(const R &ri);
    template <bool kTraced, class R> void jru(const R &ri);

    /** Charge a partial-tag JTE alias's resteer (the probe misses). */
    void jteFalseResteer();

    /** Insert/refresh a JTE (a retiring jru with a pending insert). */
    void jteInsert(uint8_t bank, uint64_t opcode, uint64_t target);

    /** Charge a fetch from a new I$ block: ITLB, I$, L2. */
    void fetchBlock(uint64_t pc);
    uint64_t dataAccess(uint64_t addr, bool write);
    /** Cycles past an L1 miss: L2 hit or memory. */
    unsigned missPenalty(uint64_t addr);
    void
    redirect(unsigned penalty)
    {
        cycle_ += penalty;
        issuedThisCycle_ = width_; // next instruction starts a cycle
    }
    /** Count a retired branch of class ri.cls and whether it missed. */
    template <bool kTraced, class R>
    void recordBranch(const R &ri, bool mispredicted);

    /**
     * The configured direction predictor, held by its concrete (final)
     * type so predict/update inline instead of crossing a virtual call
     * per conditional branch.
     */
    using Direction =
        std::variant<branch::TournamentPredictor, branch::GsharePredictor>;
    static Direction makeDirection(const CoreConfig &config);

    bool
    predictTaken(uint64_t pc)
    {
        if (auto *t = std::get_if<branch::TournamentPredictor>(&direction_))
            return t->predict(pc);
        return std::get_if<branch::GsharePredictor>(&direction_)->predict(pc);
    }
    void
    trainDirection(uint64_t pc, bool taken)
    {
        if (auto *t = std::get_if<branch::TournamentPredictor>(&direction_))
            t->update(pc, taken);
        else
            std::get_if<branch::GsharePredictor>(&direction_)->update(pc,
                                                                     taken);
    }

    const CoreConfig &config_;
    unsigned width_;
    unsigned fetchBlockShift_; ///< log2(icache block bytes)
    obs::TraceBuffer *trace_ = nullptr;

    // Cycle accounting.
    uint64_t cycle_ = 0;
    uint64_t intReady_[32] = {};
    uint64_t fpReady_[32] = {};
    uint64_t lastFetchBlock_ = UINT64_MAX;
    uint64_t lastFetchPage_ = UINT64_MAX;
    uint64_t lastDataPage_ = UINT64_MAX;
    unsigned issuedThisCycle_ = 0;
    bool memIssuedThisCycle_ = false;
    bool branchIssuedThisCycle_ = false;

    // Components.
    branch::Frontend frontend_;
    branch::FrontendVbbi vbbi_{frontend_};
    std::unique_ptr<branch::JteTable> dedicatedJtes_;
    Direction direction_;
    std::unique_ptr<branch::ReturnAddressStack> ras_;
    std::unique_ptr<branch::Ittage> ittage_;
    std::unique_ptr<cache::Cache> icache_;
    std::unique_ptr<cache::Cache> dcache_;
    std::unique_ptr<cache::Cache> l2cache_;
    cache::Tlb itlb_;
    cache::Tlb dtlb_;

    // Statistics. The counts of the retired stream itself live here too:
    // this is the one place every retired instruction passes through, in
    // direct runs and replay alike.
    uint64_t instructions_ = 0;
    uint64_t dispatchInstructions_ = 0;
    uint64_t branchCount_[size_t(BranchClass::NumClasses)] = {};
    uint64_t branchMisses_[size_t(BranchClass::NumClasses)] = {};
    uint64_t bopFastHits_ = 0;
    uint64_t bopMisses_ = 0;
    uint64_t jteInserts_ = 0;
    uint64_t ropStallCycles_ = 0;
    uint64_t loadUseStalls_ = 0;
    uint64_t jteFalseResteers_ = 0; ///< false JTE hits resteered (non-ideal)
};

// ---------------------------------------------------------------------------
// The retire body. Every part is always inlined into its caller, so an
// instantiation over a record with constant fields is specialized through
// and through; sequence and arithmetic are the original Core::step()'s.
// ---------------------------------------------------------------------------

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::retireAs(const R &ri)
{
    fetch(ri.pc, ri.flags);
    issue<kTraced>(ri);
    uint64_t resultLatency = execute(ri);
    controlFlow<kTraced>(ri);
    writeback(ri, resultLatency);
}

[[gnu::always_inline]] inline void
InOrderTiming::fetch(uint64_t pc, uint32_t flags)
{
    ++instructions_;
    // Branchless: whether a pc is dispatch code flips constantly in
    // interpreter workloads, so a conditional increment would mispredict.
    dispatchInstructions_ +=
        (flags >> FunctionalCore::kDispatchRangeShift) & 1;
    if ((pc >> fetchBlockShift_) != lastFetchBlock_)
        fetchBlock(pc);
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::issue(const R &ri)
{
    const uint32_t flags = ri.flags;
    bool isMem = flags & (isa::FlagLoad | isa::FlagStore);
    bool isCtrl = flags & (isa::FlagBranch | isa::FlagJump);
    uint64_t start = cycle_;
    if (issuedThisCycle_ >= width_ ||
        (isMem && memIssuedThisCycle_) ||
        (isCtrl && branchIssuedThisCycle_)) {
        start = cycle_ + 1;
    }
    uint64_t issueAt = start;
    if (flags & isa::FlagReadsRs1)
        issueAt = std::max(issueAt, intReady_[ri.rs1]);
    if (flags & isa::FlagReadsRs2)
        issueAt = std::max(issueAt, intReady_[ri.rs2]);
    if (flags & isa::FlagFpReadsRs1)
        issueAt = std::max(issueAt, fpReady_[ri.rs1]);
    if (flags & isa::FlagFpReadsRs2)
        issueAt = std::max(issueAt, fpReady_[ri.rs2]);
    loadUseStalls_ += issueAt - start;
    if constexpr (kTraced) {
        if (trace_) {
            trace_->setCycle(issueAt);
            trace_->record(obs::TraceEventKind::Retire, ri.pc, 0, ri.op,
                           ri.ctrl == CtrlKind::None ? obs::kTraceNoClass
                                                     : uint8_t(ri.cls));
            if (issueAt > start) {
                trace_->record(obs::TraceEventKind::LoadUseStall, ri.pc,
                               issueAt - start, ri.op);
            }
        }
    }
    if (issueAt > cycle_) {
        issuedThisCycle_ = 1;
        memIssuedThisCycle_ = isMem;
        branchIssuedThisCycle_ = isCtrl;
    } else {
        ++issuedThisCycle_;
        memIssuedThisCycle_ |= isMem;
        branchIssuedThisCycle_ |= isCtrl;
    }
    cycle_ = issueAt;
}

/** Result latency, plus the data access of a load or a store. */
template <class R>
[[gnu::always_inline]] inline uint64_t
InOrderTiming::execute(const R &ri)
{
    uint64_t resultLatency;
    switch (ri.lat) {
      case LatClass::Mul: resultLatency = config_.mulLatency; break;
      case LatClass::Div: resultLatency = config_.divLatency; break;
      case LatClass::Fp: resultLatency = config_.fpLatency; break;
      case LatClass::FpDiv: resultLatency = config_.fpDivLatency; break;
      case LatClass::Load:
        resultLatency = dataAccess(ri.memAddr, false);
        break;
      default: resultLatency = config_.aluLatency; break;
    }
    if (ri.memIsStore) {
        uint64_t lat = dataAccess(ri.memAddr, true);
        // A store miss stalls the (blocking) memory stage.
        if (lat > config_.loadHitLatency)
            cycle_ += lat - config_.loadHitLatency;
    }
    return resultLatency;
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::controlFlow(const R &ri)
{
    switch (ri.ctrl) {
      case CtrlKind::None: break;
      case CtrlKind::Conditional: conditional<kTraced>(ri); break;
      case CtrlKind::Jal: jal<kTraced>(ri); break;
      case CtrlKind::Jalr: jalr<kTraced>(ri); break;
      case CtrlKind::Bop: bop<kTraced>(ri); break;
      case CtrlKind::Jru: jru<kTraced>(ri); break;
      case CtrlKind::JteFlush:
        if constexpr (kTraced) {
            if (trace_)
                trace_->record(obs::TraceEventKind::JteFlush, ri.pc, 0,
                               ri.op);
        }
        jteFlush();
        break;
    }
}

template <class R>
[[gnu::always_inline]] inline void
InOrderTiming::writeback(const R &ri, uint64_t resultLatency)
{
    if (ri.writesInt)
        intReady_[ri.rd] = cycle_ + resultLatency;
    if (ri.writesFp)
        fpReady_[ri.rd] = cycle_ + resultLatency;
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::conditional(const R &ri)
{
    bool predTaken = predictTaken(ri.pc);
    bool effectiveTaken = false;
    bool falseTarget = false;
    if (predTaken) {
        branch::FrontendProbe p = frontend_.probePc(ri.pc);
        cycle_ += p.bubbles;
        effectiveTaken = p.target.has_value();
        falseTarget = p.falseHit;
    }
    // A false hit steered a predicted-taken fetch to an aliased target:
    // wrong even when the direction guess was right.
    bool mispredict =
        effectiveTaken != ri.taken || (effectiveTaken && falseTarget);
    trainDirection(ri.pc, ri.taken);
    if (ri.taken)
        frontend_.insertPc(ri.pc, ri.nextPc);
    recordBranch<kTraced>(ri, mispredict);
    if (mispredict)
        redirect(config_.mispredictPenalty);
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::jal(const R &ri)
{
    branch::FrontendProbe p = frontend_.probePc(ri.pc);
    cycle_ += p.bubbles;
    bool hit = p.target.has_value() && !p.falseHit;
    frontend_.insertPc(ri.pc, ri.nextPc);
    if (ri.rd == isa::reg::ra)
        ras_->push(ri.pc + 4);
    recordBranch<kTraced>(ri, !hit);
    if (!hit) {
        // An aliased hit fetched down a wrong path and costs a full
        // execute-stage redirect; a plain miss only the decode one.
        redirect(p.falseHit ? config_.mispredictPenalty
                            : config_.btbMissTakenPenalty);
    }
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::jalr(const R &ri)
{
    bool mispredict;
    if (ri.isReturn) {
        mispredict = ras_->pop() != ri.nextPc;
    } else if (config_.vbbiEnabled && ri.hintReg >= 0) {
        auto pred = vbbi_.predict(ri.pc, ri.hintValue);
        mispredict = !pred || *pred != ri.nextPc;
        vbbi_.update(ri.pc, ri.hintValue, ri.nextPc);
    } else if (config_.ittageEnabled) {
        auto pred = ittage_->predict(ri.pc);
        mispredict = !pred || *pred != ri.nextPc;
        ittage_->update(ri.pc, ri.nextPc);
    } else {
        branch::FrontendProbe p = frontend_.probePc(ri.pc);
        cycle_ += p.bubbles;
        mispredict = !p.target || *p.target != ri.nextPc;
        frontend_.insertPc(ri.pc, ri.nextPc);
    }
    if (ri.rd == isa::reg::ra)
        ras_->push(ri.pc + 4);
    recordBranch<kTraced>(ri, mispredict);
    if (mispredict)
        redirect(config_.mispredictPenalty);
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::bop(const R &ri)
{
    // A bop never mispredicts: its JTE probe happened architecturally and
    // a miss (or an ineligible bop) falls through sequentially.
    recordBranch<kTraced>(ri, false);
    if (ri.bopHit)
        ++bopFastHits_;
    else
        ++bopMisses_;
    // The fetch stage stalled until Rop became forwardable.
    cycle_ += ri.ropStall;
    ropStallCycles_ += ri.ropStall;
    if constexpr (kTraced) {
        if (trace_ && ri.ropStall > 0) {
            trace_->record(obs::TraceEventKind::RopStall, ri.pc,
                           ri.ropStall, ri.op);
        }
    }
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::jru(const R &ri)
{
    branch::FrontendProbe p = frontend_.probePc(ri.pc);
    cycle_ += p.bubbles;
    bool mispredict = !p.target || *p.target != ri.nextPc;
    frontend_.insertPc(ri.pc, ri.nextPc);
    if (ri.jteInsert) {
        if constexpr (kTraced) {
            if (trace_) {
                trace_->record(obs::TraceEventKind::JteInsert, ri.pc,
                               ri.jteOpcode, ri.op, uint8_t(ri.cls));
            }
        }
        jteInsert(ri.bank, ri.jteOpcode, ri.nextPc);
        ++jteInserts_;
    }
    recordBranch<kTraced>(ri, mispredict);
    if (mispredict)
        redirect(config_.mispredictPenalty);
}

template <bool kTraced, class R>
[[gnu::always_inline]] inline void
InOrderTiming::recordBranch(const R &ri, bool mispredicted)
{
    ++branchCount_[size_t(ri.cls)];
    if (mispredicted) {
        ++branchMisses_[size_t(ri.cls)];
        if constexpr (kTraced) {
            if (trace_) {
                trace_->record(obs::TraceEventKind::Mispredict, ri.pc, 0,
                               ri.op, uint8_t(ri.cls));
            }
        }
    }
}

inline uint64_t
InOrderTiming::dataAccess(uint64_t addr, bool write)
{
    uint64_t page = addr >> 12;
    if (page != lastDataPage_) {
        lastDataPage_ = page;
        if (!dtlb_.access(addr))
            cycle_ += config_.tlbMissPenalty;
    }
    if (dcache_->access(addr, write)) [[likely]]
        return config_.loadHitLatency;
    return config_.loadHitLatency + missPenalty(addr);
}

} // namespace scd::cpu

#endif // SCD_CPU_INORDER_TIMING_HH
