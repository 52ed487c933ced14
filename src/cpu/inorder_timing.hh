/**
 * @file
 * The in-order scoreboard timing model extracted from the original
 * monolithic core: an issue model with a register scoreboard, front-end
 * redirect penalties, branch prediction (a branch::Frontend held by
 * value and carrying the SCD JTE overlay — ideal single-level BTB by
 * default, optionally multi-level/FDIP — plus tournament/gshare
 * direction, RAS, optional VBBI and ITTAGE), caches and TLBs. Consumes
 * one RetireInfo per retired instruction; the sequence of operations per
 * instruction mirrors the original Core::step() exactly, and under the
 * default ideal frontend statistics are bit-identical to the pre-split
 * simulator. Every organization runs through the same non-virtual
 * frontend port; non-ideal ones add probe bubbles and treat a false JTE
 * hit as a slow-path dispatch plus a resteer penalty (jteLookup reports
 * such probes as misses, so direct execution and the replay consumers
 * retire the same stream).
 */

#ifndef SCD_CPU_INORDER_TIMING_HH
#define SCD_CPU_INORDER_TIMING_HH

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
#include "obs/trace.hh"
#include "timing_model.hh"

namespace scd::cpu
{

/**
 * Scoreboard timing for a (possibly multi-issue) in-order pipeline.
 * Final, so the fused timed loop (Core::run through
 * FunctionalCore::runTimed) and consume() call retire() directly.
 */
class InOrderTiming final : public TimingModel
{
  public:
    explicit InOrderTiming(const CoreConfig &config);
    // Pinned in place: vbbi_ refers to frontend_.
    InOrderTiming(const InOrderTiming &) = delete;
    InOrderTiming &operator=(const InOrderTiming &) = delete;

    std::optional<uint64_t> jteLookup(uint8_t bank,
                                      uint64_t opcode) override;
    void retire(const RetireInfo &ri) override;

    /**
     * Batched retirement for the replay consumer path: one virtual call
     * per bop-free span, with the per-instruction retire() devirtualized
     * inside the loop.
     */
    void
    consume(const RetireInfo *ri, size_t n) override
    {
        for (size_t i = 0; i < n; ++i)
            InOrderTiming::retire(ri[i]);
    }

    uint64_t cycles() const override { return cycle_; }
    void exportStats(StatGroup &group) const override;
    void attachTrace(obs::TraceBuffer *trace) override;

    /** Invalidate all JTEs: what a retiring jte.flush does, and what an
     *  OS context switch does from outside the guest. */
    void jteFlush();

    /** JTEs resident in the frontend. */
    unsigned jteCount() const { return frontend_.jteCount(); }

  private:
    /** Insert/refresh a JTE (a retiring jru with a pending insert). */
    void jteInsert(uint8_t bank, uint64_t opcode, uint64_t target);

    void chargeFetch(uint64_t pc);
    uint64_t dataAccess(uint64_t addr, bool write);
    void redirect(unsigned penalty);
    /** Count a retired branch of class ri.cls and whether it missed. */
    void recordBranch(const RetireInfo &ri, bool mispredicted);

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

} // namespace scd::cpu

#endif // SCD_CPU_INORDER_TIMING_HH
