#include "inorder_timing.hh"

#include "common/bitutil.hh"

namespace scd::cpu
{

// obs/trace.hh mirrors this value so the trace library stays independent
// of the cpu headers; keep them in lockstep.
static_assert(uint8_t(BranchClass::IndirectDispatch) ==
              obs::kTraceDispatchClass);

InOrderTiming::InOrderTiming(const CoreConfig &config)
    : config_(config),
      width_(config.issueWidth),
      fetchBlockShift_(floorLog2(config.icache.blockBytes)),
      frontend_(config.frontend, config.btb),
      direction_(makeDirection(config)),
      itlb_(config.itlbEntries),
      dtlb_(config.dtlbEntries)
{
    if (config.scdDedicatedTable) {
        dedicatedJtes_ =
            std::make_unique<branch::JteTable>(config.dedicatedJteEntries);
    }
    if (config.ittageEnabled)
        ittage_ = std::make_unique<branch::Ittage>();
    ras_ = std::make_unique<branch::ReturnAddressStack>(config.rasDepth);
    icache_ = std::make_unique<cache::Cache>(config.icache);
    dcache_ = std::make_unique<cache::Cache>(config.dcache);
    if (config.hasL2)
        l2cache_ = std::make_unique<cache::Cache>(config.l2cache);
}

InOrderTiming::Direction
InOrderTiming::makeDirection(const CoreConfig &config)
{
    if (config.predictor == PredictorKind::Tournament) {
        return Direction(std::in_place_type<branch::TournamentPredictor>,
                         config.globalPredictorEntries,
                         config.localPredictorEntries);
    }
    return Direction(std::in_place_type<branch::GsharePredictor>,
                     config.gshareEntries);
}

void
InOrderTiming::jteFalseResteer()
{
    // A partial-tag alias dispatched fetch to another opcode's handler.
    // The JTE target contract (architecturally exact) is broken, so the
    // dispatch falls back to the slow path — the caller sees a miss and
    // retires the same stream as one — and the wrong-path fetch costs a
    // full resteer.
    ++jteFalseResteers_;
    cycle_ += config_.mispredictPenalty;
}

void
InOrderTiming::jteInsert(uint8_t bank, uint64_t opcode, uint64_t target)
{
    if (dedicatedJtes_) {
        dedicatedJtes_->insert(bank, opcode, target);
        return;
    }
    frontend_.insertJte(bank, opcode, target);
}

void
InOrderTiming::jteFlush()
{
    frontend_.flushJtes();
    if (dedicatedJtes_)
        dedicatedJtes_->flush();
}

void
InOrderTiming::fetchBlock(uint64_t pc)
{
    lastFetchBlock_ = pc >> fetchBlockShift_;
    uint64_t page = pc >> 12;
    if (page != lastFetchPage_) {
        lastFetchPage_ = page;
        if (!itlb_.access(pc))
            cycle_ += config_.tlbMissPenalty;
    }
    if (!icache_->access(pc))
        cycle_ += missPenalty(pc);
}

unsigned
InOrderTiming::missPenalty(uint64_t addr)
{
    if (!l2cache_)
        return config_.memLatency;
    return l2cache_->access(addr) ? config_.l2HitLatency
                                  : config_.l2HitLatency + config_.memLatency;
}

void
InOrderTiming::attachTrace(obs::TraceBuffer *trace)
{
    trace_ = trace;
    frontend_.setTrace(trace);
}

void
InOrderTiming::retire(const RetireInfo &ri)
{
    retireAs(ri);
}

void
InOrderTiming::consume(const RetireInfo *ri, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        retireAs(ri[i]);
}

void
InOrderTiming::exportStats(StatGroup &group) const
{
    group.counter("instructions") = instructions_;
    group.counter("dispatchInstructions") = dispatchInstructions_;
    for (size_t c = 0; c < size_t(BranchClass::NumClasses); ++c) {
        std::string name = branchClassName(BranchClass(c));
        group.counter("branch." + name + ".count") = branchCount_[c];
        group.counter("branch." + name + ".mispredicted") = branchMisses_[c];
    }
    group.counter("scd.bopFastHits") = bopFastHits_;
    group.counter("scd.bopMisses") = bopMisses_;
    group.counter("scd.jteInserts") = jteInserts_;
    group.counter("scd.ropStallCycles") = ropStallCycles_;
    group.counter("loadUseStalls") = loadUseStalls_;
    icache_->exportStats(group);
    dcache_->exportStats(group);
    if (l2cache_)
        l2cache_->exportStats(group);
    group.counter("itlb.misses") = itlb_.misses();
    group.counter("dtlb.misses") = dtlb_.misses();
    frontend_.exportStats(group);
    // Only non-ideal organizations can resteer on a false JTE hit; the
    // counters stay out of the default export so the ideal frontend's
    // rendered documents remain byte-identical to the pre-refactor ones.
    if (config_.frontend.kind != branch::FrontendKind::Ideal ||
        config_.frontend.fdip) {
        group.counter("frontend.jteFalseResteers") = jteFalseResteers_;
        group.counter("frontend.jteFalseResteerCycles") =
            jteFalseResteers_ * config_.mispredictPenalty;
    }
}

} // namespace scd::cpu
