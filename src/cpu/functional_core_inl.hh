/**
 * @file
 * Shared semantic helper bodies of the FunctionalCore, included by both
 * the reference interpreter (functional_core.cc) and the threaded tier
 * (threaded_tier.cc). Every rule with tier-visible consequences — jru's
 * Rop consumption and bop's eligibility/probe protocol — lives here
 * exactly once, so the two tiers execute the same code and cannot drift
 * apart. The bodies are inline because they sit on both tiers'
 * per-control-instruction paths.
 */

#ifndef SCD_CPU_FUNCTIONAL_CORE_INL_HH
#define SCD_CPU_FUNCTIONAL_CORE_INL_HH

#include "functional_core.hh"
#include "timing_model.hh"

namespace scd::cpu
{

inline bool
FunctionalCore::jruConsume(uint8_t bank, uint64_t &jteOpcode)
{
    ScdBank &b = banks_[bank];
    if (config_.scdEnabled && b.ropValid) {
        jteOpcode = b.ropData;
        b.ropValid = false;
        // The insertion itself happens when the timing model (or a replay
        // consumer) retires the jru, after the B entry.
        return true;
    }
    return false;
}

inline std::optional<uint64_t>
FunctionalCore::bopExec(uint8_t bankIdx, uint64_t pc, uint64_t retiredIdx,
                        uint32_t &ropStall, bool &bopProbed, bool &bopHit,
                        uint64_t &jteOpcode)
{
    ScdBank &bank = banks_[bankIdx];
    bool eligible = config_.scdEnabled && bank.rbopPc == pc && bank.ropValid;
    if (eligible) {
        uint64_t dist = retiredIdx - bank.ropWriteIndex;
        bool inFlight = dist < config_.ropForwardDistance;
        if (inFlight && config_.bopPolicy == BopStallPolicy::FallThrough) {
            // The fetch stage could not see Rop in time; take the slow
            // path this once.
            eligible = false;
            ++bopFallThroughForced_;
        } else if (inFlight) {
            ropStall = config_.ropForwardDistance - unsigned(dist);
        }
    }
    std::optional<uint64_t> target;
    if (eligible) {
        // Record the probe for replay: jteOpcode keeps the probed Rop
        // value (a hit invalidates the bank's copy below), and bopProbed
        // marks where a replay consumer must perform the same lookup
        // against its own JTE state — the one place timing-model state
        // feeds the architectural stream.
        bopProbed = true;
        jteOpcode = bank.ropData;
        target = timing_.jteLookup(bankIdx, bank.ropData);
        bopHit = target.has_value();
    }
    if (target)
        bank.ropValid = false;
    bank.rbopPc = pc;
    return target;
}

} // namespace scd::cpu

#endif // SCD_CPU_FUNCTIONAL_CORE_INL_HH
