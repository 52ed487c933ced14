#include "replay.hh"

#include <cstdint>
#include <string>

#include "core/scheme.hh"

namespace scd::harness
{

namespace
{

void
addCacheSignature(std::string &s, const cache::CacheConfig &c)
{
    s += std::to_string(c.sizeBytes);
    s += ',';
    s += std::to_string(c.associativity);
    s += ',';
    s += std::to_string(c.blockBytes);
    s += ',';
    s += std::to_string(int(c.replacement));
    s += ';';
}

/**
 * Serialization of every timing-relevant CoreConfig field (the machine
 * name is presentation-only); pointKey() is its one caller. Two points
 * with equal keys deterministically produce equal results, so the plan
 * executor runs the first and copies its result to the rest. The
 * SCD-side knobs are only observable when JTEs exist (branch/btb.cc
 * touches jteCap and the adaptive-cap state exclusively on the JTE
 * insert path), so they are gated out for non-SCD points — a BTB-size
 * sweep's baseline points dedup against an equal-geometry cap sweep's
 * baseline points. tests/point_key_test.cc perturbs every config field
 * and fails when a field moves the results but not this signature.
 */
std::string
timingSignature(const cpu::CoreConfig &c)
{
    std::string s;
    auto add = [&s](uint64_t v) {
        s += std::to_string(v);
        s += ',';
    };
    add(c.issueWidth);
    add(c.mispredictPenalty);
    add(c.btbMissTakenPenalty);
    add(c.aluLatency);
    add(c.mulLatency);
    add(c.divLatency);
    add(c.fpLatency);
    add(c.fpDivLatency);
    add(c.loadHitLatency);
    addCacheSignature(s, c.icache);
    addCacheSignature(s, c.dcache);
    add(c.hasL2);
    if (c.hasL2) {
        addCacheSignature(s, c.l2cache);
        add(c.l2HitLatency);
    }
    add(c.memLatency);
    add(c.itlbEntries);
    add(c.dtlbEntries);
    add(c.tlbMissPenalty);
    add(c.btb.entries);
    add(c.btb.associativity);
    add(c.btb.lruReplacement);
    // Frontend organization: parameters join only when their organization
    // is active, so an ideal-frontend sweep point still dedups against a
    // pre-frontend-sweep point with equal geometry.
    add(uint64_t(c.frontend.kind));
    add(c.frontend.fdip);
    if (c.frontend.kind != branch::FrontendKind::Ideal) {
        add(c.frontend.microEntries);
        add(c.frontend.mainBanks);
        add(c.frontend.partialTagBits);
        add(c.frontend.mainHitBubbles);
    }
    if (c.frontend.fdip) {
        add(c.frontend.ftqDepth);
        add(c.frontend.ftqTimelyDistance);
    }
    add(uint64_t(c.predictor));
    add(c.globalPredictorEntries);
    add(c.localPredictorEntries);
    add(c.gshareEntries);
    add(c.rasDepth);
    add(c.scdEnabled);
    add(c.vbbiEnabled);
    add(c.ittageEnabled);
    if (c.scdEnabled) {
        add(c.btb.jteCap);
        add(c.btb.adaptiveJteCap);
        add(c.btb.adaptEpoch);
        add(uint64_t(c.bopPolicy));
        add(c.ropForwardDistance);
        add(c.scdDedicatedTable);
        add(c.dedicatedJteEntries);
    }
    return s;
}

} // namespace

/*
 * VM + interpreter binary (dispatch kind) + workload source pin the
 * guest; for SCD binaries the two architecturally-visible SCD knobs —
 * bop's in-flight policy and the Rop forwarding distance — are baked
 * into the stream (they decide bop eligibility and the recorded
 * ropStall) and join the key. Every other machine knob is timing-only.
 */
std::string
replayGroupKey(const ExperimentPoint &p)
{
    std::string key = vmName(p.vm);
    key += '|';
    key += std::to_string(int(dispatchForScheme(p.scheme)));
    if (p.scheme == core::Scheme::Scd) {
        key += '|';
        key += std::to_string(int(p.machine.bopPolicy));
        key += ':';
        key += std::to_string(p.machine.ropForwardDistance);
    }
    key += '|';
    key += p.workload->text(p.size);
    return key;
}

std::string
pointKey(const ExperimentPoint &point)
{
    std::string key = point.label();
    key += '|';
    key += std::to_string(int(point.size));
    key += '|';
    key += std::to_string(point.maxInstructions);
    key += '|';
    key += timingSignature(core::withScheme(point.machine, point.scheme));
    return key;
}

} // namespace scd::harness
