/**
 * @file
 * pointKey() is the identity the plan executor deduplicates on: points
 * with equal keys run once and share one result. This test keeps that
 * identity from drifting behind the configuration it summarizes. Every
 * member of CoreConfig, BtbConfig, FrontendConfig and CacheConfig has a
 * perturbation in a table below or is named presentation-only, and a
 * member added to one of those structs breaks this file's build until
 * it is classified. Each perturbation runs a short Baseline and a short
 * SCD point on the minor core and, when the field is gated, on a base
 * that turns its gate on: whenever collectStats() moves, the key must
 * move too.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/scheme.hh"
#include "harness/experiment.hh"
#include "harness/machines.hh"
#include "harness/replay.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

/** The base that makes a gated field observable. */
enum class Gate
{
    None,        ///< observable on minor
    L2,          ///< needs hasL2
    Frontend,    ///< needs the multi-level BTB with FDIP
    AdaptiveCap, ///< needs the adaptive JTE cap
};

template <typename Config>
struct Perturbation
{
    const char *field;
    void (*apply)(Config &);
    Gate gate = Gate::None;
};

template <typename E>
E
nextEnum(E e, E last)
{
    return e == last ? E(0) : E(int(e) + 1);
}

/** CoreConfig's own scalar members; name and the five structs aside. */
constexpr Perturbation<cpu::CoreConfig> kCoreFields[] = {
    {"issueWidth", [](cpu::CoreConfig &c) { c.issueWidth *= 2; }},
    {"mispredictPenalty",
     [](cpu::CoreConfig &c) { c.mispredictPenalty *= 2; }},
    {"btbMissTakenPenalty",
     [](cpu::CoreConfig &c) { c.btbMissTakenPenalty *= 2; }},
    {"ropForwardDistance",
     [](cpu::CoreConfig &c) { c.ropForwardDistance *= 2; }},
    {"aluLatency", [](cpu::CoreConfig &c) { c.aluLatency *= 2; }},
    {"mulLatency", [](cpu::CoreConfig &c) { c.mulLatency *= 2; }},
    {"divLatency", [](cpu::CoreConfig &c) { c.divLatency *= 2; }},
    {"fpLatency", [](cpu::CoreConfig &c) { c.fpLatency *= 2; }},
    {"fpDivLatency", [](cpu::CoreConfig &c) { c.fpDivLatency *= 2; }},
    {"loadHitLatency", [](cpu::CoreConfig &c) { c.loadHitLatency *= 2; }},
    {"hasL2", [](cpu::CoreConfig &c) { c.hasL2 = !c.hasL2; }},
    {"l2HitLatency", [](cpu::CoreConfig &c) { c.l2HitLatency *= 2; },
     Gate::L2},
    {"memLatency", [](cpu::CoreConfig &c) { c.memLatency *= 2; }},
    {"itlbEntries", [](cpu::CoreConfig &c) { c.itlbEntries *= 2; }},
    {"dtlbEntries", [](cpu::CoreConfig &c) { c.dtlbEntries *= 2; }},
    {"tlbMissPenalty", [](cpu::CoreConfig &c) { c.tlbMissPenalty *= 2; }},
    {"predictor",
     [](cpu::CoreConfig &c) {
         c.predictor = nextEnum(c.predictor, cpu::PredictorKind::Gshare);
     }},
    {"globalPredictorEntries",
     [](cpu::CoreConfig &c) { c.globalPredictorEntries *= 2; }},
    {"localPredictorEntries",
     [](cpu::CoreConfig &c) { c.localPredictorEntries *= 2; }},
    {"gshareEntries", [](cpu::CoreConfig &c) { c.gshareEntries *= 2; }},
    {"rasDepth", [](cpu::CoreConfig &c) { c.rasDepth *= 2; }},
    {"scdEnabled", [](cpu::CoreConfig &c) { c.scdEnabled = !c.scdEnabled; }},
    {"bopPolicy",
     [](cpu::CoreConfig &c) {
         c.bopPolicy =
             nextEnum(c.bopPolicy, cpu::BopStallPolicy::FallThrough);
     }},
    {"scdDedicatedTable",
     [](cpu::CoreConfig &c) { c.scdDedicatedTable = !c.scdDedicatedTable; }},
    {"dedicatedJteEntries",
     [](cpu::CoreConfig &c) { c.dedicatedJteEntries *= 2; }},
    {"vbbiEnabled",
     [](cpu::CoreConfig &c) { c.vbbiEnabled = !c.vbbiEnabled; }},
    {"ittageEnabled",
     [](cpu::CoreConfig &c) { c.ittageEnabled = !c.ittageEnabled; }},
};

/** CoreConfig's cache members, each perturbed through kCacheFields. */
constexpr std::pair<const char *, cache::CacheConfig cpu::CoreConfig::*>
    kCoreCaches[] = {{"icache", &cpu::CoreConfig::icache},
                     {"dcache", &cpu::CoreConfig::dcache},
                     {"l2cache", &cpu::CoreConfig::l2cache}};

/** CoreConfig's presentation-only member. */
constexpr const char *kCorePresentation[] = {"name"};

constexpr Perturbation<cache::CacheConfig> kCacheFields[] = {
    {"sizeBytes", [](cache::CacheConfig &c) { c.sizeBytes *= 2; }},
    {"associativity", [](cache::CacheConfig &c) { c.associativity *= 2; }},
    {"blockBytes", [](cache::CacheConfig &c) { c.blockBytes *= 2; }},
    {"replacement",
     [](cache::CacheConfig &c) {
         c.replacement =
             nextEnum(c.replacement, cache::Replacement::RoundRobin);
     }},
};

/** CacheConfig's presentation-only member. */
constexpr const char *kCachePresentation[] = {"name"};

constexpr Perturbation<branch::BtbConfig> kBtbFields[] = {
    {"entries", [](branch::BtbConfig &c) { c.entries *= 2; }},
    {"associativity", [](branch::BtbConfig &c) { c.associativity *= 2; }},
    {"lruReplacement",
     [](branch::BtbConfig &c) { c.lruReplacement = !c.lruReplacement; }},
    {"jteCap", [](branch::BtbConfig &c) { c.jteCap = c.jteCap ? 0 : 8; }},
    {"adaptiveJteCap",
     [](branch::BtbConfig &c) { c.adaptiveJteCap = !c.adaptiveJteCap; }},
    {"adaptEpoch", [](branch::BtbConfig &c) { c.adaptEpoch /= 2; },
     Gate::AdaptiveCap},
};

constexpr Perturbation<branch::FrontendConfig> kFrontendFields[] = {
    {"kind",
     [](branch::FrontendConfig &c) {
         c.kind = nextEnum(c.kind, branch::FrontendKind::MultiLevel);
     }},
    {"fdip", [](branch::FrontendConfig &c) { c.fdip = !c.fdip; }},
    {"microEntries", [](branch::FrontendConfig &c) { c.microEntries *= 2; },
     Gate::Frontend},
    {"mainBanks", [](branch::FrontendConfig &c) { c.mainBanks *= 2; },
     Gate::Frontend},
    {"partialTagBits",
     [](branch::FrontendConfig &c) { c.partialTagBits /= 2; },
     Gate::Frontend},
    {"mainHitBubbles",
     [](branch::FrontendConfig &c) { c.mainHitBubbles *= 2; },
     Gate::Frontend},
    {"ftqDepth", [](branch::FrontendConfig &c) { c.ftqDepth *= 2; },
     Gate::Frontend},
    {"ftqTimelyDistance",
     [](branch::FrontendConfig &c) { c.ftqTimelyDistance *= 2; },
     Gate::Frontend},
};

// Each function below binds every member of its struct by name, so it
// compiles only while the struct has exactly that many members.
template <size_t N>
using Members = std::integral_constant<size_t, N>;

[[maybe_unused]] Members<33>
members(const cpu::CoreConfig &c)
{
    [[maybe_unused]] auto &[name, issueWidth, mispredictPenalty,
                            btbMissTakenPenalty, ropForwardDistance,
                            aluLatency, mulLatency, divLatency, fpLatency,
                            fpDivLatency, loadHitLatency, icache, dcache,
                            hasL2, l2cache, l2HitLatency, memLatency,
                            itlbEntries, dtlbEntries, tlbMissPenalty, btb,
                            frontend, predictor, globalPredictorEntries,
                            localPredictorEntries, gshareEntries, rasDepth,
                            scdEnabled, bopPolicy, scdDedicatedTable,
                            dedicatedJteEntries, vbbiEnabled,
                            ittageEnabled] = c;
    return {};
}

[[maybe_unused]] Members<5>
members(const cache::CacheConfig &c)
{
    [[maybe_unused]] auto &[name, sizeBytes, associativity, blockBytes,
                            replacement] = c;
    return {};
}

[[maybe_unused]] Members<6>
members(const branch::BtbConfig &c)
{
    [[maybe_unused]] auto &[entries, associativity, lruReplacement, jteCap,
                            adaptiveJteCap, adaptEpoch] = c;
    return {};
}

[[maybe_unused]] Members<8>
members(const branch::FrontendConfig &c)
{
    [[maybe_unused]] auto &[kind, fdip, microEntries, mainBanks,
                            partialTagBits, mainHitBubbles, ftqDepth,
                            ftqTimelyDistance] = c;
    return {};
}

template <typename Config>
constexpr size_t kMembers =
    decltype(members(std::declval<const Config &>()))::value;

// A member count that disagrees with its tables means a field was added
// (or removed) without being classified: give it a perturbation, or
// name it presentation-only if no timing model reads it.
static_assert(kMembers<cpu::CoreConfig> ==
                  std::size(kCoreFields) + std::size(kCoreCaches) +
                      2 /* btb, frontend */ + std::size(kCorePresentation),
              "classify every CoreConfig member");
static_assert(kMembers<cache::CacheConfig> ==
                  std::size(kCacheFields) + std::size(kCachePresentation),
              "classify every CacheConfig member");
static_assert(kMembers<branch::BtbConfig> == std::size(kBtbFields),
              "classify every BtbConfig member");
static_assert(kMembers<branch::FrontendConfig> ==
                  std::size(kFrontendFields),
              "classify every FrontendConfig member");

/** One perturbation of a whole CoreConfig. */
struct Case
{
    std::string field;
    std::function<void(cpu::CoreConfig &)> apply;
    Gate gate;
};

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const auto &p : kCoreFields)
        cases.push_back({p.field, p.apply, p.gate});
    for (const auto &[cacheName, member] : kCoreCaches) {
        Gate gate = member == &cpu::CoreConfig::l2cache ? Gate::L2
                                                        : Gate::None;
        for (const auto &p : kCacheFields) {
            cases.push_back({std::string(cacheName) + "." + p.field,
                             [&p, member](cpu::CoreConfig &c) {
                                 p.apply(c.*member);
                             },
                             gate});
        }
    }
    for (const auto &p : kBtbFields) {
        cases.push_back({std::string("btb.") + p.field,
                         [&p](cpu::CoreConfig &c) { p.apply(c.btb); },
                         p.gate});
    }
    for (const auto &p : kFrontendFields) {
        cases.push_back({std::string("frontend.") + p.field,
                         [&p](cpu::CoreConfig &c) { p.apply(c.frontend); },
                         p.gate});
    }
    return cases;
}

/** The minor core with @p gate turned on, named after it. */
cpu::CoreConfig
base(Gate gate)
{
    cpu::CoreConfig c = minorConfig();
    switch (gate) {
      case Gate::None:
        break;
      case Gate::L2:
        c.hasL2 = true;
        c.name += "+l2";
        break;
      case Gate::Frontend:
        c = withFrontend(c, "mlbtb+fdip");
        break;
      case Gate::AdaptiveCap:
        c.btb.adaptiveJteCap = true;
        c.name += "+adaptive-cap";
        break;
    }
    return c;
}

/** The collectStats() of one run of @p p (runPlan's direct path). */
std::vector<StatGroup::Entry>
statsOf(const ExperimentPoint &p)
{
    return runPointDirect(p, RunOptions{}).result.stats.all();
}

TEST(PointKey, MovesWheneverAConfigFieldMovesTheStats)
{
    // binary-trees at the test size retires about 0.56 M instructions,
    // enough to evict BTB entries and alias partial tags; the whole
    // test runs 138 points in under a second.
    const std::vector<Case> cases = allCases();
    for (core::Scheme scheme : {core::Scheme::Baseline, core::Scheme::Scd}) {
        for (Gate gate :
             {Gate::None, Gate::L2, Gate::Frontend, Gate::AdaptiveCap}) {
            ExperimentPoint ref;
            ref.vm = VmKind::Rlua;
            ref.workload = &workload("binary-trees");
            ref.size = InputSize::Test;
            ref.scheme = scheme;
            ref.machine = base(gate);
            const std::string refKey = pointKey(ref);
            const std::vector<StatGroup::Entry> refStats = statsOf(ref);
            for (const Case &c : cases) {
                if (gate != Gate::None && c.gate != gate)
                    continue;
                SCOPED_TRACE(c.field + " on " + ref.label());
                ExperimentPoint p = ref;
                c.apply(p.machine);
                if (statsOf(p) != refStats) {
                    EXPECT_NE(pointKey(p), refKey)
                        << "the stats moved but pointKey did not";
                }
            }
        }
    }
}

} // namespace
