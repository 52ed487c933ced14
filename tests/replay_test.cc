/**
 * @file
 * Tests for the execute-once, time-many plan executor
 * (src/harness/replay.hh): replayed runs must be byte-identical to
 * direct execution — cycle counts, the full stat group, and the --json
 * export — across every dispatch scheme and a spread of machine
 * configurations on both VMs; and the guest compile cache must compile
 * each (vm, workload, dispatch kind) exactly once however many points
 * share it.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/replay.hh"
#include "harness/runner.hh"
#include "obs/stats_sink.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

const std::vector<std::string> kWorkloads = {"fibo", "n-sieve"};
const std::vector<core::Scheme> kSchemes = {
    core::Scheme::Baseline, core::Scheme::JumpThreading,
    core::Scheme::Vbbi, core::Scheme::Scd};

/**
 * Machine configurations chosen to cover the timing-state corners the
 * replay consumers must reproduce: the default minor core, a small BTB
 * with a JTE cap (capped insert path), the LRU Rocket-like core, and a
 * dedicated JTE table (non-overlay storage).
 */
std::vector<cpu::CoreConfig>
replayMachines()
{
    std::vector<cpu::CoreConfig> machines;
    machines.push_back(minorConfig());

    cpu::CoreConfig capped = minorConfig();
    capped.btb.entries = 64;
    capped.btb.jteCap = 8;
    machines.push_back(capped);

    machines.push_back(rocketConfig());

    cpu::CoreConfig dedicated = minorConfig();
    dedicated.scdDedicatedTable = true;
    dedicated.dedicatedJteEntries = 64;
    machines.push_back(dedicated);
    return machines;
}

/** All schemes x all replayMachines() x both VMs over kWorkloads. */
ExperimentPlan
matrixPlan()
{
    ExperimentPlan plan;
    for (const cpu::CoreConfig &machine : replayMachines()) {
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (const auto &name : kWorkloads) {
                for (core::Scheme scheme : kSchemes) {
                    ExperimentPoint p;
                    p.vm = vm;
                    p.workload = &workload(name);
                    p.size = InputSize::Test;
                    p.scheme = scheme;
                    p.machine = machine;
                    plan.add(std::move(p));
                }
            }
        }
    }
    return plan;
}

TEST(Replay, ByteIdenticalToDirectAcrossSchemesAndMachines)
{
    ExperimentPlan plan = matrixPlan();
    RunOptions direct;
    direct.jobs = 4;
    direct.replay = false;
    RunOptions replay;
    replay.jobs = 4;
    replay.replay = true;
    ExperimentSet a = runPlan(plan, direct);
    ExperimentSet b = runPlan(plan, replay);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label());
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles);
        EXPECT_EQ(a.at(i).run.instructions, b.at(i).run.instructions);
        EXPECT_EQ(a.at(i).run.exitCode, b.at(i).run.exitCode);
        EXPECT_EQ(a.at(i).output, b.at(i).output);
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all());
    }

    // The machine-readable export only records deterministic fields, so
    // the full documents must match byte for byte too.
    obs::StatsSink directSink("replay_test", "test");
    obs::StatsSink replaySink("replay_test", "test");
    exportSet(directSink, "matrix", a);
    exportSet(replaySink, "matrix", b);
    EXPECT_EQ(directSink.render(), replaySink.render());
}

TEST(Replay, InstructionLimitedPointsMatchDirect)
{
    // maxInstructions truncates execution mid-stream; such points are
    // forced onto the direct path inside the replay executor, which must
    // stay invisible in the results.
    ExperimentPlan plan;
    for (core::Scheme scheme : kSchemes) {
        ExperimentPoint p;
        p.vm = VmKind::Rlua;
        p.workload = &workload("fibo");
        p.size = InputSize::Test;
        p.scheme = scheme;
        p.machine = minorConfig();
        p.maxInstructions = 100000;
        plan.add(std::move(p));
    }
    RunOptions direct;
    direct.jobs = 2;
    direct.replay = false;
    RunOptions replay;
    replay.jobs = 2;
    ExperimentSet a = runPlan(plan, direct);
    ExperimentSet b = runPlan(plan, replay);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label());
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles);
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all());
    }
}

TEST(GuestCache, OneCompilePerVmWorkloadDispatchKind)
{
    ExperimentPlan plan = matrixPlan();
    std::set<std::tuple<VmKind, std::string, int>> unique;
    for (size_t i = 0; i < plan.size(); ++i) {
        const ExperimentPoint &p = plan.points()[i];
        unique.insert({p.vm, p.workload->name,
                       int(dispatchForScheme(p.scheme))});
    }

    resetGuestCache();
    RunOptions options;
    options.jobs = 1;
    runPlan(plan, options);
    GuestCacheStats first = guestCacheStats();
    EXPECT_EQ(first.compiles, unique.size());

    // A second pass over the same plan hits the cache for every lookup.
    runPlan(plan, options);
    GuestCacheStats second = guestCacheStats();
    EXPECT_EQ(second.compiles, unique.size());
    EXPECT_GT(second.hits, first.hits);
}

/** Point keys are unique across a sweep that reuses machine names. */
TEST(PointKey, DistinguishesTimingVariants)
{
    ExperimentPoint a;
    a.vm = VmKind::Rlua;
    a.workload = &workload("fibo");
    a.size = InputSize::Test;
    a.scheme = core::Scheme::Scd;
    a.machine = minorConfig();

    ExperimentPoint b = a;
    b.machine.btb.entries = 64; // same name, different timing

    ExperimentPoint c = a;
    c.maxInstructions = 100000;

    EXPECT_NE(pointKey(a), pointKey(b));
    EXPECT_NE(pointKey(a), pointKey(c));
    EXPECT_EQ(pointKey(a), pointKey(a));
}

} // namespace
