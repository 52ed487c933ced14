/**
 * @file
 * Tests for the plan executor (harness::runPlan): a plan must produce
 * the same results as its points run directly one by one, and the same
 * results on either dispatch tier — stats, output, exit codes and the
 * --json export — across every scheme, both VMs and the machine corners
 * whose JTE probes hit, miss falsely or meet a cap; a point that copies
 * the result of an equal point must match its own run; points of
 * distinct frontends must not share a key; and the guest compile cache
 * must compile each (vm, workload, dispatch kind) exactly once however
 * many points share it.
 *
 * The Replay and FrontendReplay suites keep their names from the
 * execute-once, time-many executor that runPlan() used to offer; they
 * now hold runPlan() to direct execution.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fig11_plan.hh"
#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/pool.hh"
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
 * Machines whose timing state differs most from the default: a 64-entry
 * multi-level BTB with 4-bit partial tags (JTE probes falsely hit and
 * resteer mid-dispatch), FDIP over the multi-level BTB, and a 64-entry
 * BTB under a JTE cap of 8 and under the adaptive cap.
 */
std::vector<cpu::CoreConfig>
cornerMachines()
{
    std::vector<cpu::CoreConfig> machines;
    cpu::CoreConfig alias = withFrontend(minorConfig(), "mlbtb+tag4");
    alias.btb.entries = 64;
    machines.push_back(alias);

    machines.push_back(withFrontend(minorConfig(), "mlbtb+fdip"));

    cpu::CoreConfig capped = minorConfig();
    capped.btb.entries = 64;
    capped.btb.jteCap = 8;
    machines.push_back(capped);

    cpu::CoreConfig adaptive = minorConfig();
    adaptive.btb.entries = 64;
    adaptive.btb.adaptiveJteCap = true;
    machines.push_back(adaptive);
    return machines;
}

/**
 * Machines of the default and Rocket-like cores, a small BTB with a JTE
 * cap (capped insert path), and a dedicated JTE table (non-overlay
 * storage).
 */
std::vector<cpu::CoreConfig>
storageMachines()
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

/**
 * Frontend organizations: the default multi-level machine, the
 * 64-entry/4-bit-tag geometry where JTE probes falsely hit and resteer
 * mid-dispatch, and FDIP over both the ideal and multi-level bases.
 */
std::vector<cpu::CoreConfig>
frontendMachines()
{
    std::vector<cpu::CoreConfig> machines;
    machines.push_back(withFrontend(minorConfig(), "mlbtb"));
    machines.push_back(cornerMachines()[0]); // mlbtb+tag4, 64 entries
    machines.push_back(withFrontend(minorConfig(), "fdip"));
    machines.push_back(cornerMachines()[1]); // mlbtb+fdip
    return machines;
}

/**
 * Run every point of @p plan on its own through runWorkload(), outside
 * runPlan()'s worker pool, dedup and failure containment.
 */
ExperimentSet
runDirect(const ExperimentPlan &plan)
{
    ExperimentSet set;
    set.points = plan.points();
    set.runs.resize(plan.size());
    set.jobs = 4;
    parallelFor(4, plan.size(), [&](size_t i) {
        const ExperimentPoint &p = set.points[i];
        set.runs[i].result =
            runWorkload(p.vm, *p.workload, p.size, p.scheme, p.machine,
                        p.maxInstructions);
    });
    return set;
}

/**
 * Expect @p planned (from runPlan) to equal @p direct point for point
 * and, through the --json export, byte for byte.
 */
void
expectByteIdentical(const ExperimentSet &direct,
                    const ExperimentSet &planned)
{
    ASSERT_EQ(direct.points.size(), planned.points.size());
    for (size_t i = 0; i < direct.points.size(); ++i) {
        SCOPED_TRACE(direct.points[i].label());
        ASSERT_EQ(planned.runs[i].status, PointStatus::Ok)
            << planned.runs[i].error;
        EXPECT_EQ(direct.at(i).run.cycles, planned.at(i).run.cycles);
        EXPECT_EQ(direct.at(i).run.instructions,
                  planned.at(i).run.instructions);
        EXPECT_EQ(direct.at(i).run.exitCode, planned.at(i).run.exitCode);
        EXPECT_EQ(direct.at(i).run.exited, planned.at(i).run.exited);
        EXPECT_EQ(direct.at(i).output, planned.at(i).output);
        EXPECT_EQ(direct.at(i).stats.all(), planned.at(i).stats.all());
    }

    // The machine-readable export only records deterministic fields, so
    // the full documents must match byte for byte too.
    obs::StatsSink directSink("plan_test", "test");
    obs::StatsSink plannedSink("plan_test", "test");
    exportSet(directSink, "matrix", direct);
    exportSet(plannedSink, "matrix", planned);
    EXPECT_EQ(directSink.render(), plannedSink.render());
}

/** Every scheme x @p machines x both VMs over kWorkloads. */
ExperimentPlan
gridPlan(const std::vector<cpu::CoreConfig> &machines)
{
    ExperimentPlan plan;
    for (const cpu::CoreConfig &machine : machines) {
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (const std::string &name : kWorkloads) {
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

/** Every scheme x cornerMachines() x both VMs over kWorkloads. */
ExperimentPlan
matrixPlan()
{
    return gridPlan(cornerMachines());
}

TEST(Replay, ByteIdenticalToDirectAcrossSchemesAndMachines)
{
    ExperimentPlan plan = gridPlan(storageMachines());
    RunOptions options;
    options.jobs = 4;
    expectByteIdentical(runDirect(plan), runPlan(plan, options));
}

TEST(Replay, InstructionLimitedPointsMatchDirect)
{
    // maxInstructions truncates execution mid-stream; the cut must land
    // on the same instruction whether or not the plan executor runs it.
    ExperimentPlan plan;
    for (core::Scheme scheme : kSchemes) {
        ExperimentPoint p;
        p.vm = VmKind::Rlua;
        p.workload = &workload("fibo");
        p.size = InputSize::Test;
        p.scheme = scheme;
        p.machine = minorConfig();
        p.maxInstructions = 20000; // fibo exits after ~50k
        plan.add(std::move(p));
    }
    RunOptions options;
    options.jobs = 2;
    ExperimentSet planned = runPlan(plan, options);
    expectByteIdentical(runDirect(plan), planned);
    for (size_t i = 0; i < planned.points.size(); ++i) {
        EXPECT_FALSE(planned.at(i).run.exited);
        EXPECT_EQ(planned.at(i).run.instructions, 20000u);
    }
}

TEST(FrontendReplay, ByteIdenticalToDirectUnderEveryOrganization)
{
    ExperimentPlan plan = gridPlan(frontendMachines());
    RunOptions options;
    options.jobs = 4;
    ExperimentSet planned = runPlan(plan, options);
    expectByteIdentical(runDirect(plan), planned);

    // The aliasing geometry must actually exercise the false-hit resteer
    // path.
    bool sawFalseHit = false;
    for (size_t i = 0; i < planned.points.size(); ++i)
        sawFalseHit |= planned.at(i).stats.get("frontend.falseHits.jte") > 0;
    EXPECT_TRUE(sawFalseHit);
}

/**
 * The plan executor runs every point on RunOptions::dispatchTier. The
 * switch tier is the reference interpreter, so a threaded plan must
 * match it point for point, including a point cut by its instruction
 * limit mid-run.
 */
TEST(PlanTiers, SwitchAndThreadedPlansAreByteIdentical)
{
    ExperimentPlan plan = matrixPlan();
    // sjs/n-sieve/scd on the adaptive cap, cut mid-run.
    ExperimentPoint limited = plan.points().back();
    limited.maxInstructions = 20000;
    plan.add(limited);

    RunOptions ref;
    ref.jobs = 4;
    ref.dispatchTier = cpu::DispatchTier::Switch;
    RunOptions fast = ref;
    fast.dispatchTier = cpu::DispatchTier::Threaded;
    ExperimentSet a = runPlan(plan, ref);
    ExperimentSet b = runPlan(plan, fast);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label());
        ASSERT_EQ(a.runs[i].status, PointStatus::Ok) << a.runs[i].error;
        ASSERT_EQ(b.runs[i].status, PointStatus::Ok) << b.runs[i].error;
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles);
        EXPECT_EQ(a.at(i).run.instructions, b.at(i).run.instructions);
        EXPECT_EQ(a.at(i).run.exitCode, b.at(i).run.exitCode);
        EXPECT_EQ(a.at(i).run.exited, b.at(i).run.exited);
        EXPECT_EQ(a.at(i).output, b.at(i).output);
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all());
    }
    EXPECT_FALSE(a.at(a.points.size() - 1).run.exited);
    EXPECT_EQ(a.at(a.points.size() - 1).run.instructions, 20000u);

    // The machine-readable export only records deterministic fields, so
    // the full documents must match byte for byte too.
    obs::StatsSink refSink("plan_test", "test");
    obs::StatsSink fastSink("plan_test", "test");
    exportSet(refSink, "matrix", a);
    exportSet(fastSink, "matrix", b);
    EXPECT_EQ(refSink.render(), fastSink.render());
}

/**
 * Fig. 11's plan repeats points: a JTE cap is unobservable without SCD.
 * runPlan() runs the first point of each pointKey and copies its run to
 * the rest; every copy must equal that point run on its own.
 */
TEST(PlanDedup, Fig11CopiesMatchTheirOwnRuns)
{
    ExperimentPlan plan =
        bench::fig11Plan(bench::fig11Steps(), InputSize::Test);
    RunOptions options;
    options.jobs = 4;
    ExperimentSet set = runPlan(plan, options);

    std::set<std::string> keys;
    std::vector<size_t> copies;
    for (size_t i = 0; i < set.points.size(); ++i) {
        if (!keys.insert(pointKey(set.points[i])).second)
            copies.push_back(i);
    }
    ASSERT_EQ(set.points.size(), 352u);
    ASSERT_EQ(copies.size(), 110u);

    std::vector<ExperimentRun> alone(copies.size());
    parallelFor(4, copies.size(), [&](size_t k) {
        alone[k] = runPointContained(set.points[copies[k]], options);
    });
    for (size_t k = 0; k < copies.size(); ++k) {
        const ExperimentRun &copy = set.runs[copies[k]];
        SCOPED_TRACE(set.points[copies[k]].label() + " at plan index " +
                     std::to_string(copies[k]));
        EXPECT_EQ(copy.status, alone[k].status);
        EXPECT_EQ(copy.seconds, 0.0);
        EXPECT_EQ(copy.result.run.cycles, alone[k].result.run.cycles);
        EXPECT_EQ(copy.result.run.instructions,
                  alone[k].result.run.instructions);
        EXPECT_EQ(copy.result.run.exitCode, alone[k].result.run.exitCode);
        EXPECT_EQ(copy.result.output, alone[k].result.output);
        EXPECT_EQ(copy.result.stats.all(), alone[k].result.stats.all());
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

TEST(FrontendReplay, OrganizationsDoNotShareTimingSignatures)
{
    // Five points that differ only in their frontend. If the timing
    // signature ignored the frontend fields, the dedup layer would hand
    // several of them the same cycle count; distinct cycles prove
    // distinct signatures end to end.
    ExperimentPlan plan;
    std::vector<cpu::CoreConfig> machines = {
        minorConfig(), // ideal reference
        withFrontend(minorConfig(), "mlbtb"),
        cornerMachines()[0], // mlbtb+tag4 on a 64-entry BTB
        withFrontend(minorConfig(), "fdip"),
        cornerMachines()[1], // mlbtb+fdip
    };
    for (const cpu::CoreConfig &machine : machines) {
        ExperimentPoint p;
        p.vm = VmKind::Rlua;
        p.workload = &workload("fibo");
        p.size = InputSize::Test;
        p.scheme = core::Scheme::Scd;
        p.machine = machine;
        plan.add(std::move(p));
    }
    RunOptions options;
    options.jobs = 2;
    ExperimentSet set = runPlan(plan, options);
    ASSERT_EQ(set.points.size(), machines.size());
    // ideal vs mlbtb vs the alias geometry must all time differently;
    // fdip variants may coincide with their base only if the FTQ never
    // converts a miss, so assert just the pairs that must differ.
    EXPECT_NE(set.at(0).run.cycles, set.at(1).run.cycles); // ideal/mlbtb
    EXPECT_NE(set.at(1).run.cycles, set.at(2).run.cycles); // mlbtb/alias
    EXPECT_NE(set.at(0).run.cycles, set.at(2).run.cycles);
}

} // namespace
