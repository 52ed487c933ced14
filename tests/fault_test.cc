/**
 * @file
 * Tests for per-point fault containment (src/harness/experiment.hh):
 * guest traps, per-point timeouts, and the deterministic fault
 * injection layer (src/common/fault_inject.hh). A failing point must
 * be classified — not abort the plan — and the rest of the plan must
 * still produce results identical to a clean run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "cpu/watchdog.hh"
#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/pool.hh"
#include "obs/stats_sink.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

/** A script whose guest run raises a runtime trap (calling nil). */
const Workload &
trapWorkload()
{
    static const Workload w{"trap-test",
                            "calls nil to force a guest runtime trap",
                            "local x = nil\nx()\n",
                            1, 1, 1};
    return w;
}

ExperimentPoint
point(const Workload &w, core::Scheme scheme,
      const cpu::CoreConfig &machine)
{
    ExperimentPoint p;
    p.vm = VmKind::Rlua;
    p.workload = &w;
    p.size = InputSize::Test;
    p.scheme = scheme;
    p.machine = machine;
    return p;
}

/** fibo + trap on the direct path: trap contained, fibo untouched. */
TEST(FaultContainment, GuestTrapContainedOnDirectPath)
{
    ExperimentPlan plan;
    plan.add(point(workload("fibo"), core::Scheme::Baseline,
                   minorConfig()));
    plan.add(point(trapWorkload(), core::Scheme::Baseline, minorConfig()));

    RunOptions options;
    options.jobs = 2;
    options.replay = false;
    ExperimentSet set = runPlan(plan, options);

    ASSERT_EQ(set.runs.size(), 2u);
    EXPECT_EQ(set.runs[0].status, PointStatus::Ok);
    EXPECT_TRUE(set.runs[0].usable());
    EXPECT_GT(set.at(0).run.instructions, 0u);

    EXPECT_EQ(set.runs[1].status, PointStatus::Failed);
    EXPECT_FALSE(set.runs[1].usable());
    EXPECT_NE(set.runs[1].error.find("guest exited"), std::string::npos);
    EXPECT_EQ(set.troubled(), 1u);
    EXPECT_EQ(reportTroubledPoints({&set}), 2);
}

/**
 * A trap inside a replay group poisons the whole group's producer; the
 * members fall back to the direct path, fail again there, and must end
 * up Failed with a diagnostic naming both attempts.
 */
TEST(FaultContainment, GuestTrapContainedOnReplayPath)
{
    // Two timing variants of the trap workload share one functional
    // stream, so both flow through a single poisoned group.
    ExperimentPlan plan;
    plan.add(point(trapWorkload(), core::Scheme::Baseline, minorConfig()));
    plan.add(point(trapWorkload(), core::Scheme::Baseline,
                   rocketConfig()));

    RunOptions options;
    options.jobs = 1;
    options.replay = true;
    ExperimentSet set = runPlan(plan, options);

    ASSERT_EQ(set.runs.size(), 2u);
    for (size_t i = 0; i < set.runs.size(); ++i) {
        SCOPED_TRACE(set.points[i].label());
        EXPECT_EQ(set.runs[i].status, PointStatus::Failed);
        EXPECT_NE(set.runs[i].error.find("guest exited"),
                  std::string::npos);
        EXPECT_NE(set.runs[i].error.find("direct fallback"),
                  std::string::npos);
    }
    EXPECT_EQ(reportTroubledPoints({&set}), 2);
}

/**
 * A trap point listed twice runs once, on either path; the copy carries
 * the same failure, and both count as troubled.
 */
TEST(FaultContainment, DuplicatedTrapPointFailsTwice)
{
    ExperimentPlan plan;
    plan.add(point(trapWorkload(), core::Scheme::Baseline, minorConfig()));
    plan.add(point(trapWorkload(), core::Scheme::Baseline, minorConfig()));

    for (bool replay : {true, false}) {
        SCOPED_TRACE(replay ? "replay" : "direct");
        RunOptions options;
        options.jobs = 2;
        options.replay = replay;
        ExperimentSet set = runPlan(plan, options);

        ASSERT_EQ(set.runs.size(), 2u);
        for (const ExperimentRun &run : set.runs) {
            EXPECT_EQ(run.status, PointStatus::Failed);
            EXPECT_NE(run.error.find("guest exited"), std::string::npos);
        }
        EXPECT_EQ(set.runs[1].error, set.runs[0].error);
        EXPECT_EQ(set.troubled(), 2u);
        EXPECT_EQ(reportTroubledPoints({&set}), 2);
    }
}

/** A tiny per-point deadline classifies points TimedOut, not Failed. */
TEST(FaultContainment, TimeoutClassifiedAsTimedOut)
{
    ExperimentPlan plan;
    plan.add(point(workload("ackermann"), core::Scheme::Baseline,
                   minorConfig()));

    RunOptions options;
    options.jobs = 1;
    options.replay = false;
    options.pointTimeout = 1e-9;
    ExperimentSet set = runPlan(plan, options);

    ASSERT_EQ(set.runs.size(), 1u);
    EXPECT_EQ(set.runs[0].status, PointStatus::TimedOut);
    EXPECT_FALSE(set.runs[0].usable());
    EXPECT_NE(set.runs[0].error.find("wall-clock"), std::string::npos);
}

/**
 * A deadline longer than steady_clock can hold is clamped, never
 * wrapped into the past: such a watchdog must not fire at its first
 * check. A tiny deadline still fires, and NaN disarms.
 */
TEST(Watchdog, HugeDeadlinesNeverExpire)
{
    for (double seconds :
         {std::numeric_limits<double>::infinity(), 1e10, 1e300}) {
        cpu::Watchdog dog;
        dog.arm(seconds);
        EXPECT_NO_THROW(dog.expire()) << seconds;
    }

    cpu::Watchdog nan;
    nan.arm(std::numeric_limits<double>::quiet_NaN());
    EXPECT_NO_THROW(nan.expire());

    cpu::Watchdog tiny;
    tiny.arm(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_THROW(tiny.expire(), TimeoutError);
}

/** A huge per-point deadline leaves every point Ok, direct and replay. */
TEST(FaultContainment, HugePointTimeoutFinishesOk)
{
    // Two machines, one functional key: a replay group with replay on.
    ExperimentPlan plan;
    plan.add(point(workload("fibo"), core::Scheme::Baseline,
                   minorConfig()));
    plan.add(point(workload("fibo"), core::Scheme::Baseline,
                   rocketConfig()));

    for (bool replay : {false, true}) {
        RunOptions options;
        options.jobs = 1;
        options.replay = replay;
        options.pointTimeout = 1e10;
        ExperimentSet set = runPlan(plan, options);
        ASSERT_EQ(set.runs.size(), 2u);
        for (const ExperimentRun &run : set.runs)
            EXPECT_EQ(run.status, PointStatus::Ok)
                << "replay=" << replay << ": " << run.error;
    }
}

/** Failed points vanish from the export's points[] but are named in
 *  the failure manifest; a clean set renders without a manifest. */
TEST(FaultContainment, FailureManifestInExport)
{
    ExperimentPlan plan;
    plan.add(point(workload("fibo"), core::Scheme::Baseline,
                   minorConfig()));
    plan.add(point(trapWorkload(), core::Scheme::Baseline, minorConfig()));

    RunOptions options;
    options.jobs = 1;
    options.replay = false;
    ExperimentSet set = runPlan(plan, options);

    obs::StatsSink sink("fault_test", "test");
    obs::SetRecord &rec = exportSet(sink, "mixed", set);
    ASSERT_EQ(rec.points.size(), 1u);
    EXPECT_EQ(rec.points[0].workload, "fibo");
    ASSERT_EQ(rec.failures.size(), 1u);
    EXPECT_EQ(rec.failures[0].workload, "trap-test");
    EXPECT_EQ(rec.failures[0].status, "failed");
    std::string doc = sink.render();
    EXPECT_NE(doc.find("\"failures\""), std::string::npos);

    // Clean sets must not grow a manifest key (byte-compat contract).
    obs::StatsSink clean("fault_test", "test");
    ExperimentPlan cleanPlan;
    cleanPlan.add(point(workload("fibo"), core::Scheme::Baseline,
                        minorConfig()));
    ExperimentSet cleanSet = runPlan(cleanPlan, options);
    exportSet(clean, "clean", cleanSet);
    EXPECT_EQ(clean.render().find("\"failures\""), std::string::npos);
    EXPECT_EQ(reportTroubledPoints({&cleanSet}), 0);
}

/**
 * finishRun's exit-code precedence: an export failure outranks troubled
 * points, which outrank a clean run.
 */
TEST(ExitCodes, FinishRunPrecedence)
{
    ExperimentPlan plan;
    plan.add(point(workload("fibo"), core::Scheme::Baseline,
                   minorConfig()));

    ExperimentSet clean;
    clean.points = plan.points();
    clean.runs.resize(1);

    ExperimentSet troubled = clean;
    troubled.runs[0].status = PointStatus::Failed;
    troubled.runs[0].error = "synthetic";

    obs::StatsSink sink("fault_test", "test");
    exportSet(sink, "clean", clean);

    std::string good = ::testing::TempDir() + "exitcodes.json";
    EXPECT_EQ(finishRun(sink, good, {&clean}), kExitOk);
    EXPECT_EQ(finishRun(sink, good, {&troubled}), kExitTroubled);
    // An unwritable path is kExitExportFailure even when points are
    // troubled too: the lost document is the more urgent signal.
    std::string bad = "/nonexistent-dir/exitcodes.json";
    EXPECT_EQ(finishRun(sink, bad, {&troubled}), kExitExportFailure);
    EXPECT_EQ(finishRun(sink, bad, {&clean}), kExitExportFailure);
    // No export requested: only the points decide.
    EXPECT_EQ(finishRun(sink, "", {&troubled}), kExitTroubled);
    EXPECT_EQ(finishRun(sink, "", {&clean}), kExitOk);
    std::remove(good.c_str());
}

/** parallelFor reports every failure, not just the first. */
TEST(FaultContainment, ParallelForAggregatesFailures)
{
    try {
        parallelFor(4, 8, [](size_t i) {
            if (i % 2 == 0)
                fatal("task ", i, " failed");
        });
        FAIL() << "parallelFor should have thrown";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("4 parallel tasks failed"), std::string::npos);
    }
}

// ---- deterministic fault injection ---------------------------------------

class FaultInjection : public ::testing::Test
{
  protected:
    void SetUp() override { faultinj::disarm(); }
    void TearDown() override { faultinj::disarm(); }
};

/**
 * Every registered site, when armed, must poison at least one point
 * (named in the set) while the rest of the plan completes.
 */
TEST_F(FaultInjection, EveryPlanSiteFiresAndIsContained)
{
    for (const std::string &site : faultinj::registeredSites()) {
        SCOPED_TRACE(site);
        faultinj::arm(site, 1);

        ExperimentPlan plan;
        plan.add(point(workload("fibo"), core::Scheme::Baseline,
                       minorConfig()));
        plan.add(point(workload("fibo"), core::Scheme::Baseline,
                       rocketConfig()));
        RunOptions options;
        options.jobs = 1;
        options.replay = true;
        ExperimentSet set = runPlan(plan, options);

        EXPECT_FALSE(faultinj::armed()) << "site never hit: " << site;
        EXPECT_GT(set.troubled(), 0u);
        for (const ExperimentRun &run : set.runs)
            EXPECT_NE(run.status, PointStatus::Failed)
                << "one-shot fault should degrade, not fail: "
                << run.error;
        faultinj::disarm();
    }
}

/**
 * A replay-ring fault degrades its group onto the direct path; the
 * degraded results must carry the same data a clean run produces.
 */
TEST_F(FaultInjection, ReplayFaultDegradesWithIdenticalData)
{
    ExperimentPlan plan;
    plan.add(point(workload("fibo"), core::Scheme::Baseline,
                   minorConfig()));
    plan.add(point(workload("fibo"), core::Scheme::Baseline,
                   rocketConfig()));
    RunOptions options;
    options.jobs = 1;
    options.replay = true;

    ExperimentSet clean = runPlan(plan, options);

    faultinj::arm("replay-ring", 1);
    ExperimentSet faulty = runPlan(plan, options);
    ASSERT_EQ(faulty.runs.size(), clean.runs.size());
    for (size_t i = 0; i < faulty.runs.size(); ++i) {
        SCOPED_TRACE(faulty.points[i].label());
        EXPECT_EQ(faulty.runs[i].status, PointStatus::Degraded);
        EXPECT_TRUE(faulty.runs[i].usable());
        EXPECT_EQ(faulty.at(i).run.cycles, clean.at(i).run.cycles);
        EXPECT_EQ(faulty.at(i).run.instructions,
                  clean.at(i).run.instructions);
        EXPECT_EQ(faulty.at(i).stats.all(), clean.at(i).stats.all());
    }
    // Degraded points are usable data but still flag the run.
    EXPECT_EQ(reportTroubledPoints({&faulty}), 2);
}

/** arm() validates the site name against the registry: a typo must
 *  fail loudly at arm time, not silently never fire. */
TEST_F(FaultInjection, UnknownSiteRejectedAtArmTime)
{
    try {
        faultinj::arm("no-such-site", 1);
        FAIL() << "arm should have thrown";
    } catch (const FatalError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("unknown fault site"), std::string::npos);
        EXPECT_NE(what.find("replay-ring"), std::string::npos)
            << "the error should list the registered sites";
    }
    EXPECT_FALSE(faultinj::armed());
}

/** Only the nth hit of the armed site fires, once. */
TEST_F(FaultInjection, NthOccurrenceCounts)
{
    faultinj::arm("replay-ring", 3);
    // Two hits: not yet.
    EXPECT_NO_THROW(faultinj::hit("replay-ring"));
    EXPECT_NO_THROW(faultinj::hit("replay-ring"));
    // Hits at other sites never count toward replay-ring's total.
    EXPECT_NO_THROW(faultinj::hit("point-oom"));
    EXPECT_TRUE(faultinj::armed());
    EXPECT_THROW(faultinj::hit("replay-ring"), FatalError);
    EXPECT_FALSE(faultinj::armed()) << "faults are one-shot";
    EXPECT_NO_THROW(faultinj::hit("replay-ring"));
}

} // namespace
