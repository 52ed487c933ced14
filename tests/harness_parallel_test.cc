/**
 * @file
 * Tests for the parallel experiment engine: parallelFor's scheduling and
 * exception propagation, serial/parallel equivalence of runPlan, and
 * byte-identical figure output whatever the job count — the determinism
 * guarantee every figure rests on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/machines.hh"
#include "harness/pool.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

TEST(ParallelFor, EveryIndexRunsExactlyOnce)
{
    constexpr size_t kIndices = 200;
    std::vector<std::atomic<int>> ran(kIndices);
    parallelFor(4, kIndices, [&](size_t i) { ran[i].fetch_add(1); });
    for (size_t i = 0; i < kIndices; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ALongIndexDoesNotStrandTheRest)
{
    // Index 0 blocks until indices 1-7 have run. On two jobs the test
    // only passes if the other thread takes every index after the
    // blocker instead of leaving some queued behind it.
    std::mutex m;
    std::condition_variable cv;
    int done = 0;
    bool timedOut = false;
    parallelFor(2, 8, [&](size_t i) {
        std::unique_lock<std::mutex> lock(m);
        if (i == 0) {
            timedOut = !cv.wait_for(lock, std::chrono::seconds(10),
                                    [&] { return done == 7; });
            return;
        }
        ++done;
        cv.notify_all();
    });
    EXPECT_FALSE(timedOut) << "indices behind the long one never ran";
}

TEST(ParallelFor, ResultsLandAtTheirOwnIndex)
{
    std::vector<size_t> out(100, 0);
    parallelFor(4, out.size(), [&](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, JobsOneRunsInIndexOrder)
{
    std::vector<size_t> order;
    parallelFor(1, 10, [&](size_t i) { order.push_back(i); });
    std::vector<size_t> expect(10);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(ParallelFor, PropagatesExceptions)
{
    std::atomic<size_t> completed{0};
    EXPECT_THROW(
        parallelFor(4, 32,
                    [&](size_t i) {
                        if (i == 7)
                            fatal("boom at ", i);
                        completed.fetch_add(1);
                    }),
        FatalError);
    // Every non-throwing index still ran to completion.
    EXPECT_EQ(completed.load(), 31u);
}

TEST(ParallelFor, PropagatesExceptionsSerially)
{
    std::vector<size_t> ran;
    EXPECT_THROW(parallelFor(1, 4,
                             [&](size_t i) {
                                 if (i == 2)
                                     fatal("boom");
                                 ran.push_back(i);
                             }),
                 FatalError);
    // A serial run keeps going past a failure, as a parallel one does.
    EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 3}));
}

TEST(ResolveJobs, PrecedenceRequestThenEnvThenHardware)
{
    EXPECT_EQ(resolveJobs(3), 3u);
    ASSERT_EQ(setenv("SCD_JOBS", "5", 1), 0);
    EXPECT_EQ(resolveJobs(0), 5u);
    EXPECT_EQ(resolveJobs(2), 2u); // explicit request beats the env
    // Trailing garbage is a bad value, not a prefix to keep: it falls
    // back to the hardware count, which also answers an unset env.
    ASSERT_EQ(unsetenv("SCD_JOBS"), 0);
    unsigned hardware = resolveJobs(0);
    EXPECT_GE(hardware, 1u);
    // The second count differs from the hardware's on any host, so a
    // parser that kept the numeric prefix fails here.
    for (std::string garbled : {std::string("4x"),
                                std::to_string(hardware + 3) + "x"}) {
        ASSERT_EQ(setenv("SCD_JOBS", garbled.c_str(), 1), 0);
        EXPECT_EQ(resolveJobs(0), hardware) << garbled;
    }
    ASSERT_EQ(unsetenv("SCD_JOBS"), 0);

    // The same parser reads --jobs=N.
    unsigned jobs = 7;
    for (const char *bad : {"2x", "", "0", "-3", " ", "4294967296"})
        EXPECT_FALSE(parseJobCount(bad, jobs)) << '"' << bad << '"';
    EXPECT_EQ(jobs, 7u);
    EXPECT_TRUE(parseJobCount("12", jobs));
    EXPECT_EQ(jobs, 12u);
}

/** A small two-workload plan used by the equivalence tests. */
ExperimentPlan
smallPlan()
{
    ExperimentPlan plan;
    for (const char *name : {"fibo", "n-sieve"}) {
        for (core::Scheme scheme :
             {core::Scheme::Baseline, core::Scheme::Scd}) {
            ExperimentPoint p;
            p.vm = VmKind::Rlua;
            p.workload = &workload(name);
            p.size = InputSize::Test;
            p.scheme = scheme;
            p.machine = minorConfig();
            plan.add(std::move(p));
        }
    }
    return plan;
}

TEST(RunPlan, ParallelEqualsSerialPointForPoint)
{
    ExperimentPlan plan = smallPlan();
    RunOptions serial;
    serial.jobs = 1;
    RunOptions parallel;
    parallel.jobs = 4;
    ExperimentSet a = runPlan(plan, serial);
    ExperimentSet b = runPlan(plan, parallel);
    ASSERT_EQ(a.points.size(), b.points.size());
    EXPECT_EQ(a.jobs, 1u);
    for (size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles) << i;
        EXPECT_EQ(a.at(i).run.instructions, b.at(i).run.instructions) << i;
        EXPECT_EQ(a.at(i).output, b.at(i).output) << i;
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all()) << i;
    }
}

TEST(RunPlan, JobsClampedToPlanSize)
{
    ExperimentPlan plan = smallPlan();
    RunOptions options;
    options.jobs = 64;
    ExperimentSet set = runPlan(plan, options);
    EXPECT_EQ(set.jobs, unsigned(plan.size()));
    EXPECT_GT(set.totalSeconds, 0.0);
    for (const ExperimentRun &run : set.runs)
        EXPECT_GT(run.seconds, 0.0);
}

TEST(RunPlan, FigureOutputIsByteIdenticalAcrossJobCounts)
{
    // The determinism guarantee: a figure rendered from a parallel grid
    // matches the serial run byte for byte.
    auto gridWithJobs = [](unsigned jobs) {
        RunOptions options;
        options.jobs = jobs;
        return runGridSet(minorConfig(), InputSize::Test, {VmKind::Rlua},
                          {core::Scheme::Baseline}, options)
            .grid;
    };
    Grid serial = gridWithJobs(1);
    Grid parallel = gridWithJobs(4);
    EXPECT_EQ(renderFig2(serial), renderFig2(parallel));
    EXPECT_EQ(renderFig3(serial), renderFig3(parallel));
}

} // namespace
