/**
 * @file
 * Tests for the crash-safe checkpoint journal and --resume
 * (src/harness/journal.hh): journaled points must round-trip exactly,
 * a resumed run must skip them (no guest re-compiles, no re-execution)
 * and still export a byte-identical stats document, and damaged
 * journals (the kill window) must degrade to re-running points, never
 * to corrupt results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/replay.hh"
#include "harness/runner.hh"
#include "obs/stats_sink.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

std::string
tempPath(const char *name)
{
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

ExperimentPlan
smallPlan()
{
    ExperimentPlan plan;
    for (const auto &name : {"fibo", "n-sieve"}) {
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

std::string
exportDoc(const ExperimentSet &set)
{
    obs::StatsSink sink("resume_test", "test");
    exportSet(sink, "plan", set);
    return sink.render();
}

/** One journal line parses back into an identical run record. */
TEST(Resume, JournalLineRoundTrips)
{
    ExperimentRun run;
    run.status = PointStatus::Degraded;
    run.error = "replay poisoned; direct fallback succeeded";
    run.seconds = 1.5;
    run.result.run.instructions = 12345;
    run.result.run.cycles = 67890;
    run.result.run.exitCode = 0;
    run.result.run.exited = true;
    run.result.output = "4613732\nline \"two\"\n";
    run.result.interpreterTextBytes = 4096;
    run.result.simSeconds = 0.25;
    run.result.stats.counter("branch.cond.mispredicted") = 17;
    run.result.stats.counter("icache.misses") = 3;

    std::string line = journalLine("rlua/fibo|0|0|sig", run);
    std::string path = tempPath("journal_roundtrip.jsonl");
    {
        std::ofstream f(path);
        f << line << "\n";
    }
    auto restored = loadJournal(path);
    ASSERT_EQ(restored.size(), 1u);
    const ExperimentRun &r = restored.at("rlua/fibo|0|0|sig");
    EXPECT_EQ(r.status, PointStatus::Degraded);
    EXPECT_EQ(r.error, run.error);
    EXPECT_EQ(r.result.run.instructions, run.result.run.instructions);
    EXPECT_EQ(r.result.run.cycles, run.result.run.cycles);
    EXPECT_TRUE(r.result.run.exited);
    EXPECT_EQ(r.result.output, run.result.output);
    EXPECT_EQ(r.result.interpreterTextBytes,
              run.result.interpreterTextBytes);
    EXPECT_EQ(r.result.stats.all(), run.result.stats.all());
    std::remove(path.c_str());
}

/** A fully journaled plan resumes without executing anything. */
TEST(Resume, FullJournalSkipsEveryPoint)
{
    std::string path = tempPath("journal_full.jsonl");
    ExperimentPlan plan = smallPlan();

    RunOptions first;
    first.jobs = 2;
    first.journalPath = path;
    ExperimentSet a = runPlan(plan, first);
    EXPECT_EQ(a.executed, plan.size());
    EXPECT_EQ(a.resumed, 0u);

    resetGuestCache();
    RunOptions second;
    second.jobs = 2;
    second.journalPath = path;
    second.resume = true;
    ExperimentSet b = runPlan(plan, second);
    EXPECT_EQ(b.executed, 0u);
    EXPECT_EQ(b.resumed, plan.size());
    // Nothing ran, so nothing compiled: the restore is pure I/O.
    EXPECT_EQ(guestCacheStats().compiles, 0u);

    EXPECT_EQ(exportDoc(a), exportDoc(b));
    std::remove(path.c_str());
}

/**
 * Kill-window simulation: keep only a prefix of the journal, resume,
 * and require the merged result to be byte-identical to the
 * uninterrupted run while re-running only the missing points.
 */
TEST(Resume, PartialJournalResumesByteIdentical)
{
    std::string path = tempPath("journal_partial.jsonl");
    ExperimentPlan plan = smallPlan();

    RunOptions journaled;
    journaled.jobs = 1; // deterministic journal order for the truncation
    journaled.journalPath = path;
    ExperimentSet a = runPlan(plan, journaled);
    std::string reference = exportDoc(a);

    // Keep the first two journal lines, as if killed mid-plan.
    std::vector<std::string> lines;
    {
        std::ifstream f(path);
        std::string line;
        while (std::getline(f, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), plan.size());
    {
        std::ofstream f(path, std::ios::trunc);
        f << lines[0] << "\n" << lines[1] << "\n";
    }

    RunOptions resume;
    resume.jobs = 2;
    resume.journalPath = path;
    resume.resume = true;
    ExperimentSet b = runPlan(plan, resume);
    EXPECT_EQ(b.resumed, 2u);
    EXPECT_EQ(b.executed, plan.size() - 2);
    EXPECT_EQ(exportDoc(b), reference);

    // The resumed run keeps appending: the journal is whole again and a
    // third run restores everything.
    ExperimentSet c = runPlan(plan, resume);
    EXPECT_EQ(c.resumed, plan.size());
    EXPECT_EQ(c.executed, 0u);
    EXPECT_EQ(exportDoc(c), reference);
    std::remove(path.c_str());
}

/** A truncated trailing line (the crash window) is ignored cleanly. */
TEST(Resume, TruncatedTrailingLineIgnored)
{
    std::string path = tempPath("journal_truncated.jsonl");
    ExperimentPlan plan = smallPlan();

    RunOptions journaled;
    journaled.jobs = 1;
    journaled.journalPath = path;
    ExperimentSet a = runPlan(plan, journaled);
    std::string reference = exportDoc(a);

    // Chop the file mid-way through its final line.
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    in.close();
    std::string contents = buf.str();
    {
        std::ofstream f(path, std::ios::trunc);
        f << contents.substr(0, contents.size() - 25);
    }

    RunOptions resume;
    resume.jobs = 1;
    resume.journalPath = path;
    resume.resume = true;
    ExperimentSet b = runPlan(plan, resume);
    EXPECT_EQ(b.resumed, plan.size() - 1);
    EXPECT_EQ(b.executed, 1u);
    EXPECT_EQ(exportDoc(b), reference);
    std::remove(path.c_str());
}

/**
 * A line carrying a valid schema and key but missing a result field, or
 * holding it with the wrong JSON type, is rejected: the point re-runs
 * instead of being restored as an Ok run with zero instructions.
 */
TEST(Resume, LinesWithMissingOrMistypedResultsAreRerun)
{
    ExperimentRun run;
    run.result.run.instructions = 12345;
    run.result.run.cycles = 67890;
    run.result.run.exited = true;
    run.result.interpreterTextBytes = 4096;
    run.result.stats.counter("icache.misses") = 3;
    std::string whole = journalLine("k", run);
    std::string key;
    ExperimentRun parsed;
    ASSERT_TRUE(parseJournalLine(whole, key, parsed));

    const std::vector<std::pair<std::string, std::string>> damage = {
        {"\"exited\":true", "\"exited\":1"},
        {"\"instructions\":12345", "\"instructions\":\"12345\""},
        {"\"cycles\":67890", "\"cycles\":null"},
        {"\"textBytes\":4096", "\"textBytes\":[4096]"},
        {"\"counters\":{\"icache.misses\":3}", "\"counters\":[]"},
        {"\"icache.misses\":3", "\"icache.misses\":true"},
    };
    for (const auto &[field, replacement] : damage) {
        std::string line = whole;
        size_t at = line.find(field);
        ASSERT_NE(at, std::string::npos) << field;
        EXPECT_FALSE(parseJournalLine(
            std::string(line).replace(at, field.size(), replacement), key,
            parsed))
            << "mistyped: " << replacement;
        // Drop the member and its separating comma.
        std::string dropped = line.replace(at - 1, field.size() + 1, "");
        if (field.find("icache") == std::string::npos) {
            EXPECT_FALSE(parseJournalLine(dropped, key, parsed))
                << "missing: " << field;
        }
    }

    // End to end: a bare {schema, key} line for a real point must not
    // satisfy --resume.
    ExperimentPlan plan = smallPlan();
    std::string path = tempPath("journal_bare.jsonl");
    {
        std::ofstream f(path);
        f << "{\"schema\":\"scd-journal-v1\",\"key\":\""
          << pointKey(plan.points()[0]) << "\"}\n";
    }
    RunOptions resume;
    resume.jobs = 1;
    resume.journalPath = path;
    resume.resume = true;
    ExperimentSet b = runPlan(plan, resume);
    EXPECT_EQ(b.resumed, 0u);
    EXPECT_EQ(b.executed, plan.size());
    EXPECT_EQ(b.runs[0].status, PointStatus::Ok);
    EXPECT_GT(b.runs[0].result.run.instructions, 0u);
    std::remove(path.c_str());
}

/** Unusable points are not journaled, so a resume retries them. */
TEST(Resume, FailedPointsAreRetriedOnResume)
{
    static const Workload trap{"trap-test",
                               "calls nil to force a guest runtime trap",
                               "local x = nil\nx()\n",
                               1, 1, 1};
    std::string path = tempPath("journal_failed.jsonl");
    ExperimentPlan plan;
    ExperimentPoint ok;
    ok.vm = VmKind::Rlua;
    ok.workload = &workload("fibo");
    ok.size = InputSize::Test;
    ok.scheme = core::Scheme::Baseline;
    ok.machine = minorConfig();
    plan.add(ok);
    ExperimentPoint bad = ok;
    bad.workload = &trap;
    plan.add(bad);

    RunOptions journaled;
    journaled.jobs = 1;
    journaled.replay = false;
    journaled.journalPath = path;
    ExperimentSet a = runPlan(plan, journaled);
    EXPECT_EQ(a.runs[1].status, PointStatus::Failed);
    ASSERT_EQ(loadJournal(path).size(), 1u);

    RunOptions resume = journaled;
    resume.resume = true;
    ExperimentSet b = runPlan(plan, resume);
    EXPECT_EQ(b.resumed, 1u);
    EXPECT_EQ(b.executed, 1u) << "the failed point must run again";
    EXPECT_EQ(b.runs[1].status, PointStatus::Failed);
    std::remove(path.c_str());
}

/** Point keys are unique across a sweep that reuses machine names. */
TEST(Resume, PointKeysDistinguishTimingVariants)
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

/**
 * finishRun's exit-code precedence: an export failure outranks troubled
 * points, which outrank a clean run.
 */
TEST(ExitCodes, FinishRunPrecedence)
{
    ExperimentPlan plan;
    ExperimentPoint p;
    p.vm = VmKind::Rlua;
    p.workload = &workload("fibo");
    p.size = InputSize::Test;
    p.scheme = core::Scheme::Baseline;
    p.machine = minorConfig();
    plan.add(p);

    ExperimentSet clean;
    clean.points = plan.points();
    clean.runs.resize(1);

    ExperimentSet troubled = clean;
    troubled.runs[0].status = PointStatus::Failed;
    troubled.runs[0].error = "synthetic";

    obs::StatsSink sink("resume_test", "test");
    exportSet(sink, "clean", clean);

    std::string good = tempPath("exitcodes.json");
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

} // namespace
