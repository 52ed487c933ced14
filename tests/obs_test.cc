/**
 * @file
 * Tests for the observability layer: the JSON writer/parser round trip,
 * the StatsSink schema and its serial-vs-parallel determinism contract,
 * the scd_report comparison gate (including an injected speedup
 * regression), and the event-trace buffer with its exporters.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "obs/json.hh"
#include "obs/report.hh"
#include "obs/stats_sink.hh"
#include "obs/trace.hh"

namespace
{

using namespace scd;
using namespace scd::obs;

// ---------------------------------------------------------------------------
// JSON writer / parser
// ---------------------------------------------------------------------------

TEST(Json, WriterParserRoundTrip)
{
    JsonWriter w;
    w.beginObject();
    w.member("name", "va\"lue\n");
    w.member("count", uint64_t(12345678901234567ull));
    w.member("ratio", 1.25);
    w.member("flag", true);
    w.key("missing").nullValue();
    w.key("list").beginArray();
    w.value(int64_t(-3)).value(0.5).value("x");
    w.endArray();
    w.key("nested").beginObject();
    w.member("inner", uint64_t(7));
    w.endObject();
    w.endObject();

    std::string error;
    JsonValue v = JsonValue::parse(w.str(), &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("name").asString(), "va\"lue\n");
    EXPECT_EQ(v.at("count").asUint(), 12345678901234567ull);
    EXPECT_DOUBLE_EQ(v.at("ratio").asDouble(), 1.25);
    EXPECT_TRUE(v.at("flag").asBool());
    EXPECT_TRUE(v.at("missing").isNull());
    ASSERT_EQ(v.at("list").size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("list").at(0).asDouble(), -3.0);
    EXPECT_DOUBLE_EQ(v.at("list").at(1).asDouble(), 0.5);
    EXPECT_EQ(v.at("list").at(2).asString(), "x");
    EXPECT_EQ(v.at("nested").at("inner").asUint(), 7u);
    EXPECT_TRUE(v.at("nonexistent").isNull());
    EXPECT_DOUBLE_EQ(v.numberOr("ratio", 0.0), 1.25);
    EXPECT_EQ(v.stringOr("nope", "fallback"), "fallback");
}

TEST(Json, NumbersPrintDeterministicallyAndRoundTrip)
{
    // Integral doubles print without a decimal point; non-integral
    // values round-trip exactly through the shortest %g form chosen.
    EXPECT_EQ(JsonWriter::number(3.0), "3");
    EXPECT_EQ(JsonWriter::number(-17.0), "-17");
    for (double v : {0.1, 1.0 / 3.0, 1.2107, 9.87654321e-5}) {
        std::string text = JsonWriter::number(v);
        std::string error;
        JsonValue parsed = JsonValue::parse(text, &error);
        ASSERT_TRUE(error.empty()) << text << ": " << error;
        EXPECT_DOUBLE_EQ(parsed.asDouble(), v) << text;
    }
}

TEST(Json, ParseErrorsAreReported)
{
    std::string error;
    JsonValue::parse("{\"a\": }", &error);
    EXPECT_FALSE(error.empty());
    error.clear();
    JsonValue::parse("[1, 2", &error);
    EXPECT_FALSE(error.empty());
    error.clear();
    JsonValue::parse("{\"a\": 1} trailing", &error);
    EXPECT_FALSE(error.empty());
    error.clear();
    JsonValue::parse("\"unterminated", &error);
    EXPECT_FALSE(error.empty());

    // Numbers follow RFC 8259's grammar; strtod used to keep the longest
    // valid prefix of any [0-9.eE+-] run and drop the rest silently.
    for (const char *bad :
         {"12-34", "-", "1e", "1.2.3", "[1e+]", "{\"a\": 1.}", "01", "+1",
          ".5", "-x", "[1, -]", "99999999999999999999999",
          "{\"n\": 18446744073709551616}"}) {
        error.clear();
        JsonValue::parse(bad, &error);
        EXPECT_NE(error.find(" at offset "), std::string::npos) << bad;
    }
    error.clear();
    JsonValue::parse("{\"n\": 1e}", &error);
    EXPECT_EQ(error, "expected a digit in the exponent at offset 8");
    error.clear();
    JsonValue::parse("[0, 18446744073709551616]", &error);
    EXPECT_EQ(error, "integer does not fit in 64 bits at offset 4");

    // The edges of the grammar still read.
    error.clear();
    JsonValue v = JsonValue::parse(
        "[0, -0, 18446744073709551615, -12.5e-3, 2E+2, 1e2, 0.25]", &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(v.size(), 7u);
    EXPECT_EQ(v.at(size_t(2)).asUint(), UINT64_MAX);
    EXPECT_DOUBLE_EQ(v.at(size_t(3)).asDouble(), -0.0125);
    EXPECT_DOUBLE_EQ(v.at(size_t(4)).asDouble(), 200.0);
    EXPECT_DOUBLE_EQ(v.at(size_t(6)).asDouble(), 0.25);
}

TEST(Json, EscapeDecoding)
{
    std::string error;
    JsonValue v = JsonValue::parse("\"a\\u0041\\t\\\\b\"", &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(v.asString(), "aA\t\\b");
}

// ---------------------------------------------------------------------------
// StatsSink
// ---------------------------------------------------------------------------

/** A small two-scheme sink with controllable scd cycles. */
StatsSink
makeSink(uint64_t scdCycles, uint64_t scdCycles2 = 900)
{
    StatsSink sink("unit_bench", "test");
    SetRecord &set = sink.addSet("main");
    auto addPoint = [&](const char *scheme, uint64_t cycles,
                        const char *workload) {
        PointRecord p;
        p.vm = "rlua";
        p.workload = workload;
        p.scheme = scheme;
        p.machine = "minor";
        p.instructions = cycles / 2;
        p.cycles = cycles;
        p.counters.counter("icache.misses") = 11;
        set.points.push_back(std::move(p));
    };
    addPoint("baseline", 1000, "fibo");
    addPoint("scd", scdCycles, "fibo");
    addPoint("baseline", 1200, "n-sieve");
    addPoint("scd", scdCycles2, "n-sieve");
    return sink;
}

TEST(StatsSink, SchemaAndDerivedMetrics)
{
    std::string text = makeSink(800).render();
    std::string error;
    JsonValue v = JsonValue::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(v.at("schema").asString(), kStatsSchema);
    EXPECT_EQ(v.at("bench").asString(), "unit_bench");
    EXPECT_EQ(v.at("size").asString(), "test");
    EXPECT_EQ(v.at("meta").at("gitRev").asString(), buildGitRev());

    const JsonValue &set = v.at("sets").at(0);
    EXPECT_EQ(set.at("label").asString(), "main");
    ASSERT_EQ(set.at("points").size(), 4u);
    const JsonValue &p0 = set.at("points").at(0);
    EXPECT_EQ(p0.at("scheme").asString(), "baseline");
    EXPECT_EQ(p0.at("cycles").asUint(), 1000u);
    EXPECT_EQ(p0.at("counters").at("icache.misses").asUint(), 11u);

    const JsonValue &scd = set.at("derived").at("rlua").at("scd");
    EXPECT_DOUBLE_EQ(scd.at("speedup").at("fibo").asDouble(), 1.25);
    EXPECT_NEAR(scd.at("speedup").at("n-sieve").asDouble(), 1200.0 / 900.0,
                1e-12);
    EXPECT_NEAR(scd.at("geomeanSpeedup").asDouble(),
                std::sqrt(1.25 * (1200.0 / 900.0)), 1e-12);
    EXPECT_DOUBLE_EQ(scd.at("instRatio").at("fibo").asDouble(), 0.8);
}

TEST(StatsSink, RenderIsDeterministic)
{
    EXPECT_EQ(makeSink(800).render(), makeSink(800).render());
}

/**
 * The determinism contract end to end: the same plan run serially and on
 * four workers exports byte-identical documents (no wall times, no job
 * counts in the export).
 */
TEST(StatsSink, SerialAndParallelRunsExportIdenticalJson)
{
    harness::ExperimentPlan plan;
    for (const char *name : {"fibo", "n-sieve"}) {
        for (core::Scheme scheme :
             {core::Scheme::Baseline, core::Scheme::Scd}) {
            harness::ExperimentPoint p;
            p.vm = harness::VmKind::Rlua;
            p.workload = &harness::workload(name);
            p.size = harness::InputSize::Test;
            p.scheme = scheme;
            p.machine = harness::minorConfig();
            plan.add(std::move(p));
        }
    }

    harness::RunOptions serialOpts;
    serialOpts.jobs = 1;
    harness::RunOptions parallelOpts;
    parallelOpts.jobs = 4;

    StatsSink serialSink("determinism", "test");
    harness::exportSet(serialSink, "grid",
                       harness::runPlan(plan, serialOpts));
    StatsSink parallelSink("determinism", "test");
    harness::exportSet(parallelSink, "grid",
                       harness::runPlan(plan, parallelOpts));

    EXPECT_EQ(serialSink.render(), parallelSink.render());
}

// ---------------------------------------------------------------------------
// scd_report comparison gate
// ---------------------------------------------------------------------------

JsonValue
parseSink(const StatsSink &sink)
{
    std::string error;
    JsonValue v = JsonValue::parse(sink.render(), &error);
    EXPECT_TRUE(error.empty()) << error;
    return v;
}

TEST(Report, IdenticalRunsPass)
{
    JsonValue run = parseSink(makeSink(800));
    ReportResult result = compareRuns(run, run);
    EXPECT_FALSE(result.regressed()) << result.text;
    EXPECT_NE(result.text.find("PASS"), std::string::npos);
    EXPECT_NE(result.text.find("winner scd"), std::string::npos);
}

TEST(Report, InjectedSpeedupRegressionFails)
{
    // Inject a real regression: scd loses ~10% of its fibo speedup
    // (cycles 800 -> 880). The derived geomeanSpeedup and the fibo
    // speedup both move far past the 2% default tolerance.
    JsonValue baseline = parseSink(makeSink(800));
    JsonValue regressed = parseSink(makeSink(880));
    ReportResult result = compareRuns(baseline, regressed);
    EXPECT_TRUE(result.regressed());
    EXPECT_NE(result.text.find("FAIL"), std::string::npos);
    bool geomeanFlagged = false;
    for (const std::string &f : result.failures)
        geomeanFlagged |= f.find("geomeanSpeedup") != std::string::npos;
    EXPECT_TRUE(geomeanFlagged) << result.text;
}

TEST(Report, ToleranceEdges)
{
    // fibo speedup moves 1.25 -> 1.25/1.01 (~1% down). Tolerance 2%
    // passes; tolerance 0.5% fails.
    JsonValue baseline = parseSink(makeSink(800));
    JsonValue moved = parseSink(makeSink(808));
    ReportOptions loose;
    loose.tolerance = 0.02;
    EXPECT_FALSE(compareRuns(baseline, moved, loose).regressed());
    ReportOptions tight;
    tight.tolerance = 0.005;
    EXPECT_TRUE(compareRuns(baseline, moved, tight).regressed());
}

TEST(Report, NonFiniteOrNegativeToleranceFails)
{
    // A NaN tolerance makes every "delta > tolerance" test false, so a
    // +50% move would pass; such tolerances must fail the gate instead.
    JsonValue run = parseSink(makeSink(800));
    JsonValue moved = parseSink(makeSink(1200));
    for (double bad : {std::nan(""), double(INFINITY), -0.01}) {
        ReportOptions options;
        options.tolerance = bad;
        EXPECT_TRUE(compareRuns(run, run, options).regressed()) << bad;
        ReportResult result = compareRuns(run, moved, options);
        EXPECT_TRUE(result.regressed()) << bad;
        EXPECT_EQ(result.text.find("PASS"), std::string::npos)
            << result.text;
    }
}

TEST(Report, WinnerChangeIsAFailureEvenWithinTolerance)
{
    // Two schemes 0.5% apart: a tiny move that swaps the winner must
    // still be flagged (the shape claim changed) even though no metric
    // moved past the 2% tolerance.
    auto makeTwoSchemes = [](uint64_t scdCycles, uint64_t vbbiCycles) {
        StatsSink sink("unit_bench", "test");
        SetRecord &set = sink.addSet("main");
        auto add = [&](const char *scheme, uint64_t cycles) {
            PointRecord p;
            p.vm = "rlua";
            p.workload = "fibo";
            p.scheme = scheme;
            p.machine = "minor";
            p.instructions = 100;
            p.cycles = cycles;
            set.points.push_back(std::move(p));
        };
        add("baseline", 1000);
        add("scd", scdCycles);
        add("vbbi", vbbiCycles);
        return sink;
    };
    JsonValue baseline = parseSink(makeTwoSchemes(800, 804));
    JsonValue swapped = parseSink(makeTwoSchemes(804, 800));
    ReportResult result = compareRuns(baseline, swapped);
    EXPECT_TRUE(result.regressed());
    bool winnerFlagged = false;
    for (const std::string &f : result.failures)
        winnerFlagged |= f.find("winner changed") != std::string::npos;
    EXPECT_TRUE(winnerFlagged) << result.text;
}

TEST(Report, MetricsAndStructureMismatches)
{
    StatsSink a("unit_bench", "test");
    a.addMetric("hwcost.areaDeltaPct", 0.72);
    StatsSink b("unit_bench", "test");
    b.addMetric("hwcost.areaDeltaPct", 0.72 * 1.5);
    EXPECT_TRUE(
        compareRuns(parseSink(a), parseSink(b)).regressed());

    // A metric disappearing from the current run is a failure.
    StatsSink none("unit_bench", "test");
    EXPECT_TRUE(
        compareRuns(parseSink(a), parseSink(none)).regressed());

    // Different bench names cannot be meaningfully compared.
    StatsSink other("other_bench", "test");
    other.addMetric("hwcost.areaDeltaPct", 0.72);
    EXPECT_TRUE(
        compareRuns(parseSink(a), parseSink(other)).regressed());

    // Non-schema documents fail early.
    std::string error;
    JsonValue junk = JsonValue::parse("{\"schema\": \"other\"}", &error);
    ASSERT_TRUE(error.empty());
    ReportResult result = compareRuns(junk, junk);
    EXPECT_TRUE(result.regressed());
    EXPECT_NE(result.text.find("schema mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace buffer and exporters
// ---------------------------------------------------------------------------

TEST(Trace, RingRetainsNewestAndAggregatesEverything)
{
    TraceBuffer trace(4);
    for (uint64_t n = 0; n < 10; ++n) {
        trace.setCycle(n);
        trace.record(TraceEventKind::Retire, 0x1000 + 4 * n, 0,
                     uint8_t(n % 3));
    }
    EXPECT_EQ(trace.recorded(), 10u);
    EXPECT_EQ(trace.dropped(), 6u);
    EXPECT_EQ(trace.capacity(), 4u);

    auto events = trace.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().cycle, 6u); // oldest retained
    EXPECT_EQ(events.back().cycle, 9u);  // newest

    // Aggregates cover the whole run, not just the retained window.
    const auto &ops = trace.opProfiles();
    EXPECT_EQ(ops[0].retired + ops[1].retired + ops[2].retired, 10u);

    trace.clear();
    EXPECT_EQ(trace.recorded(), 0u);
    EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, DispatchSiteAndStallAggregation)
{
    TraceBuffer trace(64);
    trace.setCycle(5);
    // Three dispatch executions at one site, one mispredicted.
    for (int n = 0; n < 3; ++n) {
        trace.record(TraceEventKind::Retire, 0x2000, 0, /*op=*/7,
                     kTraceDispatchClass);
    }
    trace.record(TraceEventKind::Mispredict, 0x2000, 0, /*op=*/7,
                 kTraceDispatchClass);
    trace.record(TraceEventKind::RopStall, 0x2000, /*arg=*/3, /*op=*/7);
    trace.record(TraceEventKind::LoadUseStall, 0x3000, /*arg=*/2,
                 /*op=*/9);

    const auto &sites = trace.dispatchSites();
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites.at(0x2000).executed, 3u);
    EXPECT_EQ(sites.at(0x2000).mispredicted, 1u);

    const auto &ops = trace.opProfiles();
    EXPECT_EQ(ops[7].retired, 3u);
    EXPECT_EQ(ops[7].mispredicts, 1u);
    EXPECT_EQ(ops[7].stallCycles, 3u);
    EXPECT_EQ(ops[9].stallCycles, 2u);
}

TEST(Trace, ChromeTraceExportIsValidJson)
{
    TraceBuffer trace(16);
    trace.setCycle(1);
    trace.record(TraceEventKind::Retire, 0x1000, 0, 5);
    trace.setCycle(2);
    trace.record(TraceEventKind::Mispredict, 0x1000, 0, 5, 3);
    trace.record(TraceEventKind::JteInsert, 0x1004, 42, 6, 3);
    trace.record(TraceEventKind::LoadUseStall, 0x1008, 2, 7);

    std::string json = chromeTraceJson(
        trace, [](uint8_t op) { return "op" + std::to_string(op); });
    std::string error;
    JsonValue v = JsonValue::parse(json, &error);
    ASSERT_TRUE(error.empty()) << error;
    const JsonValue &events = v.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // Metadata + thread names + the four events.
    EXPECT_GE(events.size(), 4u);
    bool sawRetire = false;
    for (size_t i = 0; i < events.size(); ++i) {
        if (events.at(i).stringOr("name", "") == "op5")
            sawRetire = true;
    }
    EXPECT_TRUE(sawRetire);
}

TEST(Trace, ProfileReportNamesOpcodes)
{
    TraceBuffer trace(16);
    trace.record(TraceEventKind::Retire, 0x1000, 0, 5);
    trace.record(TraceEventKind::Retire, 0x2000, 0, 5,
                 kTraceDispatchClass);
    std::string report = profileReport(
        trace, [](uint8_t op) { return "mnemonic" + std::to_string(op); });
    EXPECT_NE(report.find("mnemonic5"), std::string::npos);
    EXPECT_NE(report.find("0x2000"), std::string::npos);
}

/**
 * A simulation with a trace buffer attached records the paper's Fig. 2
 * quantity (the dispatch jump's mispredicts) and the SCD JTE traffic,
 * and its numbers are those of the same run without a buffer: the traced
 * run steps the reference interpreter, the untraced one the threaded
 * tier.
 */
TEST(Trace, TracedRunMatchesTheUntracedRun)
{
    using namespace scd::harness;
    for (core::Scheme scheme : {core::Scheme::Baseline, core::Scheme::Scd}) {
        SCOPED_TRACE(core::schemeName(scheme));
        ExperimentResult plain = runWorkload(
            VmKind::Rlua, workload("fibo"), InputSize::Test, scheme,
            minorConfig());
        TraceBuffer trace;
        ExperimentResult traced = runWorkload(
            VmKind::Rlua, workload("fibo"), InputSize::Test, scheme,
            minorConfig(), /*maxInstructions=*/0, &trace);
        EXPECT_EQ(traced.run.cycles, plain.run.cycles);
        EXPECT_EQ(traced.run.instructions, plain.run.instructions);
        EXPECT_EQ(traced.stats.all(), plain.stats.all());
        ASSERT_GT(trace.recorded(), 0u);
        ASSERT_EQ(trace.dropped(), 0u) << "the window must hold the run";

        uint64_t jteInserts = 0;
        for (const TraceEvent &e : trace.events())
            jteInserts += e.kind == TraceEventKind::JteInsert;
        EXPECT_EQ(jteInserts, plain.stats.get("scd.jteInserts"));

        if (scheme == core::Scheme::Baseline) {
            // One shared dispatch jump, and it nearly always mispredicts.
            ASSERT_EQ(trace.dispatchSites().size(), 1u);
            const TraceBuffer::SiteProfile &site =
                trace.dispatchSites().begin()->second;
            EXPECT_GT(site.executed, 0u);
            EXPECT_GE(site.mispredicted * 100, site.executed * 99);
        } else {
            EXPECT_GT(jteInserts, 0u);
        }
    }
}

} // namespace
