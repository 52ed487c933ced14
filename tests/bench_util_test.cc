/**
 * @file
 * Flag parsing shared by the bench binaries (bench/bench_util.hh): an
 * argument a binary does not take, or a malformed --frontend spec, ends
 * the binary with exit code 2 and the
 * reason instead of an uncaught FatalError, scd_trace's --events
 * accepts only a whole positive decimal within the window limit and an
 * unknown --vm, --workload or --scheme exits 2 too, and --point-timeout
 * accepts only a finite positive decimal.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "harness/machines.hh"

namespace
{

using namespace scd;

/** Call @p parse with a bench-binary-style argv holding @p args. */
template <typename Parse>
auto
withArgv(std::vector<std::string> args, Parse parse)
{
    args.insert(args.begin(), "fig07_10_overall");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return parse(int(argv.size()), argv.data());
}

/** Run the figure binaries' flag check over a bench-binary-style argv. */
void
checkFigureFlags(std::vector<std::string> args)
{
    withArgv(std::move(args), bench::checkFigureFlags);
}

TEST(BenchFlags, FigureBinariesTakeTheirOwnFlags)
{
    checkFigureFlags({});
    checkFigureFlags({"--size=test", "--jobs=4", "--json=out.json",
                      "--frontend=mlbtb", "--no-replay",
                      "--point-timeout=60"});
    // Values are checked by each flag's own parser, not here.
    checkFigureFlags({"--size=bogus", "--jobs=x"});
}

/** A misspelt flag or a stray argument used to run the default grid
 *  with exit 0; every one now exits 2 with the reason. */
TEST(BenchFlags, UnknownFlagOrArgumentExitsWithCode2)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(checkFigureFlags({"--size=test", "--jbos=1"}),
                ::testing::ExitedWithCode(2), "unknown flag '--jbos=1'");
    EXPECT_EXIT(checkFigureFlags({"--no-reply"}),
                ::testing::ExitedWithCode(2), "unknown flag '--no-reply'");
    // A standalone flag takes no value, and a value flag needs its '='.
    EXPECT_EXIT(checkFigureFlags({"--no-replay=1"}),
                ::testing::ExitedWithCode(2),
                "unknown flag '--no-replay=1'");
    EXPECT_EXIT(checkFigureFlags({"--size", "test"}),
                ::testing::ExitedWithCode(2), "unknown flag '--size'");
    EXPECT_EXIT(checkFigureFlags({"test"}), ::testing::ExitedWithCode(2),
                "unexpected argument 'test'");
    EXPECT_EXIT(checkFigureFlags({"-j4"}), ::testing::ExitedWithCode(2),
                "unexpected argument '-j4'");
    // A binary's own list: scd_trace takes --vm=, the figures do not.
    EXPECT_EXIT(checkFigureFlags({"--vm=rlua"}),
                ::testing::ExitedWithCode(2), "unknown flag '--vm=rlua'");
    withArgv({"--vm=rlua", "--out=t.json"}, [](int argc, char **argv) {
        bench::checkFlags(argc, argv, {"--vm=", "--out="});
    });
}

/** Call applyFrontendFlag with a bench-binary-style argv. */
cpu::CoreConfig
applyFlags(std::vector<std::string> args)
{
    return withArgv(std::move(args), [](int argc, char **argv) {
        return bench::applyFrontendFlag(argc, argv, harness::minorConfig());
    });
}

TEST(BenchFlags, FrontendFlagAppliesAValidSpec)
{
    cpu::CoreConfig plain = applyFlags({"--size=test"});
    EXPECT_EQ(plain.frontend.kind, branch::FrontendKind::Ideal);
    EXPECT_EQ(plain.name, harness::minorConfig().name);

    cpu::CoreConfig ml = applyFlags({"--frontend=mlbtb+tag4"});
    EXPECT_EQ(ml.frontend.kind, branch::FrontendKind::MultiLevel);
    EXPECT_EQ(ml.frontend.partialTagBits, 4u);
}

TEST(BenchFlags, MalformedFrontendFlagExitsWithCode2)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(applyFlags({"--frontend=bogus"}),
                ::testing::ExitedWithCode(2),
                "bad --frontend value 'bogus'");
    EXPECT_EXIT(applyFlags({"--frontend=mlbtb+tag4294967300"}),
                ::testing::ExitedWithCode(2), "bad --frontend value");
    // Parses, but cannot be built: a partial tag wider than 32 bits.
    EXPECT_EXIT(applyFlags({"--frontend=mlbtb+tag40"}),
                ::testing::ExitedWithCode(2), "partialTagBits");
    // Parses, but would scan (and allocate) more slots than the BTB
    // holds; validation rejects it before anything is built.
    EXPECT_EXIT(applyFlags({"--frontend=mlbtb+micro4000000000"}),
                ::testing::ExitedWithCode(2), "microEntries");
    EXPECT_EXIT(applyFlags({"--frontend=fdip+ftq4000000000"}),
                ::testing::ExitedWithCode(2), "ftqDepth");
}

/** Call parseTracePoint with a bench-binary-style argv. */
bench::TracePoint
tracePoint(std::vector<std::string> args)
{
    return withArgv(std::move(args), bench::parseTracePoint);
}

TEST(BenchFlags, TracePointNamesVmWorkloadAndScheme)
{
    bench::TracePoint def = tracePoint({"--size=test"});
    EXPECT_EQ(def.vm, harness::VmKind::Rlua);
    EXPECT_EQ(def.workload->name, "fibo");
    EXPECT_EQ(def.scheme, core::Scheme::Scd);

    bench::TracePoint p = tracePoint(
        {"--vm=sjs", "--workload=n-sieve", "--scheme=jump-threading"});
    EXPECT_EQ(p.vm, harness::VmKind::Sjs);
    EXPECT_EQ(p.workload->name, "n-sieve");
    EXPECT_EQ(p.scheme, core::Scheme::JumpThreading);
}

/** An unknown workload used to escape as an uncaught FatalError and
 *  abort scd_trace; every bad value now exits 2 with the reason. */
TEST(BenchFlags, UnknownTracePointExitsWithCode2)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(tracePoint({"--workload=nosuch"}),
                ::testing::ExitedWithCode(2),
                "bad --workload value: unknown workload 'nosuch'");
    EXPECT_EXIT(tracePoint({"--vm=lua"}), ::testing::ExitedWithCode(2),
                "unknown --vm value 'lua'");
    EXPECT_EXIT(tracePoint({"--scheme=fast"}), ::testing::ExitedWithCode(2),
                "unknown --scheme value 'fast'");
}

TEST(BenchFlags, TraceEventsAcceptOnlyWholePositiveDecimals)
{
    size_t events = 0;
    EXPECT_TRUE(bench::parseTraceEvents("64", events));
    EXPECT_EQ(events, 64u);
    EXPECT_TRUE(bench::parseTraceEvents("65536", events));
    EXPECT_EQ(events, 65536u);
    EXPECT_TRUE(bench::parseTraceEvents(
        std::to_string(bench::kMaxTraceEvents).c_str(), events));
    EXPECT_EQ(events, bench::kMaxTraceEvents);

    for (const char *bad :
         {"64k", "abc", "-1", "0", "", "1.5", "+64", " 64",
          "18446744073709551615", "99999999999999999999"}) {
        events = 7;
        EXPECT_FALSE(bench::parseTraceEvents(bad, events))
            << '"' << bad << '"';
        EXPECT_EQ(events, 7u) << '"' << bad << '"';
    }
    EXPECT_FALSE(bench::parseTraceEvents(
        std::to_string(bench::kMaxTraceEvents + 1).c_str(), events));
}

TEST(BenchFlags, PointTimeoutAcceptsOnlyFinitePositiveDecimals)
{
    double seconds = 0.0;
    for (auto [text, want] :
         {std::pair{"60", 60.0}, std::pair{"0.5", 0.5},
          std::pair{"2.5e-3", 2.5e-3}, std::pair{"1E10", 1e10}}) {
        EXPECT_TRUE(harness::parsePointTimeout(text, seconds)) << text;
        EXPECT_EQ(seconds, want) << text;
    }

    for (const char *bad :
         {"inf", "INF", "infinity", "-inf", "nan", "1e999", "1e-999", "0",
          "-5", "", "5s", " 5", "0x10", "e"}) {
        seconds = 7.0;
        EXPECT_FALSE(harness::parsePointTimeout(bad, seconds))
            << '"' << bad << '"';
        EXPECT_EQ(seconds, 7.0) << '"' << bad << '"';
    }

    // The driver flag warns on a bad value and skips it; the first good
    // value wins, and no good value means no deadline.
    EXPECT_EQ(withArgv({}, bench::parsePointTimeout), 0.0);
    EXPECT_EQ(withArgv({"--point-timeout=inf"}, bench::parsePointTimeout),
              0.0);
    EXPECT_EQ(withArgv({"--point-timeout=30"}, bench::parsePointTimeout),
              30.0);
    EXPECT_EQ(withArgv({"--point-timeout=nan", "--point-timeout=30"},
                       bench::parsePointTimeout),
              30.0);
}

} // namespace
