/**
 * @file
 * Flag parsing shared by the bench binaries (bench/bench_util.hh): a
 * malformed --frontend spec ends the binary with exit code 2 and the
 * reason instead of an uncaught FatalError, and scd_trace's --events
 * accepts only a whole positive decimal within the window limit.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/machines.hh"

namespace
{

using namespace scd;

/** Call applyFrontendFlag with a bench-binary-style argv. */
cpu::CoreConfig
applyFlags(std::vector<std::string> args)
{
    args.insert(args.begin(), "fig07_10_overall");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench::applyFrontendFlag(int(argv.size()), argv.data(),
                                    harness::minorConfig());
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

} // namespace
