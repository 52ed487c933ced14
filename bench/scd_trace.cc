/**
 * @file
 * Pipeline event-trace capture CLI. Runs one workload with a TraceBuffer
 * attached to the timing model, then prints the per-opcode /
 * per-dispatch-site profile report and (optionally) writes the retained
 * event window as Chrome trace_event JSON for chrome://tracing or
 * https://ui.perfetto.dev. Works in every build: with a buffer attached
 * the core steps the reference interpreter, whose retire records the
 * events, and the run's numbers are those of an untraced run. A flag
 * value it cannot honour (an unknown VM, workload or scheme, a bad
 * --events or --frontend) prints the reason and exits 2.
 *
 * Usage:
 *   scd_trace [--vm=rlua|sjs] [--workload=NAME] [--scheme=NAME]
 *             [--size=test|sim|fpga] [--events=N] [--out=trace.json]
 *             [--frontend=SPEC]
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "isa/opcode.hh"
#include "obs/trace.hh"

namespace
{

std::string
opName(uint8_t op)
{
    if (op < scd::isa::kNumOpcodes)
        return scd::isa::mnemonic(scd::isa::Opcode(op));
    return "op" + std::to_string(op);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scd;
    using namespace scd::harness;

    bench::checkFlags(argc, argv,
                      {"--events=", "--size=", "--vm=", "--workload=",
                       "--scheme=", "--out=", "--frontend="});

    std::string eventsFlag = bench::flagValue(argc, argv, "--events=",
                                              "65536");
    size_t events = 0;
    if (!bench::parseTraceEvents(eventsFlag.c_str(), events)) {
        std::fprintf(stderr,
                     "bad --events value '%s' (want a whole number of "
                     "events in [1, %zu])\n",
                     eventsFlag.c_str(), bench::kMaxTraceEvents);
        return 2;
    }
    InputSize size = bench::parseSize(argc, argv, InputSize::Test);
    bench::TracePoint point = bench::parseTracePoint(argc, argv);
    std::string outPath = bench::flagValue(argc, argv, "--out=", "");

    std::fprintf(stderr, "scd_trace: %s/%s/%s (%s), %zu-event window\n",
                 vmName(point.vm), point.workload->name.c_str(),
                 core::schemeName(point.scheme), bench::sizeName(size),
                 events);

    cpu::CoreConfig machine =
        bench::applyFrontendFlag(argc, argv, minorConfig());
    obs::TraceBuffer trace(events);
    ExperimentResult result =
        runWorkload(point.vm, *point.workload, size, point.scheme, machine,
                    /*maxInstructions=*/0, &trace);
    std::printf("%s", obs::profileReport(trace, opName).c_str());
    std::printf("\nrun: %llu instructions, %llu cycles; trace recorded "
                "%llu events (%llu dropped from the window)\n",
                (unsigned long long)result.run.instructions,
                (unsigned long long)result.run.cycles,
                (unsigned long long)trace.recorded(),
                (unsigned long long)trace.dropped());

    if (!outPath.empty()) {
        std::string json = obs::chromeTraceJson(trace, opName);
        std::FILE *f = std::fopen(outPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
            return 1;
        }
        bool ok =
            std::fwrite(json.data(), 1, json.size(), f) == json.size();
        ok = std::fclose(f) == 0 && ok;
        if (!ok) {
            std::fprintf(stderr, "short write to %s\n", outPath.c_str());
            return 1;
        }
        std::printf("wrote %s (load in chrome://tracing or "
                    "ui.perfetto.dev)\n",
                    outPath.c_str());
    }
    return 0;
}
