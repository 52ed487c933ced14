/**
 * @file
 * Small shared helpers for the figure/table bench binaries: command-line
 * flag parsing. An argument a binary does not take ends it with exit
 * code 2 and the reason on stderr before any work starts (checkFlags).
 * A flag value that cannot be honoured either falls back with a warning
 * (--size, --jobs) or exits 2 too (--frontend, and scd_trace's --events,
 * --vm, --workload and --scheme).
 */

#ifndef SCD_BENCH_BENCH_UTIL_HH
#define SCD_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>

#include "branch/frontend.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"

namespace scd::bench
{

/**
 * Reject every argument a binary does not take. @p accepted lists its
 * flags: one ending in '=' takes a value ("--size="), any other stands
 * alone ("--no-replay"). A binary takes no positional arguments, so
 * anything else — a misspelt flag, or "--size test" with a space —
 * prints the reason and exits 2 before any work starts, rather than
 * running with a default the caller did not ask for.
 */
inline void
checkFlags(int argc, char **argv, std::initializer_list<const char *> accepted)
{
    for (int n = 1; n < argc; ++n) {
        const char *arg = argv[n];
        bool known = false;
        for (const char *flag : accepted) {
            size_t len = std::strlen(flag);
            known = flag[len - 1] == '=' ? std::strncmp(arg, flag, len) == 0
                                         : std::strcmp(arg, flag) == 0;
            if (known)
                break;
        }
        if (known)
            continue;
        if (std::strncmp(arg, "--", 2) == 0)
            std::fprintf(stderr, "unknown flag '%s'\n", arg);
        else
            std::fprintf(stderr, "unexpected argument '%s' (flags only)\n",
                         arg);
        std::exit(2);
    }
}

/**
 * checkFlags for the figure and table binaries: --size, --json,
 * --frontend and parseRunOptions' --jobs, --no-replay and
 * --point-timeout.
 */
inline void
checkFigureFlags(int argc, char **argv)
{
    checkFlags(argc, argv,
               {"--size=", "--jobs=", "--json=", "--frontend=", "--no-replay",
                "--point-timeout="});
}

/**
 * Parse --size=test|sim|fpga (default @p fallback). The quick "test"
 * size exists so `ctest`-adjacent smoke runs stay cheap.
 */
inline harness::InputSize
parseSize(int argc, char **argv, harness::InputSize fallback)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--size=", 7) == 0) {
            harness::InputSize size;
            if (harness::parseInputSize(argv[n] + 7, size))
                return size;
            std::fprintf(stderr, "unknown --size value '%s'\n", argv[n] + 7);
        }
    }
    return fallback;
}

/**
 * Parse --jobs=N. Returns 0 ("auto") when absent: runPlan() then honours
 * $SCD_JOBS and finally the hardware concurrency. --jobs=1 forces the
 * serial path.
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--jobs=", 7) == 0) {
            unsigned jobs = 0;
            if (harness::parseJobCount(argv[n] + 7, jobs))
                return jobs;
            std::fprintf(stderr, "ignoring bad --jobs value '%s'\n",
                         argv[n] + 7);
        }
    }
    return 0;
}

/**
 * Parse --frontend=<spec>: the frontend organization every timed machine
 * in the driver fetches through (branch::frontendFromSpec — "ideal",
 * "mlbtb", "mlbtb+tag6+fdip", ...). Returns the spec, or an empty string
 * when the flag is absent (keep the machine's own default).
 */
inline std::string
parseFrontend(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--frontend=", 11) == 0) {
            if (argv[n][11] != '\0')
                return argv[n] + 11;
            std::fprintf(stderr, "ignoring empty --frontend value\n");
        }
    }
    return "";
}

/**
 * Apply a --frontend= flag to an already-built machine configuration
 * (harness::withFrontend); a missing flag leaves it untouched. A spec
 * that does not parse, or names an organization that cannot be built on
 * the machine's BTB, prints the reason and exits 2 before any point runs.
 */
inline cpu::CoreConfig
applyFrontendFlag(int argc, char **argv, cpu::CoreConfig config)
{
    std::string spec = parseFrontend(argc, argv);
    if (spec.empty())
        return config;
    try {
        config = harness::withFrontend(std::move(config), spec);
        branch::validateFrontendConfig(config.frontend, config.btb);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "bad --frontend value '%s': %s\n",
                     spec.c_str(), e.what());
        std::exit(2);
    }
    return config;
}

/** Largest trace window scd_trace accepts (32-byte events: 512 MiB). */
constexpr size_t kMaxTraceEvents = size_t(1) << 24;

/**
 * Parse the value of scd_trace's --events=N: a whole positive decimal no
 * larger than kMaxTraceEvents, with no sign, space or trailing
 * characters ("64k"). Returns false otherwise.
 */
inline bool
parseTraceEvents(const char *text, size_t &events)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno != 0 || v == 0 || v > kMaxTraceEvents)
        return false;
    events = size_t(v);
    return true;
}

/**
 * The value of @p flag (e.g. "--vm=") in argv, or @p fallback when the
 * flag is absent or empty.
 */
inline std::string
flagValue(int argc, char **argv, const char *flag,
          const std::string &fallback)
{
    size_t len = std::strlen(flag);
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], flag, len) == 0 && argv[n][len])
            return argv[n] + len;
    }
    return fallback;
}

/** The one experiment point scd_trace runs. */
struct TracePoint
{
    harness::VmKind vm;
    const harness::Workload *workload;
    core::Scheme scheme;
};

/**
 * Parse scd_trace's --vm=rlua|sjs, --workload=NAME and --scheme=NAME
 * (defaults rlua, fibo and scd). An unknown value prints the reason and
 * exits 2 before anything runs.
 */
inline TracePoint
parseTracePoint(int argc, char **argv)
{
    TracePoint point{};
    std::string vm = flagValue(argc, argv, "--vm=", "rlua");
    if (vm == harness::vmName(harness::VmKind::Rlua)) {
        point.vm = harness::VmKind::Rlua;
    } else if (vm == harness::vmName(harness::VmKind::Sjs)) {
        point.vm = harness::VmKind::Sjs;
    } else {
        std::fprintf(stderr, "unknown --vm value '%s'\n", vm.c_str());
        std::exit(2);
    }
    std::string name = flagValue(argc, argv, "--workload=", "fibo");
    try {
        point.workload = &harness::workload(name);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "bad --workload value: %s\n", e.what());
        std::exit(2);
    }
    std::string scheme = flagValue(argc, argv, "--scheme=", "scd");
    for (core::Scheme s :
         {core::Scheme::Baseline, core::Scheme::JumpThreading,
          core::Scheme::Vbbi, core::Scheme::Scd}) {
        if (scheme == core::schemeName(s)) {
            point.scheme = s;
            return point;
        }
    }
    std::fprintf(stderr, "unknown --scheme value '%s'\n", scheme.c_str());
    std::exit(2);
}

/**
 * Parse --json=<path>: the machine-readable stats export every bench
 * binary supports (docs/SIMULATOR.md "Observability"). Returns an empty
 * string when absent — callers skip the export entirely then.
 */
inline std::string
parseJsonPath(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--json=", 7) == 0) {
            if (argv[n][7] != '\0')
                return argv[n] + 7;
            std::fprintf(stderr, "ignoring empty --json value\n");
        }
    }
    return "";
}

/**
 * Parse --no-replay: disable the execute-once, time-many plan executor
 * and run every experiment point directly (docs/SIMULATOR.md). The
 * cross-check escape hatch; results are bit-identical either way.
 */
inline bool
parseNoReplay(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strcmp(argv[n], "--no-replay") == 0)
            return true;
    }
    return false;
}

/**
 * Parse --point-timeout=SECONDS: the per-point wall-clock deadline
 * (RunOptions::pointTimeout, checked by harness::parsePointTimeout).
 * Returns 0 (unlimited) when absent; a bad value warns and is ignored.
 */
inline double
parsePointTimeout(int argc, char **argv)
{
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], "--point-timeout=", 16) == 0) {
            double seconds = 0.0;
            if (harness::parsePointTimeout(argv[n] + 16, seconds))
                return seconds;
            std::fprintf(stderr,
                         "ignoring bad --point-timeout value '%s'\n",
                         argv[n] + 16);
        }
    }
    return 0.0;
}

/**
 * Assemble the RunOptions every figure driver shares: --jobs,
 * --no-replay and --point-timeout.
 */
inline harness::RunOptions
parseRunOptions(int argc, char **argv)
{
    harness::RunOptions options;
    options.jobs = parseJobs(argc, argv);
    options.replay = !parseNoReplay(argc, argv);
    options.pointTimeout = parsePointTimeout(argc, argv);
    return options;
}

inline const char *
sizeName(harness::InputSize size)
{
    return harness::inputSizeName(size);
}

} // namespace scd::bench

#endif // SCD_BENCH_BENCH_UTIL_HH
