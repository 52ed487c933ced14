/**
 * @file
 * Small shared helpers for the figure/table bench binaries: command-line
 * flag parsing. An argument a binary does not take ends it with exit
 * code 2 and the reason on stderr before any work starts (checkFlags),
 * and so does a flag value it cannot honour: a bad --size, --jobs or
 * --point-timeout, an empty --json or --frontend, a --frontend spec that
 * cannot be built (parseFlag, applyFrontendFlag), and scd_trace's
 * --events, --vm, --workload and --scheme. Only $SCD_JOBS, which comes
 * from the environment, warns and falls back (harness::resolveJobs).
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
#include <set>
#include <string>
#include <utility>

#include "branch/frontend.hh"
#include "common/logging.hh"
#include "harness/experiment.hh"
#include "harness/machines.hh"
#include "harness/replay.hh"
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
 * Parse every value of @p flag (e.g. "--size=") in argv with @p parse,
 * a bool(const char *, T &) that rejects a bad value, and return the
 * first one, or @p fallback when the flag is absent. A rejected value
 * prints the reason (@p want says what the flag takes) and exits 2
 * before any work starts.
 */
template <typename T, typename Parse>
T
parseFlag(int argc, char **argv, const char *flag, T fallback, Parse parse,
          const char *want)
{
    size_t len = std::strlen(flag);
    bool found = false;
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], flag, len) != 0)
            continue;
        const char *text = argv[n] + len;
        T value{};
        if (!parse(text, value)) {
            std::fprintf(stderr, "bad %.*s value '%s' (want %s)\n",
                         int(len - 1), flag, text, want);
            std::exit(2);
        }
        if (!found)
            fallback = value;
        found = true;
    }
    return fallback;
}

/** parseFlag's parse for a flag that takes any non-empty string. */
inline bool
parseNonEmpty(const char *text, std::string &value)
{
    value = text;
    return !value.empty();
}

/**
 * Parse --size=test|sim|fpga (default @p fallback). The quick "test"
 * size exists so `ctest`-adjacent smoke runs stay cheap.
 */
inline harness::InputSize
parseSize(int argc, char **argv, harness::InputSize fallback)
{
    return parseFlag(argc, argv, "--size=", fallback,
                     harness::parseInputSize, "test, sim or fpga");
}

/**
 * Parse --jobs=N. Returns 0 ("auto") when absent: runPlan() then honours
 * $SCD_JOBS and finally the hardware concurrency. --jobs=1 forces the
 * serial path.
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    return parseFlag(argc, argv, "--jobs=", 0u, harness::parseJobCount,
                     "a positive whole number of workers");
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
    return parseFlag(argc, argv, "--frontend=", std::string(),
                     parseNonEmpty, "a frontend spec");
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
    return parseFlag(argc, argv, "--json=", std::string(), parseNonEmpty,
                     "a file path");
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
 * Returns 0 (unlimited) when absent.
 */
inline double
parsePointTimeout(int argc, char **argv)
{
    return parseFlag(argc, argv, "--point-timeout=", 0.0,
                     harness::parsePointTimeout,
                     "a finite positive number of seconds");
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

/**
 * The number of points of @p plan that runPlan() runs: one per distinct
 * harness::pointKey, every other point copies its key's result.
 */
inline size_t
distinctPoints(const harness::ExperimentPlan &plan)
{
    std::set<std::string> keys;
    for (const harness::ExperimentPoint &p : plan.points())
        keys.insert(harness::pointKey(p));
    return keys.size();
}

inline const char *
sizeName(harness::InputSize size)
{
    return harness::inputSizeName(size);
}

} // namespace scd::bench

#endif // SCD_BENCH_BENCH_UTIL_HH
