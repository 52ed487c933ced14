/**
 * @file
 * Run a script (one of the built-in Table III workloads, or a file) on a
 * chosen VM / dispatch scheme / machine configuration, and report both the
 * program output and the microarchitectural statistics.
 *
 * Usage:
 *   run_script [--vm=rlua|sjs] [--scheme=baseline|jump-threading|vbbi|scd]
 *              [--machine=minor|rocket|a8] [--size=test|sim|fpga]
 *              [--host] [--stats-full] <workload-name | script-file>
 *
 * Examples:
 *   run_script fibo
 *   run_script --vm=sjs --scheme=scd mandelbrot
 *   run_script --host my_script.lua
 *
 * An unknown --vm, --scheme, --machine or --size value exits 2; a
 * script error (syntax, or a runtime error on either path) prints its
 * message and exits 1.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "harness/figures.hh"
#include "harness/machines.hh"
#include "vm/rlua_compiler.hh"
#include "vm/rlua_interp.hh"
#include "vm/sjs_compiler.hh"
#include "vm/sjs_interp.hh"

using namespace scd;
using namespace scd::harness;

namespace
{

bool
flagValue(int argc, char **argv, const char *name, std::string &out)
{
    std::string prefix = std::string("--") + name + "=";
    for (int n = 1; n < argc; ++n) {
        if (std::strncmp(argv[n], prefix.c_str(), prefix.size()) == 0) {
            out = argv[n] + prefix.size();
            return true;
        }
    }
    return false;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    std::string full = std::string("--") + name;
    for (int n = 1; n < argc; ++n)
        if (full == argv[n])
            return true;
    return false;
}

/**
 * The value of --@p name mapped through @p choices (@p fallback when
 * the flag is absent); an unknown value exits 2 with the reason.
 */
template <typename T>
T
choice(int argc, char **argv, const char *name, T fallback,
       const std::vector<std::pair<const char *, T>> &choices)
{
    std::string value;
    if (!flagValue(argc, argv, name, value))
        return fallback;
    for (const auto &c : choices)
        if (value == c.first)
            return c.second;
    std::fprintf(stderr, "unknown --%s value '%s'\n", name, value.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    VmKind vm = choice(argc, argv, "vm", VmKind::Rlua,
                       {{"rlua", VmKind::Rlua}, {"sjs", VmKind::Sjs}});
    core::Scheme scheme =
        choice(argc, argv, "scheme", core::Scheme::Scd,
               {{"baseline", core::Scheme::Baseline},
                {"jump-threading", core::Scheme::JumpThreading},
                {"vbbi", core::Scheme::Vbbi},
                {"scd", core::Scheme::Scd}});
    cpu::CoreConfig machine =
        choice(argc, argv, "machine", minorConfig(),
               {{"minor", minorConfig()},
                {"rocket", rocketConfig()},
                {"a8", cortexA8Config()}});
    InputSize size = choice(argc, argv, "size", InputSize::Sim,
                            {{"test", InputSize::Test},
                             {"sim", InputSize::Sim},
                             {"fpga", InputSize::Fpga}});
    bool hostOnly = hasFlag(argc, argv, "host");

    std::string target;
    for (int n = 1; n < argc; ++n)
        if (argv[n][0] != '-')
            target = argv[n];
    if (target.empty()) {
        std::fprintf(stderr, "usage: run_script [options] <workload|file>\n"
                             "workloads:");
        for (const auto &w : workloads())
            std::fprintf(stderr, " %s", w.name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }

    // Resolve the script source.
    std::string source;
    bool isWorkload = false;
    for (const auto &w : workloads())
        isWorkload = isWorkload || w.name == target;
    if (isWorkload) {
        source = workload(target).text(size);
    } else {
        std::ifstream in(target);
        if (!in) {
            std::fprintf(stderr, "cannot open '%s'\n", target.c_str());
            return 1;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        source = ss.str();
    }

    if (hostOnly) {
        try {
            std::string out =
                vm == VmKind::Rlua
                    ? vm::rlua::run(vm::rlua::compileSource(source))
                    : vm::sjs::run(vm::sjs::compileSource(source));
            std::printf("%s", out.c_str());
            return 0;
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s: %s\n", target.c_str(), e.what());
            return 1;
        }
    }

    std::fprintf(stderr, "simulating %s on %s/%s (%s)...\n", target.c_str(),
                 vmName(vm), core::schemeName(scheme),
                 machine.name.c_str());
    ExperimentResult r;
    try {
        r = runExperiment(vm, source, scheme, machine);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", target.c_str(), e.what());
        return 1;
    }

    std::printf("---- guest output "
                "------------------------------------------\n");
    std::printf("%s", r.output.c_str());
    std::printf("---- statistics "
                "--------------------------------------------\n");
    std::printf("instructions        : %llu\n",
                (unsigned long long)r.run.instructions);
    std::printf("cycles              : %llu (CPI %.2f)\n",
                (unsigned long long)r.run.cycles,
                double(r.run.cycles) / double(r.run.instructions));
    std::printf("dispatch fraction   : %.1f%%\n",
                100.0 * r.dispatchFraction());
    std::printf("branch MPKI         : %.2f\n", r.branchMpki());
    std::printf("I-cache MPKI        : %.2f\n", r.icacheMpki());
    std::printf("interpreter text    : %llu bytes\n",
                (unsigned long long)r.interpreterTextBytes);
    if (hasFlag(argc, argv, "stats-full")) {
        std::printf("---- all counters "
                    "-----------------------------------------\n");
        for (const auto &kv : r.stats.all()) {
            std::printf("%-40s %llu\n", kv.first.c_str(),
                        (unsigned long long)kv.second);
        }
    }
    if (scheme == core::Scheme::Scd) {
        std::printf("bop fast-path hits  : %llu\n",
                    (unsigned long long)r.stats.get("scd.bopFastHits"));
        std::printf("bop misses          : %llu\n",
                    (unsigned long long)r.stats.get("scd.bopMisses"));
        std::printf("JTE inserts         : %llu\n",
                    (unsigned long long)r.stats.get("scd.jteInserts"));
        std::printf("JTE high-water      : %llu\n",
                    (unsigned long long)r.stats.get("btb.jteHighWater"));
        std::printf("Rop stall cycles    : %llu\n",
                    (unsigned long long)r.stats.get("scd.ropStallCycles"));
    }
    return 0;
}
