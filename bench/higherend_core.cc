/**
 * @file
 * Regenerates the Section VI-C2 experiment: SCD on a higher-end dual-issue
 * in-order core (Cortex-A8-like, 32KB I$, 256KB L2, 512-entry BTB).
 * Paper: SCD still achieves +17.6% (Lua) and +15.2% (JS) geomean with
 * ~10% instruction reductions.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "harness/figures.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"

int
main(int argc, char **argv)
{
    using namespace scd;
    using namespace scd::harness;

    bench::checkFigureFlags(argc, argv);

    InputSize size = bench::parseSize(argc, argv, InputSize::Sim);
    RunOptions options = bench::parseRunOptions(argc, argv);
    options.verbose = true;
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    cpu::CoreConfig config =
        bench::applyFrontendFlag(argc, argv, cortexA8Config());
    std::fprintf(stderr,
                 "higherend: running 2x11x2 on the %u-wide core...\n",
                 config.issueWidth);
    GridRun run = runGridSet(config, size,
                             {VmKind::Rlua, VmKind::Sjs},
                             {core::Scheme::Baseline, core::Scheme::Scd},
                             options);
    const Grid &grid = run.grid;

    std::printf("Higher-end dual-issue core (Section VI-C2)\n");
    std::printf("Paper: SCD +17.6%% (Lua) / +15.2%% (JS) geomean; "
                "instructions cut 10.2%% / 9.2%%.\n\n");
    TextTable t;
    t.header({"benchmark", "rlua speedup", "rlua inst ratio",
              "sjs speedup", "sjs inst ratio"});
    for (const auto &name : workloadNames()) {
        std::vector<std::string> row = {name};
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            if (!grid.has(vm, name, core::Scheme::Baseline) ||
                !grid.has(vm, name, core::Scheme::Scd)) {
                row.push_back(kFailedCell);
                row.push_back(kFailedCell);
                continue;
            }
            row.push_back(TextTable::percent(
                grid.speedup(vm, name, core::Scheme::Scd) - 1.0, 1));
            row.push_back(TextTable::fixed(
                grid.instRatio(vm, name, core::Scheme::Scd), 3));
        }
        t.row(row);
    }
    t.row({"GEOMEAN",
           TextTable::percent(grid.geomeanSpeedup(VmKind::Rlua,
                                                  workloadNames(),
                                                  core::Scheme::Scd) -
                                  1.0, 1),
           "",
           TextTable::percent(grid.geomeanSpeedup(VmKind::Sjs,
                                                  workloadNames(),
                                                  core::Scheme::Scd) -
                                  1.0, 1),
           ""});
    std::printf("%s\n", t.render().c_str());

    obs::StatsSink sink("higherend_core", bench::sizeName(size));
    sink.setMeta("issueWidth", std::to_string(config.issueWidth));
    exportSet(sink, "higherend", run.set);
    return finishRun(sink, jsonPath, {&run.set});
}
