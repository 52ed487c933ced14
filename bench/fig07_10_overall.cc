/**
 * @file
 * Regenerates Figures 7-10 from one (2 VMs x 11 scripts x 4 schemes)
 * simulation grid on the minor (Cortex-A5-like) configuration:
 *   Fig. 7  overall speedups          Fig. 8  normalized instruction count
 *   Fig. 9  branch misprediction MPKI Fig. 10 I-cache miss MPKI
 */

#include <cstdio>

#include "bench_util.hh"
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
    std::fprintf(stderr,
                 "fig07-10: running the 2x11x4 simulation grid (%s, %u "
                 "jobs)...\n",
                 bench::sizeName(size), resolveJobs(options.jobs));

    ExperimentPlan plan;
    plan.addGrid(bench::applyFrontendFlag(argc, argv, minorConfig()), size,
                 {VmKind::Rlua, VmKind::Sjs},
                 {core::Scheme::Baseline, core::Scheme::JumpThreading,
                  core::Scheme::Vbbi, core::Scheme::Scd});

    ExperimentSet set = runPlan(plan, options);
    Grid grid = gridFromSet(set);
    std::printf("%s\n", renderFig7(grid).c_str());
    std::printf("%s\n", renderFig8(grid).c_str());
    std::printf("%s\n", renderFig9(grid).c_str());
    std::printf("%s\n", renderFig10(grid).c_str());

    obs::StatsSink sink("fig07_10_overall", bench::sizeName(size));
    exportSet(sink, "overall", set);
    return finishRun(sink, jsonPath, {&set});
}
