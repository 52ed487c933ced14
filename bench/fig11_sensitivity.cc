/**
 * @file
 * Regenerates Figure 11: SCD speedup sensitivity to (a,b) BTB capacity
 * {64,128,256,512} for both VMs, and (c,d) the maximum JTE cap {8,16,inf}
 * with the smallest (64-entry) BTB.
 *
 * All 16 sweep steps run as one combined plan (bench/fig11_plan.hh) so
 * the execute-once, time-many engine shares functional executions across
 * the whole figure; --no-replay runs every point directly instead. The
 * rendered tables and the --json export are bit-identical either way.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "fig11_plan.hh"
#include "harness/figures.hh"
#include "harness/json_export.hh"

using namespace scd;
using namespace scd::harness;

namespace
{

/** One speedup table: four sweep columns of @p grids for @p vm. */
void
sweepTable(VmKind vm, const std::vector<std::string> &columnTitles,
           const Grid *grids)
{
    TextTable t;
    std::vector<std::string> header = {"benchmark"};
    header.insert(header.end(), columnTitles.begin(), columnTitles.end());
    t.header(header);
    auto names = workloadNames();
    names.push_back("GEOMEAN");
    for (const auto &name : names) {
        std::vector<std::string> row = {name};
        for (size_t c = 0; c < columnTitles.size(); ++c) {
            if (name == "GEOMEAN") {
                row.push_back(TextTable::fixed(
                    grids[c].geomeanSpeedup(vm, workloadNames(),
                                            core::Scheme::Scd),
                    3));
            } else if (!grids[c].has(vm, name, core::Scheme::Baseline) ||
                       !grids[c].has(vm, name, core::Scheme::Scd)) {
                row.push_back(kFailedCell);
            } else {
                row.push_back(TextTable::fixed(
                    grids[c].speedup(vm, name, core::Scheme::Scd), 3));
            }
        }
        t.row(row);
    }
    std::printf("%s\n", t.render().c_str());
}

void
btbTables(VmKind vm, const Grid *grids)
{
    std::printf("Figure 11(%s): SCD speedup vs BTB size [%s]\n",
                vm == VmKind::Rlua ? "a" : "b",
                vm == VmKind::Rlua ? "Lua-style VM" : "JS-style VM");
    std::printf("Paper: benefits shrink with a small BTB but remain "
                "positive at 64 entries.\n\n");
    sweepTable(vm, {"btb=64", "btb=128", "btb=256", "btb=512"}, grids);
}

void
capTables(VmKind vm, const Grid *grids)
{
    std::printf("Figure 11(%s): SCD speedup vs JTE cap at a 64-entry BTB "
                "[%s]\n",
                vm == VmKind::Rlua ? "c" : "d",
                vm == VmKind::Rlua ? "Lua-style VM" : "JS-style VM");
    std::printf("Paper: capping helps some scripts (e.g. n-sieve) by "
                "protecting BTB entries of direct branches.\n\n");
    sweepTable(vm, {"cap=8", "cap=16", "cap=inf", "adaptive"}, grids);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::checkFigureFlags(argc, argv);
    InputSize size = bench::parseSize(argc, argv, InputSize::Sim);
    RunOptions options = bench::parseRunOptions(argc, argv);
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    obs::StatsSink sink("fig11_sensitivity", bench::sizeName(size));

    std::vector<bench::Fig11Step> steps = bench::fig11Steps();
    for (bench::Fig11Step &step : steps)
        step.machine =
            bench::applyFrontendFlag(argc, argv, std::move(step.machine));
    ExperimentPlan plan = bench::fig11Plan(steps, size);
    std::fprintf(stderr,
                 "fig11: %zu points (%zu distinct) across %zu sweep "
                 "steps%s...\n",
                 plan.size(), bench::distinctPoints(plan), steps.size(),
                 options.replay ? "" : " (direct)");

    ExperimentSet all = runPlan(plan, options);

    const size_t perStep = all.points.size() / steps.size();
    std::vector<Grid> grids;
    grids.reserve(steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        ExperimentSet slice = bench::sliceSet(all, i * perStep, perStep);
        grids.push_back(gridFromSet(slice));
        exportSet(sink, steps[i].label, slice);
    }

    // Step layout (fig11Steps order): [0,4) rlua BTB sweep, [4,8) sjs
    // BTB sweep, [8,12) rlua cap sweep, [12,16) sjs cap sweep.
    btbTables(VmKind::Rlua, &grids[0]);
    btbTables(VmKind::Sjs, &grids[4]);
    capTables(VmKind::Rlua, &grids[8]);
    capTables(VmKind::Sjs, &grids[12]);

    return finishRun(sink, jsonPath, {&all});
}
