/**
 * @file
 * Beyond-the-paper sweep: SCD speedup vs. frontend realism. The paper
 * evaluates SCD against an idealized single-level BTB; this driver
 * re-runs the minor-core grid across the pluggable frontend
 * organizations (branch/frontend.hh):
 *
 *   ideal       — the paper's single-level BTB (the reproduction's
 *                 default; reference column)
 *   mlbtb       — micro-BTB + banked partial-tag main BTB at the
 *                 machine's native 256-entry capacity (tag=10)
 *   mlbtb-alias — the same organization squeezed to a 64-entry main BTB
 *                 with 4-bit partial tags, where distinct opcodes land
 *                 in the same set behind the same folded tag and JTE
 *                 probes *falsely hit* — the failure mode the paper
 *                 never models
 *   mlbtb+fdip  — mlbtb with the decoupled fetch-target-queue
 *                 prefetcher layered on top
 *
 * Each step is an 11-workload x {Baseline, Scd} grid per VM; all steps
 * run as one combined plan so the execute-once, time-many engine shares
 * functional executions across the sweep (baseline retire streams are
 * frontend-independent, and SCD members perform their own frontend
 * probes against the recorded stream). Besides the speedup tables the
 * driver reports the JTE false-hit sensitivity: partial-tag false hits
 * and their resteers per SCD point.
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

/** The four frontend columns, applied to the minor core per VM. */
std::vector<bench::Fig11Step>
frontendSteps()
{
    struct Variant
    {
        const char *label;
        const char *spec;
        unsigned btbEntries; ///< 0 = keep the machine default
    };
    const Variant variants[] = {
        {"ideal", "ideal", 0},
        {"mlbtb", "mlbtb", 0},
        {"mlbtb-alias", "mlbtb+tag4", 64},
        {"mlbtb-fdip", "mlbtb+fdip", 0},
    };
    std::vector<bench::Fig11Step> steps;
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (const Variant &v : variants) {
            cpu::CoreConfig machine =
                withFrontend(minorConfig(), v.spec);
            if (v.btbEntries)
                machine.btb.entries = v.btbEntries;
            steps.push_back({std::string(vmName(vm)) + "/" + v.label, vm,
                             machine});
        }
    }
    return steps;
}

/** SCD speedup per workload, one column per frontend organization. */
void
speedupTable(VmKind vm, const Grid *grids)
{
    std::printf("SCD speedup vs frontend realism [%s]\n",
                vm == VmKind::Rlua ? "Lua-style VM" : "JS-style VM");
    std::printf("Does the JT-in-BTB overlay survive a realistic "
                "frontend?\n\n");
    TextTable t;
    t.header({"benchmark", "ideal", "mlbtb", "mlbtb-alias", "mlbtb+fdip"});
    auto names = workloadNames();
    names.push_back("GEOMEAN");
    for (const auto &name : names) {
        std::vector<std::string> row = {name};
        for (size_t c = 0; c < 4; ++c) {
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

/**
 * JTE partial-tag false hits per SCD point: how often a dispatch was
 * steered to another opcode's handler and had to resteer down the slow
 * path (zero everywhere means aliasing never bit that organization).
 */
void
falseHitTable(VmKind vm, const ExperimentSet *slices)
{
    std::printf("JTE partial-tag false hits (SCD points) [%s]\n",
                vm == VmKind::Rlua ? "Lua-style VM" : "JS-style VM");
    TextTable t;
    t.header({"benchmark", "mlbtb", "mlbtb-alias", "mlbtb+fdip"});
    // Column order in the slice array: ideal, mlbtb, mlbtb-alias, fdip;
    // ideal has no aliasing by construction and is omitted.
    const size_t columns[] = {1, 2, 3};
    auto names = workloadNames();
    for (const auto &name : names) {
        std::vector<std::string> row = {name};
        for (size_t c : columns) {
            const ExperimentSet &s = slices[c];
            bool found = false;
            for (size_t i = 0; i < s.points.size(); ++i) {
                if (s.points[i].scheme != core::Scheme::Scd ||
                    s.points[i].workload->name != name) {
                    continue;
                }
                found = s.runs[i].usable();
                if (found) {
                    row.push_back(std::to_string(
                        s.runs[i].result.stats.get(
                            "frontend.falseHits.jte")));
                }
                break;
            }
            if (!found)
                row.push_back(kFailedCell);
        }
        t.row(row);
    }
    std::printf("%s\n", t.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // The sweep picks its own frontends, so --frontend is not a flag here.
    bench::checkFlags(argc, argv,
                      {"--size=", "--jobs=", "--json=", "--point-timeout="});
    InputSize size = bench::parseSize(argc, argv, InputSize::Sim);
    RunOptions options = bench::parseRunOptions(argc, argv);
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    obs::StatsSink sink("frontend_sensitivity", bench::sizeName(size));

    std::vector<bench::Fig11Step> steps = frontendSteps();
    ExperimentPlan plan = bench::fig11Plan(steps, size);
    std::fprintf(stderr,
                 "frontend_sensitivity: %zu points (%zu distinct) across "
                 "%zu sweep steps...\n",
                 plan.size(), bench::distinctPoints(plan), steps.size());
    ExperimentSet all = runPlan(plan, options);

    const size_t perStep = all.points.size() / steps.size();
    std::vector<Grid> grids;
    std::vector<ExperimentSet> slices;
    grids.reserve(steps.size());
    slices.reserve(steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        slices.push_back(bench::sliceSet(all, i * perStep, perStep));
        grids.push_back(gridFromSet(slices.back()));
        exportSet(sink, steps[i].label, slices.back());
    }

    // Step layout (frontendSteps order): [0,4) rlua, [4,8) sjs.
    speedupTable(VmKind::Rlua, &grids[0]);
    speedupTable(VmKind::Sjs, &grids[4]);
    falseHitTable(VmKind::Rlua, &slices[0]);
    falseHitTable(VmKind::Sjs, &slices[4]);

    return finishRun(sink, jsonPath, {&all});
}
