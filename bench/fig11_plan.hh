/**
 * @file
 * The Figure 11 sweep as one combined experiment plan, rendered by
 * fig11_sensitivity; frontend_sensitivity and perfbench build their
 * plans with the same fig11Plan().
 *
 * The figure is 16 sweep steps — per VM, four BTB capacities and four
 * JTE-cap settings at the smallest BTB — each an 11-workload x
 * {Baseline, Scd} grid. Folding all of them into a single runPlan()
 * call lets the plan executor see the whole figure. A JTE cap is
 * unobservable without SCD, so every cap step's Baseline points equal
 * the btb=64 step's, and the unlimited cap's SCD points equal it too:
 * the 352 points hold 242 distinct pointKeys, and each runs once.
 */

#ifndef SCD_BENCH_FIG11_PLAN_HH
#define SCD_BENCH_FIG11_PLAN_HH

#include <climits>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/machines.hh"

namespace scd::bench
{

/** One sweep step: a machine configuration swept for one VM. */
struct Fig11Step
{
    std::string label; ///< exportSet label, e.g. "rlua/btb=64"
    harness::VmKind vm;
    cpu::CoreConfig machine;
};

/**
 * The 16 steps in render order: (a,b) BTB capacity {64,128,256,512} per
 * VM, then (c,d) JTE cap {8,16,inf,adaptive} at a 64-entry BTB per VM.
 */
inline std::vector<Fig11Step>
fig11Steps()
{
    std::vector<Fig11Step> steps;
    for (harness::VmKind vm :
         {harness::VmKind::Rlua, harness::VmKind::Sjs}) {
        for (unsigned entries : {64u, 128u, 256u, 512u}) {
            cpu::CoreConfig machine = harness::minorConfig();
            machine.btb.entries = entries;
            steps.push_back({std::string(harness::vmName(vm)) + "/btb=" +
                                 std::to_string(entries),
                             vm, machine});
        }
    }
    // 0 = unlimited; UINT_MAX selects the adaptive policy (the cap
    // selection the paper leaves to future work).
    for (harness::VmKind vm :
         {harness::VmKind::Rlua, harness::VmKind::Sjs}) {
        for (unsigned cap : {8u, 16u, 0u, UINT_MAX}) {
            std::string label =
                cap == UINT_MAX ? "adaptive" : std::to_string(cap);
            cpu::CoreConfig machine = harness::minorConfig();
            machine.btb.entries = 64;
            if (cap == UINT_MAX)
                machine.btb.adaptiveJteCap = true;
            else
                machine.btb.jteCap = cap;
            steps.push_back({std::string(harness::vmName(vm)) + "/cap=" +
                                 label,
                             vm, machine});
        }
    }
    return steps;
}

/**
 * The combined plan: each step contributes its full grid contiguously,
 * so the executed set slices back into per-step sets by fixed stride.
 */
inline harness::ExperimentPlan
fig11Plan(const std::vector<Fig11Step> &steps, harness::InputSize size)
{
    harness::ExperimentPlan plan;
    for (const Fig11Step &s : steps) {
        plan.addGrid(s.machine, size, {s.vm},
                     {core::Scheme::Baseline, core::Scheme::Scd});
    }
    return plan;
}

/** Copy out the contiguous [begin, begin + count) slice of a set. */
inline harness::ExperimentSet
sliceSet(const harness::ExperimentSet &set, size_t begin, size_t count)
{
    harness::ExperimentSet slice;
    slice.points.assign(set.points.begin() + begin,
                        set.points.begin() + begin + count);
    slice.runs.assign(set.runs.begin() + begin,
                      set.runs.begin() + begin + count);
    slice.jobs = set.jobs;
    for (const harness::ExperimentRun &run : slice.runs)
        slice.totalSeconds += run.seconds;
    return slice;
}

} // namespace scd::bench

#endif // SCD_BENCH_FIG11_PLAN_HH
