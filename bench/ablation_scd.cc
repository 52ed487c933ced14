/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *   1. bop stall-vs-fallthrough policy when Rop is still in flight
 *      (paper Section III-B chooses stalling).
 *   2. Jump threading's I-cache bloat: the paper's 16KB I$ result plus a
 *      small-I$ run demonstrating the crossover mechanism behind
 *      Figure 10 (our interpreter is leaner than production Lua, so the
 *      bloat penalty appears at a smaller capacity).
 *   3. The rop-forwarding distance (how early the .op load must execute
 *      for a stall-free bop).
 *
 * All ablation steps run as one combined plan, so points with equal
 * pointKeys run once: every step whose machine differs only in SCD-side
 * knobs has the same baseline half, and predictor-scd, jte-overlay and
 * rop-distance-3 time one SCD machine (104 points, 52 distinct).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "fig11_plan.hh"
#include "harness/figures.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"

using namespace scd;
using namespace scd::harness;

namespace
{

const std::vector<std::string> kSubset = {"fibo", "n-sieve",
                                          "binary-trees", "fannkuch-redux"};

/**
 * One ablation step: @p scheme on @p machine, measured as the subset
 * geomean speedup over baseline on the same machine.
 */
struct AblationStep
{
    std::string label; ///< exportSet label and "ablation.<label>" metric
    cpu::CoreConfig machine;
    core::Scheme scheme;
};

/** Every step of the report, in export order. */
std::vector<AblationStep>
ablationSteps()
{
    std::vector<AblationStep> steps;

    // 1. bop policy: use a long forwarding distance so the Rop producer
    // is still in flight when bop reaches fetch and the two policies
    // diverge.
    cpu::CoreConfig stall = minorConfig();
    stall.bopPolicy = cpu::BopStallPolicy::Stall;
    stall.ropForwardDistance = 7;
    cpu::CoreConfig fall = stall;
    fall.bopPolicy = cpu::BopStallPolicy::FallThrough;
    steps.push_back({"bop-stall", stall, core::Scheme::Scd});
    steps.push_back({"bop-fallthrough", fall, core::Scheme::Scd});

    // 2. jump threading vs I-cache size.
    for (unsigned kb : {16u, 8u, 4u}) {
        cpu::CoreConfig machine = minorConfig();
        machine.icache.sizeBytes = kb * 1024;
        steps.push_back({"jt-icache-" + std::to_string(kb) + "kb", machine,
                         core::Scheme::JumpThreading});
    }

    // extra. indirect-predictor comparison.
    cpu::CoreConfig ittage = minorConfig();
    ittage.ittageEnabled = true;
    steps.push_back({"predictor-vbbi", minorConfig(), core::Scheme::Vbbi});
    steps.push_back({"predictor-ittage", ittage, core::Scheme::Baseline});
    steps.push_back({"predictor-scd", minorConfig(), core::Scheme::Scd});

    // extra. BTB overlay vs dedicated CBT-style table.
    cpu::CoreConfig dedicated = minorConfig();
    dedicated.scdDedicatedTable = true;
    dedicated.dedicatedJteEntries = 64;
    steps.push_back({"jte-overlay", minorConfig(), core::Scheme::Scd});
    steps.push_back({"jte-dedicated", dedicated, core::Scheme::Scd});

    // 3. rop forwarding distance.
    for (unsigned dist : {3u, 5u, 7u}) {
        cpu::CoreConfig machine = minorConfig();
        machine.ropForwardDistance = dist;
        steps.push_back({"rop-distance-" + std::to_string(dist), machine,
                         core::Scheme::Scd});
    }
    return steps;
}

/**
 * "%+5.1f%%" of a speedup as a percentage delta, or kFailedCell when
 * the step had no usable baseline/scheme pair to measure (speedup 0).
 */
std::string
pctOrFailed(double speedup)
{
    if (speedup <= 0.0)
        return kFailedCell;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+5.1f%%", 100.0 * (speedup - 1.0));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::checkFigureFlags(argc, argv);
    InputSize size = bench::parseSize(argc, argv, InputSize::Sim);
    RunOptions options = bench::parseRunOptions(argc, argv);
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    obs::StatsSink sink("ablation_scd", bench::sizeName(size));

    // Baseline/scheme pairs for the whole subset, all steps as one plan.
    std::vector<AblationStep> steps = ablationSteps();
    ExperimentPlan plan;
    for (const AblationStep &step : steps) {
        for (const auto &name : kSubset) {
            for (core::Scheme s : {core::Scheme::Baseline, step.scheme}) {
                ExperimentPoint p;
                p.vm = VmKind::Rlua;
                p.workload = &workload(name);
                p.size = size;
                p.scheme = s;
                p.machine =
                    bench::applyFrontendFlag(argc, argv, step.machine);
                plan.add(std::move(p));
            }
        }
    }
    std::fprintf(stderr,
                 "ablation: %zu points (%zu distinct) across %zu ablation "
                 "steps...\n",
                 plan.size(), bench::distinctPoints(plan), steps.size());
    ExperimentSet all = runPlan(plan, options);

    // Subset geomean speedup of each step's scheme over its baseline,
    // exported to the stats sink as one set per step with the geomean
    // recorded as the metric "ablation.<label>".
    const size_t perStep = all.points.size() / steps.size();
    std::vector<double> speedup;
    for (size_t i = 0; i < steps.size(); ++i) {
        ExperimentSet slice = bench::sliceSet(all, i * perStep, perStep);
        std::vector<double> speedups;
        for (size_t k = 0; k < slice.points.size(); k += 2) {
            // Skip pairs with a failed/timed-out half; a step with no
            // surviving pair renders as FAILED and exports no metric.
            if (!slice.runs[k].usable() || !slice.runs[k + 1].usable() ||
                slice.at(k + 1).run.cycles == 0) {
                continue;
            }
            speedups.push_back(double(slice.at(k).run.cycles) /
                               double(slice.at(k + 1).run.cycles));
        }
        speedup.push_back(speedups.empty() ? 0.0 : geomean(speedups));
        exportSet(sink, steps[i].label, slice);
        if (!speedups.empty())
            sink.addMetric("ablation." + steps[i].label, speedup.back());
    }

    // Step layout (ablationSteps order): 0-1 bop policy, 2-4 JT vs I$,
    // 5-7 predictors, 8-9 JTE storage, 10-12 rop distance.
    std::printf("Ablation 1: bop policy (RLua, subset geomean)\n");
    std::printf("  stall-on-Rop (paper default): %s\n",
                pctOrFailed(speedup[0]).c_str());
    std::printf("  fall-through:                 %s\n\n",
                pctOrFailed(speedup[1]).c_str());

    std::printf("Ablation 2: jump threading vs I-cache capacity "
                "(RLua, subset geomean)\n");
    {
        size_t i = 2;
        for (unsigned kb : {16u, 8u, 4u}) {
            std::printf("  %2u KB I$: JT speedup %s\n", kb,
                        pctOrFailed(speedup[i++]).c_str());
        }
    }
    std::printf("  (the paper's production-Lua interpreter is large "
                "enough to hit this at 16 KB)\n\n");

    std::printf("Ablation: prediction-only schemes vs SCD "
                "(RLua, subset geomean)\n");
    std::printf("  VBBI (HPCA'10):          %s\n",
                pctOrFailed(speedup[5]).c_str());
    std::printf("  ITTAGE-style (JILP'06):  %s\n",
                pctOrFailed(speedup[6]).c_str());
    std::printf("  SCD (this paper):        %s\n",
                pctOrFailed(speedup[7]).c_str());
    std::printf("  (predictors fix mispredictions only; SCD also "
                "removes the dispatch instructions)\n\n");

    std::printf("Ablation: JTE storage — BTB overlay (paper) vs "
                "dedicated table (Kaeli-Emma CBT style)\n");
    std::printf("  overlay on BTB:    %s (no extra table)\n",
                pctOrFailed(speedup[8]).c_str());
    std::printf("  dedicated 64-entry:%s (extra ~0.6KB "
                "storage)\n",
                pctOrFailed(speedup[9]).c_str());
    std::printf("  (performance parity justifies the paper's "
                "overlay, which is nearly free)\n\n");

    std::printf("Ablation 3: Rop forwarding distance (stall cycles "
                "when bop trails the .op load closely)\n");
    {
        size_t i = 10;
        for (unsigned dist : {3u, 5u, 7u}) {
            std::printf("  distance %u: SCD speedup %s\n", dist,
                        pctOrFailed(speedup[i++]).c_str());
        }
    }
    return finishRun(sink, jsonPath, {&all});
}
