/**
 * @file
 * Regenerates Table V: the per-module area/power breakdown of the
 * Rocket-like core with and without SCD, from the analytical hardware-cost
 * model, plus the EDP improvement computed from a measured SCD speedup on
 * the rocket configuration (paper: +0.72% area, +1.09% power, 24.2% EDP).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/hwcost.hh"
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
    std::string jsonPath = bench::parseJsonPath(argc, argv);

    core::ScdHardwareParams params;
    params.btbEntries = 62; // rocket's fully-associative BTB
    core::HwCostModel model(params);

    auto base = model.baseline();
    auto scd = model.withScd();

    std::printf("Table V: Hardware overhead breakdown (40nm model)\n");
    std::printf("Paper: total area +0.72%%, total power +1.09%%.\n\n");
    TextTable t;
    t.header({"module", "base area mm2", "base mW", "scd area mm2",
              "scd mW"});
    for (size_t n = 0; n < base.modules.size(); ++n) {
        t.row({base.modules[n].name,
               TextTable::fixed(base.modules[n].areaMm2, 4),
               TextTable::fixed(base.modules[n].powerMw, 2),
               TextTable::fixed(scd.modules[n].areaMm2, 4),
               TextTable::fixed(scd.modules[n].powerMw, 2)});
    }
    t.row({"TOTAL", TextTable::fixed(base.totalAreaMm2, 3),
           TextTable::fixed(base.totalPowerMw, 2),
           TextTable::fixed(scd.totalAreaMm2, 3),
           TextTable::fixed(scd.totalPowerMw, 2)});
    std::printf("%s\n", t.render().c_str());
    std::printf("Area delta:  +%.2f%%\n",
                100.0 * model.scdAreaDeltaMm2() / base.totalAreaMm2);
    std::printf("Power delta: +%.2f%%\n",
                100.0 * model.scdPowerDeltaMw() / base.totalPowerMw);

    // Measure the rocket-config SCD speedup to derive the EDP number.
    std::fprintf(stderr,
                 "table5: measuring rocket SCD speedup (%s inputs)...\n",
                 bench::sizeName(size));
    GridRun run = runGridSet(bench::applyFrontendFlag(argc, argv,
                                                      rocketConfig()),
                             size, {VmKind::Rlua},
                             {core::Scheme::Baseline, core::Scheme::Scd},
                             options);
    double speedup =
        run.grid.geomeanSpeedup(VmKind::Rlua, workloadNames(),
                                core::Scheme::Scd);
    std::printf("\nMeasured rocket-config SCD geomean speedup: +%.1f%%\n",
                100.0 * (speedup - 1.0));
    std::printf("EDP improvement (P*T^2): %.1f%%  (paper: 24.2%%)\n",
                100.0 * model.edpImprovement(speedup));

    obs::StatsSink sink("table5_hwcost", bench::sizeName(size));
    exportSet(sink, "rocket-edp", run.set);
    sink.addMetric("hwcost.areaDeltaPct",
                   100.0 * model.scdAreaDeltaMm2() / base.totalAreaMm2);
    sink.addMetric("hwcost.powerDeltaPct",
                   100.0 * model.scdPowerDeltaMw() / base.totalPowerMw);
    sink.addMetric("hwcost.edpImprovementPct",
                   100.0 * model.edpImprovement(speedup));
    return finishRun(sink, jsonPath, {&run.set});
}
