/**
 * @file
 * Shape tests for the paper's headline results, run on reduced inputs:
 * the orderings and directions the reproduction must preserve (DESIGN.md
 * Section 6) hold even at test scale.
 */

#include <gtest/gtest.h>

#include "core/hwcost.hh"
#include "harness/figures.hh"
#include "harness/machines.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

/** One shared grid for every shape assertion (computed once). */
const Grid &
testGrid()
{
    static const Grid grid =
        runGridSet(minorConfig(), InputSize::Test,
                   {VmKind::Rlua, VmKind::Sjs},
                   {core::Scheme::Baseline, core::Scheme::JumpThreading,
                    core::Scheme::Vbbi, core::Scheme::Scd},
                   RunOptions{})
            .grid;
    return grid;
}

TEST(FigureShapes, ScdIsTheFastestSchemeOnBothVms)
{
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        double scd =
            testGrid().geomeanSpeedup(vm, workloadNames(),
                                      core::Scheme::Scd);
        double vbbi =
            testGrid().geomeanSpeedup(vm, workloadNames(),
                                      core::Scheme::Vbbi);
        double jt = testGrid().geomeanSpeedup(
            vm, workloadNames(), core::Scheme::JumpThreading);
        EXPECT_GT(scd, 1.08) << vmName(vm);
        EXPECT_GT(scd, vbbi) << vmName(vm);
        EXPECT_GT(scd, jt) << vmName(vm);
        EXPECT_GT(vbbi, 1.0) << vmName(vm);
    }
}

TEST(FigureShapes, ScdCutsInstructionsVbbiDoesNot)
{
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (const auto &name : workloadNames()) {
            EXPECT_LT(testGrid().instRatio(vm, name, core::Scheme::Scd),
                      0.97)
                << vmName(vm) << "/" << name;
            EXPECT_DOUBLE_EQ(
                testGrid().instRatio(vm, name, core::Scheme::Vbbi), 1.0)
                << vmName(vm) << "/" << name;
        }
    }
}

TEST(FigureShapes, DispatchJumpDominatesBaselineMispredictions)
{
    // Figure 2's claim.
    for (const auto &name : workloadNames()) {
        const auto &r =
            testGrid().at(VmKind::Rlua, name, core::Scheme::Baseline);
        double dispatch = r.mpki("branch.indirectDispatch.mispredicted");
        EXPECT_GT(dispatch, 0.4 * r.branchMpki()) << name;
    }
}

TEST(FigureShapes, DispatchFractionAboveTwentyPercent)
{
    // Figure 3's claim (paper: > 25% on average for Lua).
    double sum = 0;
    for (const auto &name : workloadNames()) {
        sum += testGrid()
                   .at(VmKind::Rlua, name, core::Scheme::Baseline)
                   .dispatchFraction();
    }
    EXPECT_GT(sum / workloadNames().size(), 0.20);
}

TEST(FigureShapes, ScdSlashesBranchMpki)
{
    // Figure 9's claim: large MPKI reduction on the Lua-style VM.
    double base = 0, scd = 0;
    for (const auto &name : workloadNames()) {
        base += testGrid()
                    .at(VmKind::Rlua, name, core::Scheme::Baseline)
                    .branchMpki();
        scd += testGrid()
                   .at(VmKind::Rlua, name, core::Scheme::Scd)
                   .branchMpki();
    }
    EXPECT_LT(scd, 0.5 * base);
}

TEST(FigureShapes, RendersContainEveryWorkload)
{
    for (const std::string &text :
         {renderFig2(testGrid()), renderFig3(testGrid()),
          renderFig7(testGrid()), renderFig8(testGrid()),
          renderFig9(testGrid()), renderFig10(testGrid())}) {
        for (const auto &name : workloadNames())
            EXPECT_NE(text.find(name), std::string::npos);
    }
}

TEST(FigureShapes, SmallBtbStillProfitsFromScd)
{
    // Figure 11(a): positive geomean speedup even at 64 BTB entries.
    cpu::CoreConfig machine = minorConfig();
    machine.btb.entries = 64;
    Grid grid = runGridSet(machine, InputSize::Test, {VmKind::Rlua},
                           {core::Scheme::Baseline, core::Scheme::Scd},
                           RunOptions{})
                    .grid;
    EXPECT_GT(grid.geomeanSpeedup(VmKind::Rlua, workloadNames(),
                                  core::Scheme::Scd),
              1.0);
}

TEST(HwCost, DeltasMatchPaperMagnitudes)
{
    core::HwCostModel model;
    auto base = model.baseline();
    // Area delta well under 1%, power delta under 2%.
    EXPECT_LT(model.scdAreaDeltaMm2() / base.totalAreaMm2, 0.01);
    EXPECT_GT(model.scdAreaDeltaMm2(), 0.0);
    EXPECT_LT(model.scdPowerDeltaMw() / base.totalPowerMw, 0.02);
    // Baseline calibration reproduces Table V's totals.
    EXPECT_NEAR(base.totalAreaMm2, 0.690, 1e-9);
    EXPECT_NEAR(base.totalPowerMw, 18.46, 1e-9);
}

TEST(HwCost, EdpTracksSpeedup)
{
    core::HwCostModel model;
    // With the paper's 12% rocket speedup the EDP improves by ~20%.
    double edp = model.edpImprovement(1.12);
    EXPECT_GT(edp, 0.15);
    EXPECT_LT(edp, 0.30);
    // No speedup means the (tiny) extra power makes EDP slightly worse.
    EXPECT_LT(model.edpImprovement(1.0), 0.0);
}

TEST(HwCost, MultiBankScalesCost)
{
    core::ScdHardwareParams one;
    one.scdBanks = 1;
    core::ScdHardwareParams four;
    four.scdBanks = 4;
    EXPECT_GT(core::HwCostModel(four).scdAreaDeltaMm2(),
              core::HwCostModel(one).scdAreaDeltaMm2());
}

TEST(Machines, ConfigsMatchTableII)
{
    auto minor = minorConfig();
    EXPECT_EQ(minor.btb.entries, 256u);
    EXPECT_EQ(minor.btb.associativity, 2u);
    EXPECT_FALSE(minor.btb.lruReplacement); // round robin
    EXPECT_EQ(minor.icache.sizeBytes, 16u * 1024);
    EXPECT_EQ(minor.dcache.sizeBytes, 32u * 1024);
    EXPECT_EQ(minor.mispredictPenalty, 3u);
    EXPECT_EQ(minor.rasDepth, 8u);

    auto rocket = rocketConfig();
    EXPECT_EQ(rocket.btb.entries, 62u);
    EXPECT_EQ(rocket.btb.associativity, 62u); // fully associative
    EXPECT_TRUE(rocket.btb.lruReplacement);
    EXPECT_EQ(rocket.mispredictPenalty, 2u);
    EXPECT_EQ(rocket.rasDepth, 2u);
    EXPECT_EQ(rocket.predictor, cpu::PredictorKind::Gshare);

    auto a8 = cortexA8Config();
    EXPECT_EQ(a8.issueWidth, 2u);
    EXPECT_TRUE(a8.hasL2);
    EXPECT_EQ(a8.btb.entries, 512u);
}

} // namespace
