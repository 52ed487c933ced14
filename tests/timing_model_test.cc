/**
 * @file
 * Equivalence tests for the FunctionalCore/TimingModel split: the timing
 * model must never change what the guest computes. A width-1 wide
 * pipeline matches the in-order one cycle for cycle, and all four
 * dispatch schemes agree on guest output.
 */

#include <gtest/gtest.h>

#include "core/scheme.hh"
#include "cpu/config.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

ExperimentResult
runWith(VmKind vm, const Workload &w, core::Scheme scheme,
        cpu::TimingKind kind)
{
    cpu::CoreConfig config = minorConfig();
    config.timingKind = kind;
    return runWorkload(vm, w, InputSize::Test, scheme, config);
}

TEST(TimingModelEquivalence, WideWidthOneMatchesInOrder)
{
    const Workload &w = workloads().front();
    ExperimentResult inorder =
        runWith(VmKind::Rlua, w, core::Scheme::Scd,
                cpu::TimingKind::InOrder);
    ExperimentResult wide = runWith(VmKind::Rlua, w, core::Scheme::Scd,
                                    cpu::TimingKind::WideInOrder);
    EXPECT_EQ(inorder.run.cycles, wide.run.cycles);
    EXPECT_EQ(inorder.run.instructions, wide.run.instructions);
}

TEST(SchemeEquivalence, AllSchemesProduceIdenticalGuestOutput)
{
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (const Workload &w : workloads()) {
            ExperimentResult baseline =
                runWith(vm, w, core::Scheme::Baseline,
                        cpu::TimingKind::InOrder);
            ASSERT_FALSE(baseline.output.empty())
                << vmName(vm) << "/" << w.name;
            for (core::Scheme scheme :
                 {core::Scheme::JumpThreading, core::Scheme::Vbbi,
                  core::Scheme::Scd}) {
                ExperimentResult other =
                    runWith(vm, w, scheme, cpu::TimingKind::InOrder);
                EXPECT_EQ(baseline.output, other.output)
                    << vmName(vm) << "/" << w.name << "/"
                    << core::schemeName(scheme);
            }
        }
    }
}

} // namespace
