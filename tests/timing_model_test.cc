/**
 * @file
 * Equivalence tests for the FunctionalCore/TimingModel split: the timing
 * model must never change what the guest computes: all four dispatch
 * schemes agree on guest output.
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
runWith(VmKind vm, const Workload &w, core::Scheme scheme)
{
    return runWorkload(vm, w, InputSize::Test, scheme, minorConfig());
}

TEST(SchemeEquivalence, AllSchemesProduceIdenticalGuestOutput)
{
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (const Workload &w : workloads()) {
            ExperimentResult baseline =
                runWith(vm, w, core::Scheme::Baseline);
            ASSERT_FALSE(baseline.output.empty())
                << vmName(vm) << "/" << w.name;
            for (core::Scheme scheme :
                 {core::Scheme::JumpThreading, core::Scheme::Vbbi,
                  core::Scheme::Scd}) {
                ExperimentResult other =
                    runWith(vm, w, scheme);
                EXPECT_EQ(baseline.output, other.output)
                    << vmName(vm) << "/" << w.name << "/"
                    << core::schemeName(scheme);
            }
        }
    }
}

} // namespace
