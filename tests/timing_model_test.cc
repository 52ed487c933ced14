/**
 * @file
 * Tests of the FunctionalCore/TimingModel split: the timing model must
 * never change what the guest computes (all four dispatch schemes agree
 * on guest output), and InOrderTiming alone counts what the retired
 * stream implies.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/scheme.hh"
#include "cpu/config.hh"
#include "cpu/functional_core.hh"
#include "cpu/inorder_timing.hh"
#include "cpu/retire_info.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "isa/opcode.hh"

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

/** A retired @p op at @p pc with its cached opcode flags. */
cpu::RetireInfo
retired(isa::Opcode op, uint64_t pc, bool inDispatchRange = false)
{
    cpu::RetireInfo ri;
    ri.pc = pc;
    ri.nextPc = pc + 4;
    ri.op = uint8_t(op);
    ri.flags = isa::opcodeInfo(op).flags;
    if (inDispatchRange)
        ri.flags |= cpu::FunctionalCore::PcFlagInDispatchRange;
    return ri;
}

TEST(InOrderTimingCounts, RetiredStreamCountsComeFromTheTimingModel)
{
    using cpu::BranchClass;
    using cpu::CtrlKind;
    using isa::Opcode;
    const cpu::CoreConfig cfg =
        core::withScheme(minorConfig(), core::Scheme::Scd);
    cpu::InOrderTiming timing(cfg);
    const uint64_t kHandler = 0x2000;
    const uint64_t kOpcode = 5;

    std::vector<cpu::RetireInfo> stream;
    stream.push_back(retired(Opcode::ADD, 0x1000));
    stream.push_back(retired(Opcode::ADDI, 0x1004, true));
    stream.push_back(retired(Opcode::SLLI, 0x1008, true));

    cpu::RetireInfo br = retired(Opcode::BNE, 0x100c);
    br.ctrl = CtrlKind::Conditional;
    br.cls = BranchClass::Conditional;
    br.taken = true;
    br.nextPc = 0x1000;
    stream.push_back(br);

    cpu::RetireInfo hit = retired(Opcode::BOP, 0x1010, true);
    hit.ctrl = CtrlKind::Bop;
    hit.cls = BranchClass::Bop;
    hit.bopProbed = true;
    hit.bopHit = true;
    hit.nextPc = kHandler;
    stream.push_back(hit);

    cpu::RetireInfo miss = hit;
    miss.bopHit = false;
    miss.nextPc = miss.pc + 4;
    stream.push_back(miss);

    cpu::RetireInfo jru = retired(Opcode::JRU, 0x1014, true);
    jru.ctrl = CtrlKind::Jru;
    jru.cls = BranchClass::IndirectDispatch;
    jru.jteInsert = true;
    jru.jteOpcode = kOpcode;
    jru.nextPc = kHandler;
    stream.push_back(jru);

    for (const cpu::RetireInfo &ri : stream)
        timing.retire(ri);
    // The jru's insert targets its nextPc.
    EXPECT_EQ(timing.jteLookup(0, kOpcode), std::optional(kHandler));

    cpu::RetireInfo flush = retired(Opcode::JTE_FLUSH, kHandler);
    flush.ctrl = CtrlKind::JteFlush;
    timing.retire(flush);
    EXPECT_EQ(timing.jteLookup(0, kOpcode), std::nullopt);

    StatGroup g;
    timing.exportStats(g);
    EXPECT_EQ(g.get("instructions"), 8u);
    EXPECT_EQ(g.get("dispatchInstructions"), 5u);
    EXPECT_EQ(g.get("branch.conditional.count"), 1u);
    EXPECT_EQ(g.get("branch.directJump.count"), 0u);
    EXPECT_EQ(g.get("branch.return.count"), 0u);
    EXPECT_EQ(g.get("branch.indirectDispatch.count"), 1u);
    EXPECT_EQ(g.get("branch.indirectOther.count"), 0u);
    EXPECT_EQ(g.get("branch.bop.count"), 2u);
    EXPECT_EQ(g.get("branch.bop.mispredicted"), 0u);
    EXPECT_EQ(g.get("scd.bopFastHits"), 1u);
    EXPECT_EQ(g.get("scd.bopMisses"), 1u);
    EXPECT_EQ(g.get("scd.jteInserts"), 1u);
    // Zero counts are exported too: every document keeps its key set.
    EXPECT_EQ(g.snapshot().count("branch.return.count"), 1u);
}

} // namespace
