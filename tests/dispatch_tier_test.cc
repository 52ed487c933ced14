/**
 * @file
 * Differential tests for the threaded-code dispatch tier
 * (src/cpu/threaded_tier.hh) against the reference switch interpreter.
 * The tier contract is bit-identical retirement: the same RetireInfo
 * stream entry by entry and field by field, the same architectural end
 * state, the same traps, and the same exported statistics — across both
 * guest VMs, all four dispatch schemes, every Table III workload, and
 * the fuzz-corpus seed scripts. Plus the tier-specific machinery:
 * recording caps that pause at arbitrary boundaries, guest text
 * self-modification (copy-on-write retranslation), the process-global
 * translation cache, and byte-identical exports when the replay
 * producer runs on the threaded tier. The timed path (Core::run, which
 * retires each slot straight into the core's InOrderTiming) is compared
 * on its results and counters, on machines whose JTE probes hit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/scheme.hh"
#include "cpu/core.hh"
#include "cpu/dispatch_tier.hh"
#include "cpu/functional_core.hh"
#include "cpu/retire_stream.hh"
#include "cpu/threaded_tier.hh"
#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "isa/assembler.hh"
#include "isa/instruction.hh"
#include "isa/text_assembler.hh"
#include "mem/memory.hh"
#include "obs/stats_sink.hh"

namespace
{

using namespace scd;
using namespace scd::harness;
using cpu::DispatchTier;

const std::vector<core::Scheme> kSchemes = {
    core::Scheme::Baseline, core::Scheme::JumpThreading,
    core::Scheme::Vbbi, core::Scheme::Scd};

/** One VM guest on one tier: a FunctionalCore with a recording port. */
struct TierRun
{
    cpu::CoreConfig cfg;
    mem::GuestMemory memory;
    cpu::RecorderTiming recorder;
    std::unique_ptr<cpu::FunctionalCore> core;

    TierRun(const guest::GuestProgram &program,
            const cpu::CoreConfig &machine, DispatchTier tier)
        : cfg(machine)
    {
        program.loadInto(memory);
        core = std::make_unique<cpu::FunctionalCore>(cfg, memory, recorder);
        core->loadProgram(program.text);
        core->setDispatchMeta(program.meta);
        core->setDispatchTier(tier);
    }

    /** A bare assembled program (no guest data image or metadata). */
    TierRun(const isa::Program &program, DispatchTier tier)
    {
        cfg.name = "test";
        core = std::make_unique<cpu::FunctionalCore>(cfg, memory, recorder);
        core->loadProgram(program);
        core->setDispatchTier(tier);
    }

    /** Record until exit or @p limit retires; returns the exit code. */
    int
    run(uint64_t limit)
    {
        std::vector<cpu::RetireInfo> chunk(cpu::RetireChunk::kCapacity);
        while (!core->exited() && core->retired() < limit) {
            size_t cap = std::min<uint64_t>(chunk.size(),
                                            limit - core->retired());
            core->runRecorded(chunk.data(), cap);
        }
        return core->exitCode();
    }
};

void
expectSameRetire(const cpu::RetireInfo &a, const cpu::RetireInfo &b)
{
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.nextPc, b.nextPc);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.rd, b.rd);
    EXPECT_EQ(a.rs1, b.rs1);
    EXPECT_EQ(a.rs2, b.rs2);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(int(a.ctrl), int(b.ctrl));
    EXPECT_EQ(int(a.lat), int(b.lat));
    EXPECT_EQ(int(a.cls), int(b.cls));
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.isReturn, b.isReturn);
    EXPECT_EQ(a.writesInt, b.writesInt);
    EXPECT_EQ(a.writesFp, b.writesFp);
    EXPECT_EQ(a.hasMem, b.hasMem);
    EXPECT_EQ(a.memIsStore, b.memIsStore);
    EXPECT_EQ(a.memAddr, b.memAddr);
    EXPECT_EQ(a.hintReg, b.hintReg);
    EXPECT_EQ(a.hintValue, b.hintValue);
    EXPECT_EQ(a.ropStall, b.ropStall);
    EXPECT_EQ(a.bopProbed, b.bopProbed);
    EXPECT_EQ(a.bopHit, b.bopHit);
    EXPECT_EQ(a.jteInsert, b.jteInsert);
    EXPECT_EQ(a.jteOpcode, b.jteOpcode);
}

/**
 * Run @p program on both tiers in recorded-chunk lockstep and compare
 * the streams entry by entry. The odd chunk size forces the threaded
 * tier to pause and resume at arbitrary instruction boundaries, not
 * just at its own burst-sized ones. Entries compare as whole records
 * (RetireInfo::operator==, so a field added later is compared too);
 * only the first mismatch pays for the per-field report.
 */
void
lockstepCompare(const guest::GuestProgram &program,
                const cpu::CoreConfig &machine)
{
    TierRun ref(program, machine, DispatchTier::Switch);
    TierRun fast(program, machine, DispatchTier::Threaded);

    constexpr size_t kCap = 509;
    std::vector<cpu::RetireInfo> a(kCap), b(kCap);
    for (;;) {
        size_t na = ref.core->runRecorded(a.data(), kCap);
        size_t nb = fast.core->runRecorded(b.data(), kCap);
        ASSERT_EQ(na, nb) << "tiers disagree on chunk length at retire "
                          << ref.core->retired();
        for (size_t i = 0; i < na; ++i) {
            if (a[i] == b[i]) [[likely]]
                continue;
            SCOPED_TRACE("entry " + std::to_string(i) + " of chunk at " +
                         std::to_string(ref.core->retired() - na));
            expectSameRetire(a[i], b[i]);
            // One divergence floods thousands; stop at the first.
            FAIL() << "retire streams diverge";
        }
        if (ref.core->exited() || na == 0)
            break;
    }

    EXPECT_EQ(fast.core->exited(), ref.core->exited());
    EXPECT_EQ(fast.core->exitCode(), ref.core->exitCode());
    EXPECT_EQ(fast.core->retired(), ref.core->retired());
    EXPECT_EQ(fast.core->output(), ref.core->output());
    for (unsigned r = 0; r < 32; ++r) {
        EXPECT_EQ(fast.core->readReg(r), ref.core->readReg(r)) << "x" << r;
        EXPECT_EQ(fast.core->readFreg(r), ref.core->readFreg(r))
            << "f" << r;
    }
    StatGroup refStats, fastStats;
    ref.core->exportStats(refStats);
    fast.core->exportStats(fastStats);
    EXPECT_EQ(refStats.all(), fastStats.all());
}

TEST(DispatchTier, RecordedRunsDefaultToTheThreadedTier)
{
    harness::RunOptions options;
    EXPECT_EQ(options.dispatchTier, DispatchTier::Threaded);
    cpu::CoreConfig cfg;
    mem::GuestMemory memory;
    cpu::RecorderTiming recorder;
    cpu::FunctionalCore core(cfg, memory, recorder);
    EXPECT_EQ(core.dispatchTier(), DispatchTier::Threaded);
}

TEST(DispatchTier, LockstepStreamsMatchAcrossVmsSchemesAndWorkloads)
{
    for (const Workload &w : workloads()) {
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (core::Scheme scheme : kSchemes) {
                SCOPED_TRACE(std::string(vmName(vm)) + "/" + w.name + "/" +
                             core::schemeName(scheme));
                auto program = compileGuest(vm, w.text(InputSize::Test),
                                            dispatchForScheme(scheme));
                lockstepCompare(*program,
                                core::withScheme(minorConfig(), scheme));
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

TEST(DispatchTier, CorpusScriptsMatchOnBothVms)
{
    std::filesystem::path dir(SCD_CORPUS_DIR);
    ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;

    size_t scripts = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream f(entry.path());
        ASSERT_TRUE(f.is_open()) << entry.path();
        std::ostringstream ss;
        ss << f.rdbuf();
        std::string source = ss.str();
        ++scripts;

        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (core::Scheme scheme :
                 {core::Scheme::Baseline, core::Scheme::Scd}) {
                SCOPED_TRACE(entry.path().filename().string() + " on " +
                             vmName(vm) + "/" + core::schemeName(scheme));
                auto program =
                    compileGuest(vm, source, dispatchForScheme(scheme));
                lockstepCompare(*program,
                                core::withScheme(minorConfig(), scheme));
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
    // The corpus going missing must fail loudly, not pass vacuously.
    EXPECT_GE(scripts, 5u);
}

TEST(DispatchTier, InstructionLimitPausesAtIdenticalBoundaries)
{
    // ~200 retires per outer iteration, unbounded: only the recording cap
    // stops it. Odd caps land mid-loop; the large one spans many
    // retranslation-free bursts of the threaded executor.
    const std::string text = R"(
        li s0, 0
    outer:
        li t0, 0
    inner:
        addi t0, t0, 1
        addi s0, s0, 3
        blt t0, t1, inner
        li t1, 97
        j outer
    )";
    isa::Program prog = isa::assembleText(text);
    for (size_t cap : {1ul, 2ul, 7ul, 101ul, 4099ul, 70001ul}) {
        SCOPED_TRACE("cap " + std::to_string(cap));
        TierRun ref(prog, DispatchTier::Switch);
        TierRun fast(prog, DispatchTier::Threaded);
        std::vector<cpu::RetireInfo> a(cap), b(cap);
        size_t na = ref.core->runRecorded(a.data(), cap);
        size_t nb = fast.core->runRecorded(b.data(), cap);
        EXPECT_EQ(na, cap);
        ASSERT_EQ(na, nb);
        EXPECT_EQ(ref.core->retired(), fast.core->retired());
        EXPECT_EQ(ref.core->exited(), fast.core->exited());
        for (unsigned reg = 0; reg < 32; ++reg)
            EXPECT_EQ(ref.core->readReg(reg), fast.core->readReg(reg));
        for (size_t i = 0; i < na && !::testing::Test::HasFailure(); ++i)
            expectSameRetire(a[i], b[i]);
    }
}

/**
 * A program that patches two of its own upcoming instructions, then
 * executes them: the first store forces the copy-on-write clone of the
 * shared translation, the second retranslates in place on the clone.
 * Unpatched it would exit 2; both tiers must see the patched code.
 */
isa::Program
selfModifyingProgram()
{
    using namespace isa;
    Assembler as;
    Label ta = as.newLabel("t_a");
    Label tb = as.newLabel("t_b");
    as.li(reg::t0, int64_t(encode({Opcode::ADDI, reg::a0, reg::zero, 0, 0,
                                   30})));
    as.la(reg::t1, ta);
    as.sw(reg::t0, 0, reg::t1);
    as.li(reg::t2, int64_t(encode({Opcode::ADDI, reg::a0, reg::a0, 0, 0,
                                   12})));
    as.la(reg::t3, tb);
    as.sw(reg::t2, 0, reg::t3);
    as.bind(ta);
    as.addi(reg::a0, reg::zero, 1);
    as.bind(tb);
    as.addi(reg::a0, reg::a0, 1);
    as.li(reg::a7, 0);
    as.ecall();
    return as.finish();
}

TEST(DispatchTier, SelfModifyingTextRetranslates)
{
    isa::Program prog = selfModifyingProgram();
    for (DispatchTier tier :
         {DispatchTier::Switch, DispatchTier::Threaded}) {
        SCOPED_TRACE(tier == DispatchTier::Switch ? "switch" : "threaded");
        TierRun run(prog, tier);
        EXPECT_EQ(run.run(10'000), 42);
        EXPECT_TRUE(run.core->exited());
    }
}

TEST(DispatchTier, TranslationCacheSharesPrograms)
{
    const std::string text = R"(
        li t0, 0
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        li a0, 7
        li a7, 0
        ecall
    )";
    isa::Program prog = isa::assembleText(text);
    cpu::resetThreadedCache();

    auto runOnce = [&prog]() {
        return TierRun(prog, DispatchTier::Threaded).run(10'000);
    };
    EXPECT_EQ(runOnce(), 7);
    cpu::ThreadedCacheStats first = cpu::threadedCacheStats();
    EXPECT_EQ(first.compiles, 1u);
    EXPECT_EQ(first.entries, 1u);

    EXPECT_EQ(runOnce(), 7);
    cpu::ThreadedCacheStats second = cpu::threadedCacheStats();
    EXPECT_EQ(second.compiles, 1u);
    EXPECT_EQ(second.hits, first.hits + 1);
    EXPECT_EQ(second.entries, 1u);
}

TEST(DispatchTier, SelfModificationDoesNotPoisonTheSharedCache)
{
    isa::Program prog = selfModifyingProgram();
    cpu::resetThreadedCache();
    auto runOnce = [&prog]() {
        return TierRun(prog, DispatchTier::Threaded).run(10'000);
    };
    // The first run COW-clones before patching; a second fresh core must
    // get the pristine shared translation back and see the same result.
    EXPECT_EQ(runOnce(), 42);
    EXPECT_EQ(runOnce(), 42);
    EXPECT_EQ(cpu::threadedCacheStats().compiles, 1u);
}

/** Both tiers must throw the same fatal for the same bad control flow. */
std::string
fatalMessageOf(const std::string &text, DispatchTier tier)
{
    TierRun run(isa::assembleText(text), tier);
    try {
        run.run(10'000);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "<no fatal>";
}

TEST(DispatchTier, FaultsMatchTheReferenceTier)
{
    // A computed jump out of text faults at the next fetch; a fall off
    // the end of text faults at text end; ebreak traps in place.
    const std::vector<std::string> programs = {
        "li t0, 0x999000\njr t0\n",
        "addi t0, t0, 1\naddi t0, t0, 2\n",
        "nop\nebreak\n",
    };
    for (const std::string &text : programs) {
        SCOPED_TRACE(text);
        std::string ref = fatalMessageOf(text, DispatchTier::Switch);
        std::string fast = fatalMessageOf(text, DispatchTier::Threaded);
        EXPECT_NE(ref, "<no fatal>");
        EXPECT_EQ(ref, fast);
    }
}

/** One Core::run on one tier: the fused timed path. */
struct TimedRun
{
    mem::GuestMemory memory;
    cpu::Core core;

    TimedRun(const guest::GuestProgram &program,
             const cpu::CoreConfig &machine, DispatchTier tier)
        : core(machine, memory)
    {
        program.loadInto(memory);
        core.loadProgram(program.text);
        core.setDispatchMeta(program.meta);
        core.setDispatchTier(tier);
    }

    /** A bare assembled program (no guest data image or metadata). */
    TimedRun(const isa::Program &program, const cpu::CoreConfig &machine,
             DispatchTier tier)
        : core(machine, memory)
    {
        core.loadProgram(program);
        core.setDispatchTier(tier);
    }
};

void
expectSameRun(const cpu::RunResult &a, const cpu::RunResult &b)
{
    EXPECT_EQ(a.exitCode, b.exitCode);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.exited, b.exited);
}

/**
 * Run @p ref (Switch) and @p fast (Threaded) to completion through
 * Core::run, first in slices whose limits land inside the 64 Ki-
 * instruction bursts and across a burst boundary, and compare every
 * RunResult and the full collectStats() export at each stop. Returns
 * the reference export.
 */
StatGroup
timedCompare(TimedRun &ref, TimedRun &fast)
{
    for (uint64_t limit : {1ul, 4095ul, 65537ul, 0ul}) {
        SCOPED_TRACE("run(" + std::to_string(limit) + ")");
        cpu::RunResult a = ref.core.run(limit);
        cpu::RunResult b = fast.core.run(limit);
        expectSameRun(a, b);
        EXPECT_EQ(ref.core.collectStats().all(),
                  fast.core.collectStats().all());
    }
    EXPECT_EQ(ref.core.output(), fast.core.output());
    for (unsigned r = 0; r < 32; ++r) {
        EXPECT_EQ(ref.core.readReg(r), fast.core.readReg(r)) << "x" << r;
        EXPECT_EQ(ref.core.readFreg(r), fast.core.readFreg(r)) << "f" << r;
    }
    return ref.core.collectStats();
}

/** The bare-program half of the timed comparison: text writes, faults. */
void
timedCompareBarePrograms()
{
    cpu::CoreConfig cfg;
    cfg.name = "test";
    {
        isa::Program prog = selfModifyingProgram();
        TimedRun ref(prog, cfg, DispatchTier::Switch);
        TimedRun fast(prog, cfg, DispatchTier::Threaded);
        timedCompare(ref, fast);
        EXPECT_EQ(fast.core.run().exitCode, 42);
    }

    // Faults throw the same error after retiring the same instructions
    // into the timing model.
    const std::vector<std::string> programs = {
        "li t0, 0x999000\njr t0\n",
        "addi t0, t0, 1\naddi t0, t0, 2\n",
        "nop\nebreak\n",
    };
    for (const std::string &text : programs) {
        SCOPED_TRACE(text);
        isa::Program prog = isa::assembleText(text);
        TimedRun ref(prog, cfg, DispatchTier::Switch);
        TimedRun fast(prog, cfg, DispatchTier::Threaded);
        auto fatalOf = [](cpu::Core &core) -> std::string {
            try {
                core.run(10'000);
            } catch (const FatalError &e) {
                return e.what();
            }
            return "<no fatal>";
        };
        std::string a = fatalOf(ref.core);
        EXPECT_NE(a, "<no fatal>");
        EXPECT_EQ(a, fatalOf(fast.core));
        EXPECT_EQ(ref.core.collectStats().all(),
                  fast.core.collectStats().all());
    }
}

TEST(DispatchTier, TimedRunsMatchTheReferenceTier)
{
    // Recorded runs bind RecorderTiming, whose JTE port never hits; only
    // here does the threaded bop take its short-circuit branch. The
    // machines cover the ideal overlay, partial-tag false hits, a fixed
    // JTE cap and the adaptive cap.
    cpu::CoreConfig capped = minorConfig();
    capped.btb.entries = 64;
    capped.btb.jteCap = 8;
    cpu::CoreConfig adaptive = minorConfig();
    adaptive.btb.entries = 64;
    adaptive.btb.adaptiveJteCap = true;
    cpu::CoreConfig aliased = withFrontend(minorConfig(), "mlbtb+tag4");
    aliased.btb.entries = 64; // frontend_sensitivity's mlbtb-alias column
    const std::vector<cpu::CoreConfig> machines = {minorConfig(), aliased,
                                                   capped, adaptive};

    timedCompareBarePrograms();
    if (::testing::Test::HasFailure())
        return;

    uint64_t bopHits = 0, falseResteers = 0;
    for (const char *name : {"fibo", "n-sieve", "binary-trees"}) {
        for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
            for (core::Scheme scheme : kSchemes) {
                auto program = compileGuest(
                    vm, workload(name).text(InputSize::Test),
                    dispatchForScheme(scheme));
                // The JTE-sensitive machines only matter where bop runs.
                size_t nMachines =
                    scheme == core::Scheme::Scd ? machines.size() : 1;
                for (size_t m = 0; m < nMachines; ++m) {
                    cpu::CoreConfig cfg =
                        core::withScheme(machines[m], scheme);
                    SCOPED_TRACE(std::string(vmName(vm)) + "/" + name +
                                 "/" + core::schemeName(scheme) + " on " +
                                 cfg.name);
                    TimedRun ref(*program, cfg, DispatchTier::Switch);
                    TimedRun fast(*program, cfg, DispatchTier::Threaded);
                    StatGroup stats = timedCompare(ref, fast);
                    bopHits += stats.get("scd.bopFastHits");
                    falseResteers += stats.get("frontend.jteFalseResteers");
                    if (::testing::Test::HasFailure())
                        return;
                }
            }
        }
    }
    // The comparison must have exercised what it exists for.
    EXPECT_GT(bopHits, 0u);
    EXPECT_GT(falseResteers, 0u);
}

TEST(DispatchTier, ReplayProducerOnThreadedTierIsByteIdentical)
{
    ExperimentPlan plan;
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (core::Scheme scheme : kSchemes) {
            ExperimentPoint p;
            p.vm = vm;
            p.workload = &workload("fibo");
            p.size = InputSize::Test;
            p.scheme = scheme;
            p.machine = minorConfig();
            plan.add(std::move(p));
        }
    }
    RunOptions ref;
    ref.jobs = 2;
    ref.dispatchTier = DispatchTier::Switch;
    RunOptions fast = ref;
    fast.dispatchTier = DispatchTier::Threaded;
    ExperimentSet a = runPlan(plan, ref);
    ExperimentSet b = runPlan(plan, fast);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (size_t i = 0; i < a.points.size(); ++i) {
        SCOPED_TRACE(a.points[i].label());
        EXPECT_EQ(a.at(i).run.cycles, b.at(i).run.cycles);
        EXPECT_EQ(a.at(i).run.instructions, b.at(i).run.instructions);
        EXPECT_EQ(a.at(i).output, b.at(i).output);
        EXPECT_EQ(a.at(i).stats.all(), b.at(i).stats.all());
    }
    obs::StatsSink refSink("dispatch_tier_test", "test");
    obs::StatsSink fastSink("dispatch_tier_test", "test");
    exportSet(refSink, "grid", a);
    exportSet(fastSink, "grid", b);
    EXPECT_EQ(refSink.render(), fastSink.render());
}

} // namespace
