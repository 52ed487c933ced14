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
 * self-modification (a store re-lowers the core's one slot array in
 * place, and both tiers run the new code from the next fetch on), and
 * byte-identical exports when a plan runs on the threaded tier. The
 * timed path (Core::run, which retires each slot straight into
 * the core's InOrderTiming) is compared on its results and counters, on
 * machines whose JTE probes hit.
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
 * Run @p ref (Switch) and @p fast (Threaded) in recorded-chunk lockstep
 * and compare the streams entry by entry. The odd chunk size forces the
 * threaded tier to pause and resume at arbitrary instruction boundaries.
 * Entries compare as whole records (RetireInfo::operator==, so a field
 * added later is compared too); only the first mismatch pays for the
 * per-field report.
 */
void
lockstepCompare(TierRun &ref, TierRun &fast)
{
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

void
lockstepCompare(const guest::GuestProgram &program,
                const cpu::CoreConfig &machine)
{
    TierRun ref(program, machine, DispatchTier::Switch);
    TierRun fast(program, machine, DispatchTier::Threaded);
    lockstepCompare(ref, fast);
}

/** A bare assembled program in recorded lockstep. */
void
lockstepCompare(const isa::Program &program)
{
    TierRun ref(program, DispatchTier::Switch);
    TierRun fast(program, DispatchTier::Threaded);
    lockstepCompare(ref, fast);
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

/** A guest program that stores into its own text. */
struct SelfModifyingCase
{
    std::string name;
    isa::Program program;
    int exitCode; ///< the exit code of the patched run
};

/** The word of `addi rd, rs1, imm`. */
int64_t
addiWord(uint8_t rd, uint8_t rs1, int32_t imm)
{
    return int64_t(isa::encode({isa::Opcode::ADDI, rd, rs1, 0, 0, imm}));
}

/**
 * Guest programs that patch their own text, each exiting 42 only when
 * both tiers run the patched code from the fetch after the patching
 * store on:
 *  - patch two upcoming instructions, one store after another;
 *  - patch the slot right after the store, so the very next dispatch
 *    must see it;
 *  - patch a branch that was already taken once, so its second run
 *    takes the new offset (the target is not remembered from the
 *    first);
 *  - patch an instruction in a loop body that already ran, so the later
 *    iterations run the new code;
 *  - a sw, and an fsd, that overwrite their own word, looping back to
 *    run the new instruction; the store itself retires as the store it
 *    was when fetched.
 */
std::vector<SelfModifyingCase>
selfModifyingPrograms()
{
    using namespace isa;
    std::vector<SelfModifyingCase> cases;
    {
        Assembler as;
        Label ta = as.newLabel("t_a");
        Label tb = as.newLabel("t_b");
        as.li(reg::t0, addiWord(reg::a0, reg::zero, 30));
        as.la(reg::t1, ta);
        as.sw(reg::t0, 0, reg::t1);
        as.li(reg::t2, addiWord(reg::a0, reg::a0, 12));
        as.la(reg::t3, tb);
        as.sw(reg::t2, 0, reg::t3);
        as.bind(ta);
        as.addi(reg::a0, reg::zero, 1);
        as.bind(tb);
        as.addi(reg::a0, reg::a0, 1);
        as.li(reg::a7, 0);
        as.ecall();
        cases.push_back({"patch-ahead", as.finish(), 42});
    }
    {
        Assembler as;
        Label next = as.newLabel("next");
        as.li(reg::t0, addiWord(reg::a0, reg::zero, 42));
        as.la(reg::t1, next);
        as.sw(reg::t0, 0, reg::t1);
        as.bind(next);
        as.addi(reg::a0, reg::zero, 1);
        as.li(reg::a7, 0);
        as.ecall();
        cases.push_back({"patch-next-slot", as.finish(), 42});
    }
    {
        // br is taken to `bad` (+16), which patches it to +8 (`good`)
        // and jumps back to it.
        Assembler as;
        Label br = as.newLabel("br");
        Label bad = as.newLabel("bad");
        Label done = as.newLabel("done");
        as.li(reg::t0, int64_t(encode({Opcode::BEQ, 0, reg::zero,
                                       reg::zero, 0, 8})));
        as.la(reg::t1, br);
        as.bind(br);
        as.beq(reg::zero, reg::zero, bad);
        as.ebreak();
        as.addi(reg::a0, reg::zero, 42); // good: br + 8
        as.j(done);
        as.bind(bad); // br + 16
        as.sw(reg::t0, 0, reg::t1);
        as.j(br);
        as.bind(done);
        as.li(reg::a7, 0);
        as.ecall();
        cases.push_back({"patch-taken-branch", as.finish(), 42});
    }
    {
        // Six passes; after the second, the body adds 10 instead of 1:
        // 1 + 1 + 4 * 10. Unpatched it exits 6, patched from the start 60.
        Assembler as;
        Label body = as.newLabel("body");
        Label skip = as.newLabel("skip");
        as.li(reg::s1, 0);
        as.li(reg::a0, 0);
        as.li(reg::t0, addiWord(reg::a0, reg::a0, 10));
        as.la(reg::t1, body);
        as.bind(body);
        as.addi(reg::a0, reg::a0, 1);
        as.addi(reg::s1, reg::s1, 1);
        as.li(reg::t2, 2);
        as.bne(reg::s1, reg::t2, skip);
        as.sw(reg::t0, 0, reg::t1);
        as.bind(skip);
        as.li(reg::t2, 6);
        as.blt(reg::s1, reg::t2, body);
        as.li(reg::a7, 0);
        as.ecall();
        cases.push_back({"patch-loop-body", as.finish(), 42});
    }
    // The first pass through `self` stores over it, the second runs the
    // stored `addi a0, a2, 7`. The fsd writes the word after it too, with
    // the word that is already there. The store's base register comes
    // from the load just before it, so a record that names the new
    // word's registers also retires with a different load-use stall.
    for (bool fp : {false, true}) {
        Assembler as;
        Label loop = as.newLabel("loop");
        Label self = as.newLabel("self");
        as.li(reg::a2, 35);
        as.li(reg::s1, 0);
        as.li(reg::t0, addiWord(reg::a0, reg::a2, 7) |
                           addiWord(reg::s1, reg::s1, 1) << 32);
        as.fmvDX(1, reg::t0);
        as.li(reg::s0, 0x100000);
        as.la(reg::t1, self);
        as.sd(reg::t1, 0, reg::s0);
        as.bind(loop);
        as.ld(reg::t1, 0, reg::s0);
        as.bind(self);
        if (fp)
            as.fsd(1, 0, reg::t1);
        else
            as.sw(reg::t0, 0, reg::t1);
        as.addi(reg::s1, reg::s1, 1);
        as.li(reg::t2, 2);
        as.blt(reg::s1, reg::t2, loop);
        as.li(reg::a7, 0);
        as.ecall();
        cases.push_back({fp ? "fsd-over-itself" : "sw-over-itself",
                         as.finish(), 42});
    }
    return cases;
}

TEST(DispatchTier, SelfModifyingTextRelowersInPlace)
{
    for (const SelfModifyingCase &c : selfModifyingPrograms()) {
        SCOPED_TRACE(c.name);
        for (DispatchTier tier :
             {DispatchTier::Switch, DispatchTier::Threaded}) {
            SCOPED_TRACE(tier == DispatchTier::Switch ? "switch" : "threaded");
            TierRun run(c.program, tier);
            EXPECT_EQ(run.run(10'000), c.exitCode);
            EXPECT_TRUE(run.core->exited());
        }
        lockstepCompare(c.program);
    }
}

/** A store that overwrites its own word retires as the store it was
 *  when fetched, on both tiers, and the next pass runs the new word. */
TEST(DispatchTier, StoreOverwritingItselfRetiresAsFetched)
{
    for (const SelfModifyingCase &c : selfModifyingPrograms()) {
        if (c.name.find("over-itself") == std::string::npos)
            continue;
        SCOPED_TRACE(c.name);
        lockstepCompare(c.program);
        for (DispatchTier tier :
             {DispatchTier::Switch, DispatchTier::Threaded}) {
            SCOPED_TRACE(tier == DispatchTier::Switch ? "switch" : "threaded");
            TierRun run(c.program, tier);
            std::vector<cpu::RetireInfo> trace(64);
            size_t n = run.core->runRecorded(trace.data(), trace.size());
            ASSERT_TRUE(run.core->exited());
            EXPECT_EQ(run.core->exitCode(), c.exitCode);
            // The first retire at `self` is the store, the second the addi.
            uint64_t selfPc = 0;
            for (size_t i = 0; i < n; ++i) {
                if (trace[i].memIsStore && trace[i].memAddr == trace[i].pc) {
                    selfPc = trace[i].pc;
                    break;
                }
            }
            ASSERT_NE(selfPc, 0u);
            std::vector<const cpu::RetireInfo *> atSelf;
            for (size_t i = 0; i < n; ++i) {
                if (trace[i].pc == selfPc)
                    atSelf.push_back(&trace[i]);
            }
            ASSERT_EQ(atSelf.size(), 2u);
            auto store = c.name == "sw-over-itself" ? isa::Opcode::SW
                                                    : isa::Opcode::FSD;
            EXPECT_EQ(atSelf[0]->op, uint8_t(store));
            EXPECT_EQ(atSelf[0]->rs1, isa::reg::t1);
            EXPECT_TRUE(atSelf[0]->hasMem);
            EXPECT_FALSE(atSelf[0]->writesInt);
            EXPECT_EQ(atSelf[1]->op, uint8_t(isa::Opcode::ADDI));
            EXPECT_EQ(atSelf[1]->rd, isa::reg::a0);
            EXPECT_TRUE(atSelf[1]->writesInt);
            EXPECT_FALSE(atSelf[1]->hasMem);
        }
    }
}

TEST(DispatchTier, SelfModificationDoesNotPoisonTheSharedCache)
{
    // Each core lowers its own copy of the text. The loop-body case runs
    // its unpatched body twice before the patch; a second core on the
    // same program must run the pristine text again (exiting 60 instead
    // would mean it started from the first core's patched slots).
    for (const SelfModifyingCase &c : selfModifyingPrograms()) {
        SCOPED_TRACE(c.name);
        for (DispatchTier tier :
             {DispatchTier::Switch, DispatchTier::Threaded}) {
            SCOPED_TRACE(tier == DispatchTier::Switch ? "switch" : "threaded");
            EXPECT_EQ(TierRun(c.program, tier).run(10'000), c.exitCode);
            EXPECT_EQ(TierRun(c.program, tier).run(10'000), c.exitCode);
        }
    }
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

/**
 * A loop through every handler family of the fused timed path, operands
 * varying per iteration: the integer unit's latency classes (divide by
 * zero every fourth pass), every load and store width over a 32 KiB
 * stride that misses the L1 D$, the FP pipe with fdiv/fsqrt results used
 * at once, FP compares, moves and conversions, all six branches both
 * taken and not taken, jal/jalr/ret, jte.flush, and a printing ecall.
 * Each threaded handler inlines its own specialization of the retire
 * body, so each family has to be driven to be checked.
 */
const char *const kHandlerFamilyProgram = R"(
        li s0, 0x100000
        li s1, 0
        li s2, 800
        li s3, 0
        li s4, 0
    loop:
        mul t0, s1, s1
        addi t1, s1, -400
        andi t2, s1, 3
        mulh t3, t0, t1
        div t4, t1, t2
        divu t5, t0, t2
        rem t6, t1, t2
        remu a1, t0, t2
        xor s3, s3, t3
        add s3, s3, t4
        xor s3, s3, t5
        add s3, s3, t6
        xor s3, s3, a1
        li a2, 328
        mul a2, s1, a2
        li a3, 0x7ff8
        and a2, a2, a3
        add a2, a2, s0
        sb t1, 0(a2)
        sh t4, 2(a2)
        sw t0, 4(a2)
        sd t3, 8(a2)
        lb a4, 0(a2)
        lbu a5, 0(a2)
        lh a6, 2(a2)
        lhu t5, 2(a2)
        lw t6, 4(a2)
        lwu a3, 4(a2)
        ld a1, 8(a2)
        add s3, s3, a4
        xor s3, s3, a5
        add s3, s3, a6
        xor s3, s3, t5
        add s3, s3, t6
        xor s3, s3, a3
        add s3, s3, a1
        fcvt.d.l f0, t1
        fcvt.d.l f1, t2
        fadd.d f2, f0, f1
        fsub.d f3, f0, f1
        fmul.d f4, f2, f3
        fdiv.d f5, f0, f1
        fadd.d f5, f5, f2
        fabs.d f6, f0
        fsqrt.d f7, f6
        fmul.d f7, f7, f7
        fmin.d f8, f0, f1
        fmax.d f9, f0, f1
        fneg.d f10, f8
        fsd f4, 16(a2)
        fld f11, 16(a2)
        feq.d t0, f11, f4
        flt.d t3, f8, f9
        fle.d t4, f9, f10
        fcvt.l.d t5, f7
        fmv.x.d t6, f2
        fmv.d.x f12, t6
        fadd.d f12, f12, f11
        add s3, s3, t0
        add s3, s3, t3
        add s3, s3, t4
        add s3, s3, t5
        andi t0, s1, 1
        beq t0, zero, even
        addi s4, s4, 1
    even:
        bne t0, zero, odd
        addi s4, s4, 2
    odd:
        blt t1, zero, negative
        addi s4, s4, 3
    negative:
        bge t1, t2, above
        addi s4, s4, 4
    above:
        bltu t1, t2, below
        addi s4, s4, 5
    below:
        bgeu t2, t0, notbelow
        addi s4, s4, 6
    notbelow:
        call leaf
        la a3, leaf
        jalr ra, 0(a3)
        andi t0, s1, 127
        bnez t0, noflush
        jte.flush
        mv a0, s3
        li a7, 2
        ecall
    noflush:
        addi s1, s1, 1
        blt s1, s2, loop
        andi a0, s4, 127
        li a7, 0
        ecall
    leaf:
        addi s4, s4, 7
        ret
)";

/** The bare-program half of the timed comparison: text writes, faults,
 *  and every handler family on machines with other latencies, 2-wide
 *  issue, an L2, gshare and ITTAGE. */
void
timedCompareBarePrograms()
{
    cpu::CoreConfig cfg;
    cfg.name = "test";
    for (const SelfModifyingCase &c : selfModifyingPrograms()) {
        SCOPED_TRACE(c.name);
        TimedRun ref(c.program, cfg, DispatchTier::Switch);
        TimedRun fast(c.program, cfg, DispatchTier::Threaded);
        timedCompare(ref, fast);
        EXPECT_EQ(ref.core.run().exitCode, c.exitCode);
        EXPECT_EQ(fast.core.run().exitCode, c.exitCode);
    }

    cpu::CoreConfig ittage = minorConfig();
    ittage.name = "minor+ittage";
    ittage.ittageEnabled = true;
    isa::Program families = isa::assembleText(kHandlerFamilyProgram);
    for (const cpu::CoreConfig &machine :
         {minorConfig(), rocketConfig(), cortexA8Config(), ittage}) {
        SCOPED_TRACE("handler families on " + machine.name);
        TimedRun ref(families, machine, DispatchTier::Switch);
        TimedRun fast(families, machine, DispatchTier::Threaded);
        StatGroup stats = timedCompare(ref, fast);
        // The comparison must reach what it is there for.
        EXPECT_TRUE(fast.core.run().exited);
        EXPECT_GT(stats.get("instructions"), 65537u);
        EXPECT_GT(stats.get("dcache.misses"), 0u);
        EXPECT_GT(stats.get("loadUseStalls"), 0u);
        EXPECT_GT(stats.get("branch.conditional.mispredicted"), 0u);
        EXPECT_GT(stats.get("branch.return.count"), 0u);
        EXPECT_GT(stats.get("branch.indirectOther.count"), 0u);
        EXPECT_NE(fast.core.output(), "");
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

/** Where a guest fault leaves a core. */
struct FaultState
{
    uint64_t pc;
    uint64_t retired;
    std::vector<uint64_t> regs;

    explicit FaultState(const cpu::FunctionalCore &core)
        : pc(core.pc()), retired(core.retired())
    {
        for (unsigned r = 0; r < 32; ++r)
            regs.push_back(core.readReg(r));
    }
};

void
expectSameFaultState(const FaultState &want, const FaultState &got)
{
    EXPECT_EQ(got.pc, want.pc);
    EXPECT_EQ(got.retired, want.retired);
    EXPECT_EQ(got.regs, want.regs);
}

TEST(DispatchTier, FaultsLeaveTheCoreAtTheFaultingInstruction)
{
    // Both tiers, recorded and timed, leave the core where step() does:
    // pc() is the faulting instruction or the bad target, retired()
    // counts the instructions before it, and the registers hold what
    // those instructions wrote.
    isa::Program fall = isa::assembleText("addi t0, t0, 1\naddi t0, t0, 2\n");
    isa::Program trap = isa::assembleText("addi t0, t0, 5\nebreak\n");
    isa::Program sys = isa::assembleText("addi a7, zero, 99\necall\n");
    isa::Program jump = isa::assembleText("li t0, 0x999000\njr t0\n");
    struct Case
    {
        const char *name;
        const isa::Program &program;
        uint64_t pc;
        uint64_t retired;
        uint64_t t0;
    };
    const std::vector<Case> cases = {
        {"fall off the text", fall, fall.end(), 2, 3},
        {"ebreak", trap, trap.base + 4, 1, 5},
        {"unknown syscall", sys, sys.base + 4, 1, 0},
        {"jalr out of the text", jump, 0x999000, jump.size(), 0x999000},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        TierRun ref(c.program, DispatchTier::Switch);
        cpu::RetireInfo ri;
        EXPECT_THROW(
            while (ref.core->step(&ri)) {}, FatalError);
        FaultState want(*ref.core);
        ASSERT_EQ(want.pc, c.pc);
        ASSERT_EQ(want.retired, c.retired);
        ASSERT_EQ(want.regs[isa::reg::t0], c.t0);

        for (DispatchTier tier :
             {DispatchTier::Switch, DispatchTier::Threaded}) {
            SCOPED_TRACE(tier == DispatchTier::Switch ? "switch" : "threaded");
            TierRun recorded(c.program, tier);
            std::vector<cpu::RetireInfo> chunk(cpu::RetireChunk::kCapacity);
            EXPECT_THROW(recorded.core->runRecorded(chunk.data(), chunk.size()),
                         FatalError);
            expectSameFaultState(want, FaultState(*recorded.core));

            TimedRun timed(c.program, minorConfig(), tier);
            EXPECT_THROW(timed.core.run(), FatalError);
            expectSameFaultState(want, FaultState(timed.core.functional()));
        }
    }
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
