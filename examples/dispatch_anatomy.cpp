/**
 * @file
 * Dispatch anatomy: traces the exact machine instructions the interpreter
 * executes to dispatch a few bytecodes under each dispatch scheme,
 * reproducing the paper's Figure 1(b) (canonical dispatch) vs Figure 4
 * (SCD-transformed dispatch) comparison on live code.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cpu/functional_core.hh"
#include "cpu/inorder_timing.hh"
#include "guest/rlua_guest.hh"
#include "isa/instruction.hh"
#include "mem/memory.hh"
#include "vm/rlua_compiler.hh"

using namespace scd;
using namespace scd::guest;

namespace
{

void
traceVariant(DispatchKind kind)
{
    auto module = vm::rlua::compileSource(R"(
        local x = 0
        for i = 1, 20 do x = x + i end
        print(x)
    )");
    GuestProgram guest = buildRluaGuest(module, kind);

    mem::GuestMemory memory;
    guest.loadInto(memory);
    cpu::CoreConfig config;
    config.scdEnabled = kind == DispatchKind::Scd;
    cpu::InOrderTiming timing(config);
    cpu::FunctionalCore core(config, memory, timing);
    core.loadProgram(guest.text);
    core.setDispatchMeta(guest.meta);

    // Identify dispatcher PCs so the trace can annotate them.
    auto inDispatch = [&](uint64_t pc) {
        for (auto [lo, hi] : guest.meta.dispatchRanges)
            if (pc >= lo && pc < hi)
                return true;
        return false;
    };

    std::printf("=== %s dispatch ===\n", dispatchKindName(kind));
    // Skip the warmup (JTE fills on first touch), then print two
    // dispatch->handler rounds from steady state.
    uint64_t skip = 1000;
    int printed = 0;
    int rounds = 0;
    bool lastWasDispatch = false;
    cpu::RetireInfo ri;
    while (!core.exited() && core.retired() < 4000) {
        core.step(&ri);
        timing.retire(ri);
        if (skip > 0) {
            --skip;
            continue;
        }
        bool dispatching = inDispatch(ri.pc);
        if (dispatching && !lastWasDispatch)
            ++rounds;
        lastWasDispatch = dispatching;
        if (rounds >= 1 && rounds <= 2 && printed < 60) {
            uint32_t word = guest.text.words[(ri.pc - guest.text.base) / 4];
            std::printf("  %s%8llx:  %s\n", dispatching ? "[D] " : "    ",
                        (unsigned long long)ri.pc,
                        isa::toString(isa::decode(word)).c_str());
            ++printed;
        }
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf(
        "Tracing two steady-state bytecode dispatches per variant.\n"
        "[D] marks dispatcher instructions (fetch/decode/bound-check/\n"
        "table-load/jump); the rest are handler instructions.\n\n");
    traceVariant(DispatchKind::Switch);
    traceVariant(DispatchKind::Scd);
    traceVariant(DispatchKind::Threaded);
    std::printf(
        "Note how the SCD variant's dispatcher collapses to the fetch +\n"
        "bop pair once the BTB holds the jump-table entry, exactly as in\n"
        "the paper's Figure 4.\n");
    return 0;
}
