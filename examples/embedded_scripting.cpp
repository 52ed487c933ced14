/**
 * @file
 * Embedded-scripting scenario: an IoT-style device runs a scripted sensor
 * pipeline (exponential smoothing + threshold alarms) on the simulated
 * embedded core, time-multiplexed with "other work" — demonstrating the
 * OS-interaction story of the paper's Section IV: jte.flush at context
 * switches empties the jump-table entries, and the interpreter re-warms
 * them through the slow path afterwards.
 */

#include <cstdio>

#include "cpu/core.hh"
#include "guest/rlua_guest.hh"
#include "harness/machines.hh"
#include "mem/memory.hh"
#include "vm/rlua_compiler.hh"

using namespace scd;
using namespace scd::guest;

namespace
{

const char *kSensorScript = R"(
-- Scripted sensor pipeline: synthesize readings with an LCG, smooth them,
-- count threshold crossings.
ALPHA_NUM = 3
ALPHA_DEN = 10
function smooth(prev, sample)
  return (prev * (ALPHA_DEN - ALPHA_NUM) + sample * ALPHA_NUM) // ALPHA_DEN
end
local seed = 7
local level = 500
local alarms = 0
for t = 1, @TICKS@ do
  seed = (seed * 1103515245 + 12345) % 2147483648
  local sample = seed % 1000
  level = smooth(level, sample)
  if level > 600 then alarms = alarms + 1 end
end
print(level)
print(alarms)
)";

std::string
withTicks(int ticks)
{
    std::string src = kSensorScript;
    auto pos = src.find("@TICKS@");
    src.replace(pos, 7, std::to_string(ticks));
    return src;
}

} // namespace

int
main()
{
    auto module = vm::rlua::compileSource(withTicks(20000));
    GuestProgram guest = buildRluaGuest(module, DispatchKind::Scd);

    mem::GuestMemory memory;
    guest.loadInto(memory);
    cpu::CoreConfig config = harness::minorConfig();
    config.scdEnabled = true;
    cpu::Core core(config, memory);
    core.loadProgram(guest.text);
    core.setDispatchMeta(guest.meta);

    std::printf("Running the sensor pipeline with periodic context "
                "switches (jte.flush)...\n\n");

    // Simulate an OS time slice: every 1M retired instructions another
    // process runs; on switch-in the kernel executed jte.flush, so we
    // flush the JTEs (and Rop) exactly as Section IV prescribes.
    uint64_t lastHits = 0, lastMisses = 0;
    int slice = 0;
    cpu::RunResult result;
    while (true) {
        result = core.run((slice + 1) * 1'000'000);
        auto stats = core.collectStats();
        uint64_t hits = stats.get("scd.bopFastHits");
        uint64_t misses = stats.get("scd.bopMisses");
        std::printf("slice %2d: bop fast-path hits %7llu (+%6llu), "
                    "slow-path %5llu (+%4llu), resident JTEs %u\n",
                    slice, (unsigned long long)hits,
                    (unsigned long long)(hits - lastHits),
                    (unsigned long long)misses,
                    (unsigned long long)(misses - lastMisses),
                    core.timing().jteCount());
        lastHits = hits;
        lastMisses = misses;
        if (result.exited)
            break;
        // Context switch: the OS flushes the jump-table entries.
        core.timing().jteFlush();
        ++slice;
        if (slice > 40)
            break;
    }

    std::printf("\nguest output:\n%s", core.output().c_str());
    std::printf("\nEach slice begins with a burst of slow-path dispatches "
                "(re-inserting JTEs)\nand immediately returns to "
                "fast-path hits — the re-warm cost the paper argues\nis "
                "negligible.\n");
    return result.exited ? 0 : 1;
}
