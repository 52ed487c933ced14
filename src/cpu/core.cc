#include "core.hh"

#include <algorithm>

namespace scd::cpu
{

Core::Core(const CoreConfig &config, mem::GuestMemory &memory)
    : config_(config), timing_(config_), functional_(config_, memory, timing_)
{
}

RunResult
Core::run(uint64_t maxInstructions)
{
    const Watchdog &watchdog = functional_.watchdog();
    while (!functional_.exited()) {
        uint64_t burst = Watchdog::kCheckInterval;
        if (maxInstructions != 0) {
            uint64_t retired = functional_.retired();
            if (retired >= maxInstructions)
                break;
            burst = std::min(burst, maxInstructions - retired);
        }
        watchdog.expire();
        functional_.runTimed(timing_, burst);
    }
    RunResult result;
    result.exitCode = functional_.exitCode();
    result.instructions = functional_.retired();
    result.cycles = timing_.cycles();
    result.exited = functional_.exited();
    return result;
}

StatGroup
Core::collectStats() const
{
    StatGroup group;
    functional_.exportStats(group);
    group.counter("cycles") = timing_.cycles();
    timing_.exportStats(group);
    return group;
}

} // namespace scd::cpu
