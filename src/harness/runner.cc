#include "runner.hh"

#include <array>
#include <chrono>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "common/logging.hh"
#include "guest/rlua_guest.hh"
#include "guest/sjs_guest.hh"
#include "mem/memory.hh"
#include "vm/rlua_compiler.hh"
#include "vm/sjs_compiler.hh"

namespace scd::harness
{

guest::DispatchKind
dispatchForScheme(core::Scheme scheme)
{
    switch (scheme) {
      case core::Scheme::JumpThreading:
        return guest::DispatchKind::Threaded;
      case core::Scheme::Scd:
        return guest::DispatchKind::Scd;
      default:
        return guest::DispatchKind::Switch;
    }
}

namespace
{

/**
 * The process-global guest compile cache. Compiling + laying out a guest
 * is identical for every machine configuration, so one entry serves
 * every experiment point sharing (vm, source, dispatch kind). Entries
 * are immutable once published (shared_ptr<const>), so readers only need
 * the mutex for the map itself.
 */
struct GuestCache
{
    struct Entry
    {
        std::string source; ///< collision guard for the hashed key
        std::shared_ptr<const guest::GuestProgram> program;
    };

    std::mutex mutex;
    std::unordered_multimap<uint64_t, Entry> entries;
    GuestCacheStats stats;
};

GuestCache &
guestCache()
{
    static GuestCache cache;
    return cache;
}

uint64_t
guestKey(VmKind vm, const std::string &source, guest::DispatchKind kind)
{
    uint64_t h = std::hash<std::string>{}(source);
    return h ^ (uint64_t(vm) << 62) ^ (uint64_t(kind) << 59);
}

} // namespace

std::shared_ptr<const guest::GuestProgram>
compileGuest(VmKind vm, const std::string &source, guest::DispatchKind kind)
{
    GuestCache &cache = guestCache();
    uint64_t key = guestKey(vm, source, kind);
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto [lo, hi] = cache.entries.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
            if (it->second.source == source) {
                ++cache.stats.hits;
                return it->second.program;
            }
        }
    }
    // Compile outside the lock. Two threads racing on the same new key
    // both compile; the results are identical and both get published
    // (multimap), so either copy is valid wherever it ended up shared.
    auto program = std::make_shared<guest::GuestProgram>(
        vm == VmKind::Rlua
            ? guest::buildRluaGuest(vm::rlua::compileSource(source), kind)
            : guest::buildSjsGuest(vm::sjs::compileSource(source), kind));
    std::lock_guard<std::mutex> lock(cache.mutex);
    ++cache.stats.compiles;
    cache.entries.emplace(key, GuestCache::Entry{source, program});
    return program;
}

GuestCacheStats
guestCacheStats()
{
    GuestCache &cache = guestCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return cache.stats;
}

void
resetGuestCache()
{
    GuestCache &cache = guestCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.clear();
    cache.stats = {};
}

double
ExperimentResult::branchMpki() const
{
    // The stat keys are loop-invariant; building "branch.<class>
    // .mispredicted" strings on every call showed up in figure rendering
    // profiles, so the table is materialized once.
    static const auto kMissKeys = [] {
        std::array<std::string, size_t(cpu::BranchClass::NumClasses)> keys;
        for (size_t c = 0; c < keys.size(); ++c) {
            keys[c] = std::string("branch.") +
                      cpu::branchClassName(cpu::BranchClass(c)) +
                      ".mispredicted";
        }
        return keys;
    }();
    uint64_t misses = 0;
    for (const std::string &key : kMissKeys)
        misses += stats.get(key);
    return run.instructions == 0
               ? 0.0
               : 1000.0 * double(misses) / double(run.instructions);
}

ExperimentResult
runExperiment(VmKind vm, const std::string &source, core::Scheme scheme,
              const cpu::CoreConfig &machine, uint64_t maxInstructions,
              obs::TraceBuffer *trace, double timeoutSeconds)
{
    std::shared_ptr<const guest::GuestProgram> program =
        compileGuest(vm, source, dispatchForScheme(scheme));

    mem::GuestMemory memory;
    program->loadInto(memory);
    cpu::Core core(core::withScheme(machine, scheme), memory);
    core.loadProgram(program->text);
    core.setDispatchMeta(program->meta);
    if (trace)
        core.timing().attachTrace(trace);
    core.armWatchdog(timeoutSeconds);

    ExperimentResult result;
    auto simStart = std::chrono::steady_clock::now();
    result.run = core.run(maxInstructions);
    result.simSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      simStart)
            .count();
    if (!result.run.exited) {
        warn("experiment hit the instruction limit (", maxInstructions,
             ") before completing");
    }
    if (result.run.exitCode != 0)
        fatal("guest exited with code ", result.run.exitCode, ": ",
              core.output());
    result.stats = core.collectStats();
    result.output = core.output();
    result.interpreterTextBytes = program->textBytes();
    return result;
}

ExperimentResult
runWorkload(VmKind vm, const Workload &workload, InputSize size,
            core::Scheme scheme, const cpu::CoreConfig &machine,
            uint64_t maxInstructions, obs::TraceBuffer *trace,
            double timeoutSeconds)
{
    return runExperiment(vm, workload.text(size), scheme, machine,
                         maxInstructions, trace, timeoutSeconds);
}

} // namespace scd::harness
