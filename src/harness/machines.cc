#include "machines.hh"

#include <utility>

#include "branch/frontend.hh"
#include "common/logging.hh"

namespace scd::harness
{

cpu::CoreConfig
minorConfig()
{
    cpu::CoreConfig c;
    c.name = "minor";
    c.issueWidth = 1;
    c.mispredictPenalty = 3;
    c.btbMissTakenPenalty = 2;
    c.icache = {"icache", 16 * 1024, 2, 64, cache::Replacement::LRU};
    c.dcache = {"dcache", 32 * 1024, 4, 64, cache::Replacement::LRU};
    c.loadHitLatency = 2;
    c.memLatency = 30;
    c.itlbEntries = 10;
    c.dtlbEntries = 10;
    c.btb = {256, 2, /*lru=*/false, /*cap=*/0}; // 2-way, round-robin
    c.predictor = cpu::PredictorKind::Tournament;
    c.globalPredictorEntries = 512;
    c.localPredictorEntries = 128;
    c.rasDepth = 8;
    return c;
}

cpu::CoreConfig
rocketConfig()
{
    cpu::CoreConfig c;
    c.name = "rocket";
    c.issueWidth = 1;
    c.mispredictPenalty = 2;
    c.btbMissTakenPenalty = 1;
    c.icache = {"icache", 16 * 1024, 4, 64, cache::Replacement::LRU};
    c.dcache = {"dcache", 16 * 1024, 4, 64, cache::Replacement::LRU};
    c.loadHitLatency = 1;
    c.memLatency = 25;
    c.itlbEntries = 8;
    c.dtlbEntries = 8;
    c.btb = {62, 62, /*lru=*/true, /*cap=*/0}; // fully associative, LRU
    c.predictor = cpu::PredictorKind::Gshare;
    c.gshareEntries = 128;
    c.rasDepth = 2;
    return c;
}

cpu::CoreConfig
cortexA8Config()
{
    cpu::CoreConfig c;
    c.name = "a8";
    c.issueWidth = 2;
    c.mispredictPenalty = 6;
    c.btbMissTakenPenalty = 3;
    c.icache = {"icache", 32 * 1024, 4, 64, cache::Replacement::LRU};
    c.dcache = {"dcache", 32 * 1024, 4, 64, cache::Replacement::LRU};
    c.loadHitLatency = 2;
    c.hasL2 = true;
    c.l2cache = {"l2cache", 256 * 1024, 8, 64, cache::Replacement::LRU};
    c.l2HitLatency = 8;
    c.memLatency = 60;
    c.btb = {512, 2, /*lru=*/false, /*cap=*/0};
    c.predictor = cpu::PredictorKind::Tournament;
    c.globalPredictorEntries = 512;
    c.localPredictorEntries = 128;
    c.rasDepth = 8;
    return c;
}

cpu::CoreConfig
withFrontend(cpu::CoreConfig config, const std::string &spec)
{
    config.frontend = branch::frontendFromSpec(spec);
    if (!spec.empty() && spec != "ideal")
        config.name += "+" + spec;
    return config;
}

cpu::CoreConfig
machineByName(const std::string &name)
{
    std::string base = name;
    std::string spec;
    if (size_t plus = name.find('+'); plus != std::string::npos) {
        base = name.substr(0, plus);
        spec = name.substr(plus + 1);
    }
    cpu::CoreConfig config;
    if (base == "minor")
        config = minorConfig();
    else if (base == "rocket")
        config = rocketConfig();
    else if (base == "a8")
        config = cortexA8Config();
    else
        fatal("unknown machine '", base, "' (expected minor|rocket|a8)");
    if (!spec.empty())
        config = withFrontend(std::move(config), spec);
    return config;
}

} // namespace scd::harness
