#include "dispatch_tier.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace scd::cpu
{

const char *
dispatchTierName(DispatchTier tier)
{
    switch (tier) {
      case DispatchTier::Switch:
        return "switch";
      default:
        return "threaded";
    }
}

std::optional<DispatchTier>
parseDispatchTier(std::string_view name)
{
    if (name == "switch")
        return DispatchTier::Switch;
    if (name == "threaded")
        return DispatchTier::Threaded;
    return std::nullopt;
}

DispatchTier
defaultDispatchTier()
{
    static const DispatchTier tier = [] {
        const char *env = std::getenv("SCD_DISPATCH_TIER");
        if (!env || !*env)
            return DispatchTier::Threaded;
        if (auto parsed = parseDispatchTier(env))
            return *parsed;
        warn("SCD_DISPATCH_TIER='", env,
             "' is not 'switch' or 'threaded'; using threaded");
        return DispatchTier::Threaded;
    }();
    return tier;
}

} // namespace scd::cpu
