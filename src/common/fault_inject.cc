#include "fault_inject.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <new>

#include "common/logging.hh"

namespace scd::faultinj
{

namespace
{

// Armed state. hit() takes the mutex only when a fault is armed;
// armedFlag_ is checked first so the disarmed cost is one atomic load.
std::atomic<bool> armedFlag_{false};
std::mutex mutex_;
std::string armedSite_;
unsigned armedNth_ = 0;
unsigned hits_ = 0;

} // namespace

const std::vector<std::string> &
registeredSites()
{
    static const std::vector<std::string> sites = {
        "point-oom",
    };
    return sites;
}

void
arm(const std::string &site, unsigned nth)
{
    const std::vector<std::string> &sites = registeredSites();
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
        std::string known;
        for (const std::string &s : sites) {
            if (!known.empty())
                known += ", ";
            known += s;
        }
        fatal("unknown fault site '", site, "' (registered sites: ",
              known, ")");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    armedSite_ = site;
    armedNth_ = nth == 0 ? 1 : nth;
    hits_ = 0;
    armedFlag_.store(true, std::memory_order_release);
}

void
disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    armedSite_.clear();
    armedNth_ = 0;
    hits_ = 0;
    armedFlag_.store(false, std::memory_order_release);
}

bool
armed()
{
    return armedFlag_.load(std::memory_order_acquire);
}

void
hit(const char *site)
{
    if (!armedFlag_.load(std::memory_order_acquire))
        return;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (armedSite_ != site)
            return;
        if (++hits_ != armedNth_)
            return;
        // One-shot: disarm before throwing so a rerun does not re-trip
        // the same fault.
        armedSite_.clear();
        armedNth_ = 0;
        hits_ = 0;
        armedFlag_.store(false, std::memory_order_release);
    }
    throw std::bad_alloc();
}

} // namespace scd::faultinj
