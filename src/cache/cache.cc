#include "cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace scd::cache
{

Cache::Cache(const CacheConfig &config) : config_(config)
{
    SCD_ASSERT(isPowerOf2(config.blockBytes), "block size not power of 2");
    SCD_ASSERT(config.associativity > 0, "zero associativity");
    uint64_t blocks = config.sizeBytes / config.blockBytes;
    SCD_ASSERT(blocks % config.associativity == 0,
               "size/assoc mismatch in cache '", config.name, "'");
    numSets_ = static_cast<unsigned>(blocks / config.associativity);
    SCD_ASSERT(isPowerOf2(numSets_), "set count not power of 2");
    blockShift_ = floorLog2(config.blockBytes);
    ways_.resize(numSets_ * config.associativity);
    rrNext_.resize(numSets_, 0);
}

void
Cache::fill(Way *base, unsigned set, uint64_t tag)
{
    ++misses_;
    // Choose a victim: invalid way first, else policy.
    unsigned victim = 0;
    bool found = false;
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (!base[w].valid) {
            victim = w;
            found = true;
            break;
        }
    }
    if (!found) {
        if (config_.replacement == Replacement::RoundRobin) {
            victim = rrNext_[set];
            rrNext_[set] = (victim + 1) % config_.associativity;
        } else {
            uint64_t oldest = UINT64_MAX;
            for (unsigned w = 0; w < config_.associativity; ++w) {
                if (base[w].lastUse < oldest) {
                    oldest = base[w].lastUse;
                    victim = w;
                }
            }
        }
    }
    base[victim].valid = true;
    base[victim].tag = tag;
    base[victim].lastUse = useClock_;
}

bool
Cache::probe(uint64_t addr) const
{
    unsigned set = setIndex(addr);
    uint64_t tag = tagOf(addr);
    const Way *base = &ways_[set * config_.associativity];
    for (unsigned w = 0; w < config_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Way &w : ways_)
        w.valid = false;
}

void
Cache::exportStats(StatGroup &group) const
{
    group.counter(config_.name + ".accesses") = accesses_;
    group.counter(config_.name + ".misses") = misses_;
}

} // namespace scd::cache
