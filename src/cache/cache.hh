/**
 * @file
 * A classic set-associative cache timing model used for the L1 I-cache,
 * L1 D-cache, and (on the higher-end configuration) a unified L2. Only
 * hit/miss behaviour is modelled — data always comes from GuestMemory —
 * which is exactly what the paper's figures need (miss rates and miss
 * penalties).
 */

#ifndef SCD_CACHE_CACHE_HH
#define SCD_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace scd::cache
{

/** Replacement policy for a cache set. */
enum class Replacement
{
    LRU,
    RoundRobin,
};

/** Configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 16 * 1024;
    unsigned associativity = 2;
    unsigned blockBytes = 64;
    Replacement replacement = Replacement::LRU;
};

/** Set-associative cache with hit/miss tracking. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the block containing @p addr.
     * @param write true for stores (write-allocate).
     * @return true on hit.
     *
     * The hit scan is inline (the timing model calls it per fetch block
     * and per memory operation); victim selection stays out of line.
     */
    bool
    access(uint64_t addr, bool write = false)
    {
        (void)write; // write-allocate: identical placement behaviour
        ++accesses_;
        ++useClock_;
        unsigned set = setIndex(addr);
        uint64_t tag = tagOf(addr);
        Way *base = &ways_[set * config_.associativity];
        for (unsigned w = 0; w < config_.associativity; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lastUse = useClock_;
                return true;
            }
        }
        fill(base, set, tag);
        return false;
    }

    /** True if the block containing @p addr is resident (no side effect). */
    bool probe(uint64_t addr) const;

    /** Invalidate all blocks. */
    void flush();

    const CacheConfig &config() const { return config_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }

    /** Export counters into @p group under "<name>." prefixes. */
    void exportStats(StatGroup &group) const;

  private:
    struct Way
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lastUse = 0;
    };

    unsigned
    setIndex(uint64_t addr) const
    {
        return static_cast<unsigned>((addr >> blockShift_) & (numSets_ - 1));
    }

    uint64_t tagOf(uint64_t addr) const { return addr >> blockShift_; }

    /** Miss path of access(): count it and install @p tag in @p set. */
    void fill(Way *base, unsigned set, uint64_t tag);

    CacheConfig config_;
    unsigned numSets_;
    unsigned blockShift_;
    std::vector<Way> ways_;          ///< numSets_ x associativity
    std::vector<unsigned> rrNext_;   ///< round-robin cursor per set
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t useClock_ = 0;
};

} // namespace scd::cache

#endif // SCD_CACHE_CACHE_HH
