/**
 * @file
 * Sparse (paged) guest physical memory. Pages are allocated on first touch
 * so workloads with large heaps (e.g. binary-trees with garbage collection
 * disabled, matching the paper's setup) stay cheap to host.
 *
 * The accessors keep a direct-mapped page cache (kCacheWays entries,
 * indexed by the low bits of the page frame) so the dominant pattern —
 * repeated accesses within the interpreter's stack, heap and data pages
 * — costs one compare and one memcpy instead of a hash lookup per
 * access. Each simulation owns a private GuestMemory, so the mutable
 * cache needs no synchronization.
 */

#ifndef SCD_MEM_MEMORY_HH
#define SCD_MEM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "isa/program.hh"

namespace scd::mem
{

/** Byte-addressable little-endian guest memory. */
class GuestMemory
{
  public:
    static constexpr unsigned kPageBits = 16;
    static constexpr uint64_t kPageSize = uint64_t(1) << kPageBits;

    uint8_t
    read8(uint64_t addr) const
    {
        uint8_t v;
        return tryReadFast(addr, v) ? v : read8Slow(addr);
    }
    uint16_t
    read16(uint64_t addr) const
    {
        uint16_t v;
        return tryReadFast(addr, v) ? v : read16Slow(addr);
    }
    uint32_t
    read32(uint64_t addr) const
    {
        uint32_t v;
        return tryReadFast(addr, v) ? v : read32Slow(addr);
    }
    uint64_t
    read64(uint64_t addr) const
    {
        uint64_t v;
        return tryReadFast(addr, v) ? v : read64Slow(addr);
    }

    void
    write8(uint64_t addr, uint8_t value)
    {
        if (!tryWriteFast(addr, value))
            write8Slow(addr, value);
    }
    void
    write16(uint64_t addr, uint16_t value)
    {
        if (!tryWriteFast(addr, value))
            write16Slow(addr, value);
    }
    void
    write32(uint64_t addr, uint32_t value)
    {
        if (!tryWriteFast(addr, value))
            write32Slow(addr, value);
    }
    void
    write64(uint64_t addr, uint64_t value)
    {
        if (!tryWriteFast(addr, value))
            write64Slow(addr, value);
    }

    /** Copy @p bytes into memory starting at @p addr. */
    void writeBlock(uint64_t addr, const void *bytes, size_t size);

    /** Copy the encoded text segment of @p prog into memory. */
    void loadProgram(const isa::Program &prog);

  private:
    static constexpr uint64_t
    offsetIn(uint64_t addr)
    {
        return addr & (kPageSize - 1);
    }

    static constexpr unsigned kCacheWays = 64; ///< direct-mapped by frame

    static constexpr unsigned
    cacheIndex(uint64_t frame)
    {
        return unsigned(frame) & (kCacheWays - 1);
    }

    template <typename T>
    bool
    tryReadFast(uint64_t addr, T &value) const
    {
        uint64_t frame = addr >> kPageBits;
        unsigned way = cacheIndex(frame);
        if (cachedFrame_.tag[way] != frame ||
            offsetIn(addr) + sizeof(T) > kPageSize) {
            return false;
        }
        std::memcpy(&value, cachedPage_[way] + offsetIn(addr), sizeof(T));
        return true;
    }

    template <typename T>
    bool
    tryWriteFast(uint64_t addr, T value)
    {
        uint64_t frame = addr >> kPageBits;
        unsigned way = cacheIndex(frame);
        if (cachedFrame_.tag[way] != frame ||
            offsetIn(addr) + sizeof(T) > kPageSize) {
            return false;
        }
        std::memcpy(cachedPage_[way] + offsetIn(addr), &value, sizeof(T));
        return true;
    }

    uint8_t read8Slow(uint64_t addr) const;
    uint16_t read16Slow(uint64_t addr) const;
    uint32_t read32Slow(uint64_t addr) const;
    uint64_t read64Slow(uint64_t addr) const;
    void write8Slow(uint64_t addr, uint8_t value);
    void write16Slow(uint64_t addr, uint16_t value);
    void write32Slow(uint64_t addr, uint32_t value);
    void write64Slow(uint64_t addr, uint64_t value);

    uint8_t *page(uint64_t addr);
    const uint8_t *pageIfPresent(uint64_t addr) const;

    mutable std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;

    // Direct-mapped page cache; populated only with allocated pages,
    // whose storage is stable (unique_ptr<uint8_t[]> values never move
    // on rehash and pages are never freed). ~0 is never a valid frame
    // tag because addresses are < 2^48.
    struct FrameTags
    {
        uint64_t tag[kCacheWays];
        FrameTags()
        {
            for (unsigned w = 0; w < kCacheWays; ++w)
                tag[w] = ~uint64_t(0);
        }
    };
    mutable FrameTags cachedFrame_;
    mutable uint8_t *cachedPage_[kCacheWays] = {};
};

} // namespace scd::mem

#endif // SCD_MEM_MEMORY_HH
