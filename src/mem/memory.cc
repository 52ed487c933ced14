#include "memory.hh"

#include <cstring>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace scd::mem
{

namespace
{

/**
 * A sweep builds and drops one GuestMemory per point, each holding
 * megabytes of pages. glibc hands a freed heap top larger than its trim
 * threshold (128 KiB by default) back to the OS, so unless something
 * long-lived sits above them, every point's freed pages go back and the
 * next point takes a zero-fill fault per 4 KiB to get them again. Keep up
 * to 64 MiB of freed heap per arena instead. Set once per process, on the
 * first page allocation.
 */
void
keepFreedPages()
{
#ifdef __GLIBC__
    [[maybe_unused]] static const int once = mallopt(M_TRIM_THRESHOLD,
                                                     64 << 20);
#endif
}

} // namespace

uint8_t *
GuestMemory::page(uint64_t addr)
{
    uint64_t frame = addr >> kPageBits;
    auto it = pages_.find(frame);
    if (it == pages_.end()) {
        keepFreedPages();
        auto fresh = std::make_unique<uint8_t[]>(kPageSize);
        std::memset(fresh.get(), 0, kPageSize);
        it = pages_.emplace(frame, std::move(fresh)).first;
    }
    unsigned way = cacheIndex(frame);
    cachedFrame_.tag[way] = frame;
    cachedPage_[way] = it->second.get();
    return cachedPage_[way];
}

const uint8_t *
GuestMemory::pageIfPresent(uint64_t addr) const
{
    uint64_t frame = addr >> kPageBits;
    auto it = pages_.find(frame);
    if (it == pages_.end())
        return nullptr;
    unsigned way = cacheIndex(frame);
    cachedFrame_.tag[way] = frame;
    cachedPage_[way] = it->second.get();
    return cachedPage_[way];
}

// Accesses from the guest interpreters are always naturally aligned and
// never straddle a 64 KiB page, so the fast paths below just memcpy within
// one page. A straddling access falls back to byte-at-a-time.

#define SCD_DEF_READ(name, type)                                            \
    type GuestMemory::name##Slow(uint64_t addr) const                       \
    {                                                                       \
        type v = 0;                                                         \
        if (offsetIn(addr) + sizeof(type) <= kPageSize) {                   \
            const uint8_t *p = pageIfPresent(addr);                         \
            if (p)                                                          \
                std::memcpy(&v, p + offsetIn(addr), sizeof(type));          \
            return v;                                                       \
        }                                                                   \
        for (size_t n = 0; n < sizeof(type); ++n)                           \
            v |= static_cast<type>(read8(addr + n)) << (8 * n);             \
        return v;                                                           \
    }

SCD_DEF_READ(read8, uint8_t)
SCD_DEF_READ(read16, uint16_t)
SCD_DEF_READ(read32, uint32_t)
SCD_DEF_READ(read64, uint64_t)
#undef SCD_DEF_READ

#define SCD_DEF_WRITE(name, type)                                           \
    void GuestMemory::name##Slow(uint64_t addr, type value)                 \
    {                                                                       \
        if (offsetIn(addr) + sizeof(type) <= kPageSize) {                   \
            std::memcpy(page(addr) + offsetIn(addr), &value, sizeof(type)); \
            return;                                                         \
        }                                                                   \
        for (size_t n = 0; n < sizeof(type); ++n)                           \
            write8(addr + n, static_cast<uint8_t>(value >> (8 * n)));       \
    }

SCD_DEF_WRITE(write8, uint8_t)
SCD_DEF_WRITE(write16, uint16_t)
SCD_DEF_WRITE(write32, uint32_t)
SCD_DEF_WRITE(write64, uint64_t)
#undef SCD_DEF_WRITE

void
GuestMemory::writeBlock(uint64_t addr, const void *bytes, size_t size)
{
    const uint8_t *src = static_cast<const uint8_t *>(bytes);
    while (size > 0) {
        uint64_t off = offsetIn(addr);
        size_t chunk = std::min<size_t>(size, kPageSize - off);
        std::memcpy(page(addr) + off, src, chunk);
        addr += chunk;
        src += chunk;
        size -= chunk;
    }
}

void
GuestMemory::loadProgram(const isa::Program &prog)
{
    for (size_t n = 0; n < prog.words.size(); ++n)
        write32(prog.base + n * 4, prog.words[n]);
}

} // namespace scd::mem
