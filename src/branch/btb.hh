/**
 * @file
 * Branch target buffer with the Short-Circuit Dispatch jump-table overlay.
 *
 * This is the paper's central hardware structure (Section III-B): each BTB
 * entry carries a J/B flag. B entries are conventional PC-indexed branch
 * target predictions; J entries are jump-table entries (JTEs) keyed by
 * (bank, opcode) and inserted by the jru instruction. JTEs are
 * architecturally exact translations, take replacement priority over B
 * entries, may be bounded by a cap, and are invalidated only by jte.flush.
 *
 * The same storage also serves the VBBI comparison predictor, which indexes
 * the BTB with a hash of the jump PC and a hint-register value.
 */

#ifndef SCD_BRANCH_BTB_HH
#define SCD_BRANCH_BTB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "obs/trace.hh"

namespace scd::branch
{

/** BTB geometry and policy configuration. */
struct BtbConfig
{
    unsigned entries = 256;
    unsigned associativity = 2;     ///< == entries for fully associative
    bool lruReplacement = false;    ///< false = round-robin (minor config)
    unsigned jteCap = 0;            ///< max resident JTEs; 0 = unlimited

    /**
     * Adaptive JTE cap (the "optimal cap selection" the paper leaves to
     * future work): starts uncapped and, every @ref adaptEpoch PC
     * lookups, halves the cap when JTEs are displacing live branch
     * entries and relaxes it when contention subsides.
     */
    bool adaptiveJteCap = false;
    unsigned adaptEpoch = 8192;
};

/**
 * Check @p config for a constructible geometry: a nonzero associativity
 * dividing a nonzero entry count, a power-of-two (or single) set count,
 * and a JTE cap no larger than the structure. Throws FatalError naming
 * the offending field; called by the Btb constructor and the frontend
 * factory so a bad sweep axis fails loudly instead of misbehaving.
 */
void validateBtbConfig(const BtbConfig &config);

/** Distinguishes the two entry kinds sharing the structure. */
enum class EntryKind : uint8_t
{
    Branch, ///< conventional BTB entry (J/B = 0)
    Jte,    ///< jump-table entry (J/B = 1)
};

/**
 * BTB with J/B-flagged entries: the one owner of the JTE-overlay policy.
 *
 * With full tags (the paper's idealized BTB, the default) an entry matches
 * on its whole key. With partial tags — the main array of MultiLevelBtb,
 * after "Branch Target Buffer Reverse Engineering on Arm" — it matches on
 * the key XOR-folded to a few bits, so a probe can *falsely hit* an entry
 * of a different full key, and an insert overwrites such an aliased entry
 * in place.
 */
class Btb
{
  public:
    /** @p partialTagBits = 0 selects full tags. */
    explicit Btb(const BtbConfig &config, unsigned partialTagBits = 0);

    // ---- inline hit paths ------------------------------------------------
    // Every frontend organization probes through these on each control-
    // flow instruction, so they live in the header; only an insert that
    // misses and must fill or evict a way falls out of line.

    /** Look up a conventional PC-keyed target prediction; counts one PC
     *  lookup toward the adaptive cap's epoch. */
    std::optional<uint64_t>
    lookupPc(uint64_t pc)
    {
        tickAdaptiveCap();
        return lookup(EntryKind::Branch, pc);
    }

    /** Look up a JTE by (bank, opcode); the fast-path probe of bop. */
    std::optional<uint64_t>
    lookupJte(uint8_t bank, uint64_t opcode)
    {
        return lookup(EntryKind::Jte, jteKey(bank, opcode));
    }

    /** Look up a VBBI hashed entry. */
    std::optional<uint64_t>
    lookupHashed(uint64_t hashKey)
    {
        return lookup(EntryKind::Branch, hashKey);
    }

    /** Insert/refresh a conventional entry (never evicts a JTE). */
    void
    insertPc(uint64_t pc, uint64_t target)
    {
        insert(EntryKind::Branch, pc, target);
    }

    /** Insert/refresh a JTE (may evict a B entry; honours the cap). */
    void
    insertJte(uint8_t bank, uint64_t opcode, uint64_t target)
    {
        insert(EntryKind::Jte, jteKey(bank, opcode), target);
    }

    /** Insert/refresh a VBBI hashed entry (B-kind placement rules). */
    void
    insertHashed(uint64_t hashKey, uint64_t target)
    {
        insert(EntryKind::Branch, hashKey, target);
    }

    /**
     * Look up @p key of @p kind by its tag. A match whose full key
     * differs (possible only with partial tags) still returns that
     * entry's target and sets @p *falseHit.
     */
    std::optional<uint64_t>
    lookup(EntryKind kind, uint64_t key, bool *falseHit = nullptr)
    {
        ++useClock_;
        Entry *e = find(kind, key, tagOf(key), setOf(kind, key));
        if (!e)
            return std::nullopt;
        e->lastUse = useClock_;
        if (e->key != key) {
            // A partial-tag alias: the hardware returns the resident
            // entry's target as if it were the probed key's own.
            if (falseHit)
                *falseHit = true;
            traceFalseHit(kind, key, e->key);
        }
        return e->target;
    }

    /**
     * Insert/refresh @p key of @p kind under the Section III-B policy:
     * refresh a tag match in place, else fill an invalid way, else evict
     * by LRU/round-robin — a B entry never evicts a JTE, and at the cap a
     * JTE may only displace another JTE.
     */
    void
    insert(EntryKind kind, uint64_t key, uint64_t target)
    {
        ++useClock_;
        unsigned set = setOf(kind, key);
        uint32_t tag = tagOf(key);
        if (Entry *e = find(kind, key, tag, set)) {
            // Tag-visible refresh: the hardware cannot tell an aliased
            // entry from its own, so a partial-tag match is overwritten
            // in place, silently displacing its previous owner.
            if (e->key != key && kind == EntryKind::Jte)
                ++jteAliased_;
            e->key = key;
            e->target = target;
            e->lastUse = useClock_;
            return;
        }
        insertMiss(kind, key, target, tag, set);
    }

    /** Count one PC lookup toward the adaptive cap's epoch (no-op unless
     *  the cap is adaptive); lookupPc does this itself. */
    void
    tickAdaptiveCap()
    {
        if (config_.adaptiveJteCap)
            adaptTick();
    }

    /** Invalidate all JTEs (the jte.flush instruction). */
    void flushJtes();

    /** Number of currently valid JTEs. */
    unsigned jteCount() const { return jteCount_; }

    /** High-water mark of resident JTEs. */
    unsigned jteHighWater() const { return jteHighWater_; }

    /** Times a JTE insertion displaced a valid B entry. */
    uint64_t jteEvictedBranch() const { return jteEvictedBranch_; }

    /** Times a B insertion was dropped because its set was all-JTE. */
    uint64_t branchInsertDropped() const { return branchInsertDropped_; }

    /** Times a JTE insertion overwrote an aliased JTE of another key. */
    uint64_t jteAliased() const { return jteAliased_; }

    /** Current effective JTE cap (0 = unlimited). */
    unsigned effectiveJteCap() const;

    /** Set index of @p key: B entries index with the word-aligned PC
     *  (VBBI keys are pre-hashed); JTEs with the opcode XOR-folded with
     *  the branch-ID (bank) so the multi-table extension's entries spread
     *  across sets instead of aliasing. */
    unsigned
    setOf(EntryKind kind, uint64_t key) const
    {
        if (numSets_ == 1)
            return 0;
        if (kind == EntryKind::Jte) {
            uint64_t bank = key >> 40;
            return static_cast<unsigned>(((key & 0xFF) ^ (bank * 29)) &
                                         (numSets_ - 1));
        }
        return static_cast<unsigned>((key >> 2) & (numSets_ - 1));
    }

    /** Compose the full key of a JTE. */
    static uint64_t
    jteKey(uint8_t bank, uint64_t opcode)
    {
        return opcode | (uint64_t(bank) + 1) << 40;
    }

    const BtbConfig &config() const { return config_; }

    /**
     * Attach an event-trace buffer for JTE-eviction and false-hit events
     * (nullptr detaches it). The owner of the cycle stamp (the timing
     * model) shares the same buffer.
     */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }

    void exportStats(StatGroup &group, const std::string &prefix) const;

  private:
    struct Entry
    {
        uint64_t key = 0; ///< full key (simulator-side truth)
        uint64_t target = 0;
        uint64_t lastUse = 0;
        uint32_t tag = 0; ///< partial tag, tagOf(key); 0 with full tags
        EntryKind kind = EntryKind::Branch;
        bool valid = false;
    };

    /** The XOR-folded partial tag of @p key (0 with full tags): every
     *  13-bit stripe of the key folds in, then the result truncates to
     *  the tag width. Keys whose folded images agree are
     *  indistinguishable. */
    uint32_t
    tagOf(uint64_t key) const
    {
        if (tagBits_ == 0)
            return 0;
        uint64_t h =
            key ^ (key >> 13) ^ (key >> 26) ^ (key >> 39) ^ (key >> 52);
        return uint32_t(h & ((uint64_t(1) << tagBits_) - 1));
    }

    /** What the hardware compares: the full key, or the partial tag
     *  (equal keys always have equal tags). */
    bool
    matches(const Entry &e, EntryKind kind, uint64_t key, uint32_t tag) const
    {
        return e.valid && e.kind == kind &&
               (e.key == key || (tagBits_ != 0 && e.tag == tag));
    }

    Entry *
    find(EntryKind kind, uint64_t key, uint32_t tag, unsigned set)
    {
        Entry *base = &entries_[set * config_.associativity];
        for (unsigned w = 0; w < config_.associativity; ++w) {
            if (matches(base[w], kind, key, tag))
                return &base[w];
        }
        return nullptr;
    }

    /** insert() without a tag match in @p set: fill an invalid way, else
     *  evict under the JTE priority and cap rules. */
    void insertMiss(EntryKind kind, uint64_t key, uint64_t target,
                    uint32_t tag, unsigned set);

    /** Record lookup()'s false hit of @p key on @p residentKey in the
     *  attached buffer, if any. Cold and out of line: an inline test
     *  and record() call would change how the compiler inlines lookup()
     *  into the retire body. */
    [[gnu::cold, gnu::noinline]] void
    traceFalseHit(EntryKind kind, uint64_t key, uint64_t residentKey) const;

    BtbConfig config_;
    unsigned tagBits_;
    obs::TraceBuffer *trace_ = nullptr;
    unsigned numSets_;
    std::vector<Entry> entries_;
    std::vector<unsigned> rrNext_;
    uint64_t useClock_ = 0;
    unsigned jteCount_ = 0;
    unsigned jteHighWater_ = 0;
    uint64_t jteEvictedBranch_ = 0;
    uint64_t branchInsertDropped_ = 0;
    uint64_t jteAliased_ = 0;

    // Adaptive-cap state.
    void adaptTick();
    unsigned adaptiveCap_ = 0;  ///< 0 = currently unlimited
    uint64_t epochLookups_ = 0;
    uint64_t epochPressureBase_ = 0; ///< evictions+drops at epoch start
};

} // namespace scd::branch

#endif // SCD_BRANCH_BTB_HH
