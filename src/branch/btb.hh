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

/** BTB with J/B-flagged entries. */
class Btb
{
  public:
    explicit Btb(const BtbConfig &config);

    /** Look up a conventional PC-keyed target prediction. */
    std::optional<uint64_t> lookupPc(uint64_t pc);

    /** Look up a JTE by (bank, opcode); the fast-path probe of bop. */
    std::optional<uint64_t> lookupJte(uint8_t bank, uint64_t opcode);

    /** Look up a VBBI hashed entry. */
    std::optional<uint64_t> lookupHashed(uint64_t hashKey);

    /** Insert/refresh a conventional entry (never evicts a JTE). */
    void insertPc(uint64_t pc, uint64_t target);

    /** Insert/refresh a JTE (may evict a B entry; honours the cap). */
    void insertJte(uint8_t bank, uint64_t opcode, uint64_t target);

    /** Insert/refresh a VBBI hashed entry (B-kind placement rules). */
    void insertHashed(uint64_t hashKey, uint64_t target);

    /** Invalidate all JTEs (the jte.flush instruction). */
    void flushJtes();

    /** Invalidate everything. */
    void flushAll();

    /** Number of currently valid JTEs. */
    unsigned jteCount() const { return jteCount_; }

    /** High-water mark of resident JTEs. */
    unsigned jteHighWater() const { return jteHighWater_; }

    /** Times a JTE insertion displaced a valid B entry. */
    uint64_t jteEvictedBranch() const { return jteEvictedBranch_; }

    /** Times a B insertion was dropped because its set was all-JTE. */
    uint64_t branchInsertDropped() const { return branchInsertDropped_; }

    /** Current effective JTE cap (0 = unlimited). */
    unsigned effectiveJteCap() const;

    // ---- inline fast path ------------------------------------------------
    // Behaviourally identical to the hit (refresh) path of insert(); kept
    // in the header so the frontend's insert can inline the common case
    // and only fall out of line on a miss.

    /**
     * Refresh an existing B entry in place (the hit path of insertPc /
     * insertHashed). Returns false, with no state change, when the entry
     * is absent and the out-of-line insert must run.
     */
    bool
    tryRefreshBranchKey(uint64_t key, uint64_t target)
    {
        Entry *base = &entries_[branchSetOf(key) * config_.associativity];
        for (unsigned w = 0; w < config_.associativity; ++w) {
            Entry &e = base[w];
            if (e.valid && e.kind == EntryKind::Branch && e.key == key) {
                e.target = target;
                e.lastUse = ++useClock_;
                return true;
            }
        }
        return false;
    }

    const BtbConfig &config() const { return config_; }

    /**
     * Attach an event-trace buffer for JTE-eviction events. The owner of
     * the cycle stamp (the timing model) shares the same buffer; only
     * SCD_TRACE=ON builds emit anything.
     */
    void setTrace(obs::TraceBuffer *trace) { trace_ = trace; }

    void exportStats(StatGroup &group, const std::string &prefix) const;

  private:
    struct Entry
    {
        uint64_t key = 0;
        uint64_t target = 0;
        uint64_t lastUse = 0;
        EntryKind kind = EntryKind::Branch;
        bool valid = false;
    };

    // B entries index with the word-aligned PC; VBBI keys are pre-hashed.
    unsigned
    branchSetOf(uint64_t key) const
    {
        if (numSets_ == 1)
            return 0;
        return static_cast<unsigned>((key >> 2) & (numSets_ - 1));
    }

    // JTEs index with the opcode, XOR-folded with the branch-ID (bank) so
    // the multi-table extension's entries spread across sets instead of
    // aliasing (a few XOR gates on the index path).
    unsigned
    jteSetOf(uint64_t key) const
    {
        if (numSets_ == 1)
            return 0;
        uint64_t bank = key >> 40;
        return static_cast<unsigned>(((key & 0xFF) ^ (bank * 29)) &
                                     (numSets_ - 1));
    }

    unsigned setOf(EntryKind kind, uint64_t key) const;
    Entry *find(EntryKind kind, uint64_t key, unsigned set);
    std::optional<uint64_t> lookup(EntryKind kind, uint64_t key);
    void insert(EntryKind kind, uint64_t key, uint64_t target);

    /** Compose the tag key for a JTE. */
    static uint64_t
    jteKey(uint8_t bank, uint64_t opcode)
    {
        return opcode | (uint64_t(bank) + 1) << 40;
    }

    BtbConfig config_;
    obs::TraceBuffer *trace_ = nullptr;
    unsigned numSets_;
    std::vector<Entry> entries_;
    std::vector<unsigned> rrNext_;
    uint64_t useClock_ = 0;
    unsigned jteCount_ = 0;
    unsigned jteHighWater_ = 0;
    uint64_t jteEvictedBranch_ = 0;
    uint64_t branchInsertDropped_ = 0;

    // Adaptive-cap state.
    void adaptTick();
    unsigned adaptiveCap_ = 0;  ///< 0 = currently unlimited
    uint64_t epochLookups_ = 0;
    uint64_t epochPressureBase_ = 0; ///< evictions+drops at epoch start
};

} // namespace scd::branch

#endif // SCD_BRANCH_BTB_HH
