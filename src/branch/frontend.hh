/**
 * @file
 * Frontend models: the branch-target storage the timed pipelines fetch
 * through. The paper evaluates SCD against an idealized single-level BTB;
 * real embedded frontends are multi-level (micro + main BTB with banked
 * sets and partial tags — "Branch Target Buffer Reverse Engineering on
 * Arm") and increasingly decoupled ("Fetch Directed Instruction
 * Prefetching Revisited"). branch::Frontend is one concrete value over the
 * closed set of organizations below, so the timing models drive any of
 * them through one port with no virtual call, and the harness can sweep
 * SCD across frontend realism. Its ports test the ideal organization
 * first, so the default machines pay one well-predicted branch per probe.
 *
 * The organizations:
 *
 *  - IdealBtb: the paper's single-level structure (src/branch/btb.hh).
 *    Bit-identical to the pre-refactor simulator; the default everywhere,
 *    so every golden figure stays byte-stable.
 *
 *  - MultiLevelBtb: a small fully-associative full-tag micro-BTB backed
 *    by a banked, set-associative main BTB with XOR-folded partial tags.
 *    Partial tags can *falsely hit*: a probe whose folded tag matches a
 *    resident entry of a different full key returns that entry's target
 *    as if it were its own. For B entries this is a wrong-target fetch
 *    corrected like a misprediction; for JTEs it dispatches to a
 *    wrong-but-architecturally-recovered target (the timing model
 *    converts it to a slow-path dispatch plus a resteer penalty) — the
 *    failure mode the paper never models. Aliasing also displaces JTEs
 *    on insertion (an aliased insert overwrites in place).
 *
 *  - FdipFrontend: a decoupled fetch-target-queue prefetcher layered
 *    over either organization. The runahead walker remembers recently
 *    resolved taken branches; a base-BTB miss whose target the FTQ
 *    already discovered (and had time to prefetch) is converted into a
 *    hit. Purely timing-side: the architectural JTE port passes through
 *    unchanged, so retire streams are identical with and without FDIP.
 *
 * False-hit semantics and the architectural contract: JTE residency is
 * architecturally visible (it decides which instructions retire), so a
 * frontend changes the retire stream only through *true* JTE hits and
 * misses. A false JTE hit is reported via FrontendProbe::falseHit and
 * must be treated as a miss architecturally (the slow dispatch path
 * retires); only its resteer penalty is timing. This is what keeps the
 * execute-once/time-many replay engine valid for every organization:
 * replay members perform the same real probes against their own frontend
 * that direct execution performs mid-instruction.
 */

#ifndef SCD_BRANCH_FRONTEND_HH
#define SCD_BRANCH_FRONTEND_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "btb.hh"
#include "common/stats.hh"
#include "obs/trace.hh"

namespace scd::branch
{

/** Which frontend organization a core fetches through. */
enum class FrontendKind : uint8_t
{
    Ideal,      ///< single-level full-tag BTB (the paper's model)
    MultiLevel, ///< micro-BTB + banked partial-tag main BTB
};

/** Frontend organization and policy configuration. */
struct FrontendConfig
{
    FrontendKind kind = FrontendKind::Ideal;

    /** Layer the FDIP fetch-target-queue prefetcher over the BTB. */
    bool fdip = false;

    // --- MultiLevel parameters -------------------------------------------
    unsigned microEntries = 16;   ///< fully-associative micro-BTB slots
    unsigned mainBanks = 4;       ///< main-BTB banks (sets interleaved)
    unsigned partialTagBits = 10; ///< XOR-folded main-BTB tag width
    unsigned mainHitBubbles = 1;  ///< micro-miss/main-hit fetch bubbles

    // --- FDIP parameters --------------------------------------------------
    unsigned ftqDepth = 16;          ///< fetch-target-queue entries
    unsigned ftqTimelyDistance = 8;  ///< probes before a prefetch lands

    /** Short label for machine names and sweep columns ("ideal",
     *  "mlbtb", "mlbtb+fdip", ...). */
    std::string label() const;
};

/**
 * Validate @p config against @p btb geometry; throws FatalError with a
 * structured message naming the offending field otherwise. The micro-BTB
 * and the FTQ are linear-scan arrays, so neither may outgrow the BTB.
 */
void validateFrontendConfig(const FrontendConfig &config,
                            const BtbConfig &btb);

/**
 * Parse a '+'-separated frontend spec into a configuration, e.g.
 * "ideal", "mlbtb", "mlbtb+fdip", "fdip" (ideal base), or with
 * parameter tokens: "mlbtb+tag6+micro8+banks2+fdip". Throws FatalError
 * on an unknown token.
 */
FrontendConfig frontendFromSpec(const std::string &spec);

/** Result of one frontend probe. */
struct FrontendProbe
{
    /** Predicted target; nullopt on a miss. */
    std::optional<uint64_t> target;

    /**
     * The hit is a partial-tag alias: @ref target belongs to a different
     * full key. The timing model treats a false B hit as a wrong-target
     * fetch and a false JTE hit as a slow-path dispatch plus a resteer.
     */
    bool falseHit = false;

    /** Extra fetch bubbles this probe costs (main-BTB hit latency,
     *  bank conflicts). Zero for the ideal organization. */
    unsigned bubbles = 0;
};

/**
 * Call @p f on the active alternative of @p org, testing the alternatives
 * in declaration order with get_if (the ideal BTB comes first in both
 * organization variants). The last alternative is taken unchecked.
 * Always inlined: left to its own heuristics GCC keeps the probe
 * dispatch out of line, which costs the ideal BTB a call per probe that
 * the raw structure does not pay.
 */
template <size_t I = 0, typename Variant, typename F>
[[gnu::always_inline]] inline decltype(auto)
visitInOrder(Variant &org, F &&f)
{
    if constexpr (I + 1 ==
                  std::variant_size_v<std::remove_const_t<Variant>>) {
        return f(*std::get_if<I>(&org));
    } else {
        if (auto *alt = std::get_if<I>(&org))
            return f(*alt);
        return visitInOrder<I + 1>(org, std::forward<F>(f));
    }
}

// ---------------------------------------------------------------------------
// Organizations. Each is a plain value type with the same port methods;
// Frontend holds exactly one of them. They are exposed so unit tests can
// drive organization-specific behaviour directly.
// ---------------------------------------------------------------------------

/** The paper's single-level BTB as a frontend organization: a direct
 *  delegation to branch::Btb. */
class IdealBtb
{
  public:
    explicit IdealBtb(const BtbConfig &config) : btb_(config) {}

    FrontendProbe probePc(uint64_t pc) { return {btb_.lookupPc(pc), false, 0}; }
    void insertPc(uint64_t pc, uint64_t target) { btb_.insertPc(pc, target); }

    FrontendProbe
    probeJte(uint8_t bank, uint64_t opcode)
    {
        return {btb_.lookupJte(bank, opcode), false, 0};
    }

    void
    insertJte(uint8_t bank, uint64_t opcode, uint64_t target)
    {
        btb_.insertJte(bank, opcode, target);
    }

    void flushJtes() { btb_.flushJtes(); }

    std::optional<uint64_t>
    lookupHashed(uint64_t key)
    {
        return btb_.lookupHashed(key);
    }

    void
    updateHashed(uint64_t key, uint64_t target)
    {
        btb_.insertHashed(key, target);
    }

    unsigned jteCount() const { return btb_.jteCount(); }
    void setTrace(obs::TraceBuffer *trace) { btb_.setTrace(trace); }
    void exportStats(StatGroup &group) const { btb_.exportStats(group, "btb"); }

  private:
    Btb btb_;
};

/**
 * Micro-BTB + banked partial-tag main BTB; see the file comment. The main
 * array is a branch::Btb with partial tags, so the JTE-overlay policy
 * (priority, cap, adaptive cap, flush) is the single-level one.
 */
class MultiLevelBtb
{
  public:
    MultiLevelBtb(const FrontendConfig &config, const BtbConfig &btb);

    FrontendProbe
    probePc(uint64_t pc)
    {
        main_.tickAdaptiveCap();
        return probe(EntryKind::Branch, pc);
    }

    void
    insertPc(uint64_t pc, uint64_t target)
    {
        insert(EntryKind::Branch, pc, target);
    }

    FrontendProbe
    probeJte(uint8_t bank, uint64_t opcode)
    {
        return probe(EntryKind::Jte, Btb::jteKey(bank, opcode));
    }

    void
    insertJte(uint8_t bank, uint64_t opcode, uint64_t target)
    {
        insert(EntryKind::Jte, Btb::jteKey(bank, opcode), target);
    }

    void flushJtes();

    std::optional<uint64_t>
    lookupHashed(uint64_t key)
    {
        return probe(EntryKind::Branch, key).target;
    }

    void
    updateHashed(uint64_t key, uint64_t target)
    {
        insert(EntryKind::Branch, key, target);
    }

    unsigned jteCount() const { return main_.jteCount(); }
    void setTrace(obs::TraceBuffer *trace) { main_.setTrace(trace); }
    void exportStats(StatGroup &group) const;

  private:
    /** Probe micro then main; shared by probePc/probeJte/lookupHashed. */
    FrontendProbe probe(EntryKind kind, uint64_t key);
    /** Insert/refresh in the main BTB, keeping micro copies coherent. */
    void insert(EntryKind kind, uint64_t key, uint64_t target);
    /** Promote a truly-hit main entry into the micro-BTB. */
    void promote(EntryKind kind, uint64_t key, uint64_t target);

    /** Slot of the valid micro entry holding (@p kind, @p key), or
     *  microKey_.size() when there is none. */
    size_t
    findMicro(EntryKind kind, uint64_t key) const
    {
        size_t n = microKey_.size();
        for (size_t i = 0; i < n; ++i) {
            if (microKey_[i] == key && microLastUse_[i] != 0 &&
                microKind_[i] == kind) {
                return i;
            }
        }
        return n;
    }

    unsigned bankMask_;       ///< mainBanks - 1
    unsigned mainHitBubbles_;
    Btb main_;                ///< partial tags, numSets x ways

    // Micro-BTB: fully associative, full tags, one flat array per field
    // so a probe scans contiguous keys. A slot is valid iff its lastUse
    // stamp is nonzero (the use clock advances before every stamp), so
    // the LRU victim — the first invalid slot, else the lowest stamp with
    // the first one winning ties — is the first minimum stamp.
    std::vector<uint64_t> microKey_;
    std::vector<uint64_t> microTarget_;
    std::vector<uint64_t> microLastUse_;
    std::vector<EntryKind> microKind_;
    uint64_t useClock_ = 0; ///< micro-BTB LRU stamps

    // What the last probe learned of the micro-BTB: the slot holding
    // (memoKind_, memoKey_), or microKey_.size() when it holds none. Only
    // a promote and a flush change which keys the micro-BTB holds; probe
    // rewrites the memo (promote runs inside it) and flushJtes clears it,
    // so an insert of the key just probed — every taken branch's — skips
    // the scan.
    bool memoValid_ = false;
    EntryKind memoKind_ = EntryKind::Branch;
    uint64_t memoKey_ = 0;
    size_t memoSlot_ = 0;

    // Bank-conflict model: the SCD overlay dual-probes the structure (a
    // bop's JTE probe alongside the fetch-direction probe); banking makes
    // that conflict-free only when the two probes land in different
    // banks. Consecutive probes of different kinds hitting the same bank
    // cost one bubble.
    unsigned lastBank_ = ~0u;
    EntryKind lastProbeKind_ = EntryKind::Branch;
    bool haveLastProbe_ = false;

    // Statistics.
    uint64_t microHits_ = 0;
    uint64_t mainHits_ = 0;
    uint64_t misses_ = 0;
    uint64_t falseHitsBranch_ = 0;
    uint64_t falseHitsJte_ = 0;
    uint64_t bankConflicts_ = 0;
};

/** Decoupled fetch-target-queue prefetcher over another organization. */
class FdipFrontend
{
  public:
    /** The organizations FDIP layers over. */
    using Base = std::variant<IdealBtb, MultiLevelBtb>;

    /** FDIP over the base organization @p config.kind selects. */
    FdipFrontend(const FrontendConfig &config, const BtbConfig &btb);

    FrontendProbe probePc(uint64_t pc);
    void insertPc(uint64_t pc, uint64_t target);

    // The architectural JTE port passes through untouched: FDIP is a
    // fetch-stream prefetcher, and JTE residency is architectural.
    FrontendProbe
    probeJte(uint8_t bank, uint64_t opcode)
    {
        return visitInOrder(base_,
                            [&](auto &b) { return b.probeJte(bank, opcode); });
    }

    void
    insertJte(uint8_t bank, uint64_t opcode, uint64_t target)
    {
        visitInOrder(base_,
                     [&](auto &b) { b.insertJte(bank, opcode, target); });
    }

    void flushJtes() { visitInOrder(base_, [](auto &b) { b.flushJtes(); }); }

    std::optional<uint64_t>
    lookupHashed(uint64_t key)
    {
        return visitInOrder(base_,
                            [&](auto &b) { return b.lookupHashed(key); });
    }

    void
    updateHashed(uint64_t key, uint64_t target)
    {
        visitInOrder(base_, [&](auto &b) { b.updateHashed(key, target); });
    }

    unsigned
    jteCount() const
    {
        return visitInOrder(base_, [](auto &b) { return b.jteCount(); });
    }

    void setTrace(obs::TraceBuffer *trace);
    void exportStats(StatGroup &group) const;

    /** The organization under the queue (for tests). */
    const Base &base() const { return base_; }

  private:
    unsigned ftqTimelyDistance_;
    Base base_;
    obs::TraceBuffer *trace_ = nullptr;

    // The fetch target queue, one flat array per field. Slots fill round
    // robin from 0 and are never invalidated, so exactly the first
    // ftqFilled_ slots are valid, and no pc is ever queued twice.
    std::vector<uint64_t> ftqPc_;
    std::vector<uint64_t> ftqTarget_;
    std::vector<uint64_t> ftqDiscoveredAt_; ///< probe clock at insertion
    size_t ftqFilled_ = 0;
    size_t ftqNext_ = 0;
    uint64_t probeClock_ = 0;

    uint64_t ftqHits_ = 0;  ///< base miss converted into a prefetch hit
    uint64_t ftqLate_ = 0;  ///< discovered, but too recently to be timely
    uint64_t ftqMisses_ = 0;
};

/**
 * The frontend a timing model fetches through: one value over the closed
 * set of organizations, with non-virtual ports that test the ideal BTB
 * first. See the file comment for the contract.
 */
class Frontend
{
  public:
    using Organization = std::variant<IdealBtb, MultiLevelBtb, FdipFrontend>;

    /** Build the organization @p config selects over a BTB of @p btb
     *  geometry; throws FatalError when either configuration is bad. */
    Frontend(const FrontendConfig &config, const BtbConfig &btb);

    // ---- B-entry (fetch-direction) port ---------------------------------
    FrontendProbe
    probePc(uint64_t pc)
    {
        return visitInOrder(org_, [&](auto &o) { return o.probePc(pc); });
    }

    void
    insertPc(uint64_t pc, uint64_t target)
    {
        visitInOrder(org_, [&](auto &o) { o.insertPc(pc, target); });
    }

    // ---- architectural JTE port -----------------------------------------
    FrontendProbe
    probeJte(uint8_t bank, uint64_t opcode)
    {
        return visitInOrder(org_,
                            [&](auto &o) { return o.probeJte(bank, opcode); });
    }

    void
    insertJte(uint8_t bank, uint64_t opcode, uint64_t target)
    {
        visitInOrder(org_,
                     [&](auto &o) { o.insertJte(bank, opcode, target); });
    }

    void flushJtes() { visitInOrder(org_, [](auto &o) { o.flushJtes(); }); }

    // ---- VBBI hashed port (B-entry placement rules) ---------------------
    // A pure target-value port: organizations report aliased targets
    // through the returned value (a false hit simply predicts wrong), so
    // no FrontendProbe is needed here.
    std::optional<uint64_t>
    lookupHashed(uint64_t key)
    {
        return visitInOrder(org_,
                            [&](auto &o) { return o.lookupHashed(key); });
    }

    /** Refresh-or-insert with the resolved target (VBBI training). */
    void
    updateHashed(uint64_t key, uint64_t target)
    {
        visitInOrder(org_, [&](auto &o) { o.updateHashed(key, target); });
    }

    /** Currently resident JTEs. */
    unsigned
    jteCount() const
    {
        return visitInOrder(org_, [](auto &o) { return o.jteCount(); });
    }

    /** Attach an event-trace buffer (nullptr detaches it). */
    void
    setTrace(obs::TraceBuffer *trace)
    {
        visitInOrder(org_, [&](auto &o) { o.setTrace(trace); });
    }

    /** Fold the organization's counters into @p group. The ideal
     *  organization exports exactly the pre-refactor "btb.*" counters;
     *  the others add "frontend.*" counters on top. */
    void
    exportStats(StatGroup &group) const
    {
        visitInOrder(org_, [&](auto &o) { o.exportStats(group); });
    }

    /** The configured organization (for tests). */
    const Organization &organization() const { return org_; }

  private:
    Organization org_;
};

} // namespace scd::branch

#endif // SCD_BRANCH_FRONTEND_HH
