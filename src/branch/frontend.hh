/**
 * @file
 * Pluggable frontend models: the branch-target storage the timed
 * pipelines fetch through. The paper evaluates SCD against an idealized
 * single-level BTB; real embedded frontends are multi-level (micro +
 * main BTB with banked sets and partial tags — "Branch Target Buffer
 * Reverse Engineering on Arm") and increasingly decoupled ("Fetch
 * Directed Instruction Prefetching Revisited"). This interface abstracts
 * the organization so the timing models can drive any of them through
 * one port, and the harness can sweep SCD across frontend realism.
 *
 * Three organizations implement it:
 *
 *  - IdealBtb: the paper's single-level structure (src/branch/btb.hh)
 *    behind the interface. Bit-identical to the pre-refactor simulator;
 *    the default everywhere, so every golden figure stays byte-stable.
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

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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

/** Stable lower-case name of @p kind ("ideal", "multilevel"). */
const char *frontendKindName(FrontendKind kind);

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
 * structured message naming the offending field otherwise.
 */
void validateFrontendConfig(const FrontendConfig &config,
                            const BtbConfig &btb);

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

/** Abstract frontend; see the file comment for the contract. */
class FrontendModel
{
  public:
    virtual ~FrontendModel();

    // ---- B-entry (fetch-direction) port ---------------------------------
    virtual FrontendProbe probePc(uint64_t pc) = 0;
    virtual void insertPc(uint64_t pc, uint64_t target) = 0;

    // ---- architectural JTE port -----------------------------------------
    virtual FrontendProbe probeJte(uint8_t bank, uint64_t opcode) = 0;
    virtual void insertJte(uint8_t bank, uint64_t opcode,
                           uint64_t target) = 0;
    virtual void flushJtes() = 0;

    // ---- VBBI hashed port (B-entry placement rules) ---------------------
    // A pure target-value port: organizations report aliased targets
    // through the returned value (a false hit simply predicts wrong), so
    // no FrontendProbe is needed here.
    virtual std::optional<uint64_t> lookupHashed(uint64_t key) = 0;

    /** Refresh-or-insert with the resolved target (VBBI training). */
    virtual void updateHashed(uint64_t key, uint64_t target) = 0;

    /** Currently resident JTEs. */
    virtual unsigned jteCount() const = 0;

    /** The underlying single-level Btb, when the organization is one
     *  (component access for tests and the dedicated-table ablation). */
    virtual Btb *idealBtb() { return nullptr; }

    /** Attach an event-trace buffer (SCD_TRACE=ON builds only). */
    virtual void setTrace(obs::TraceBuffer *) {}

    /** Fold the organization's counters into @p group. The ideal
     *  organization exports exactly the pre-refactor "btb.*" counters;
     *  the others add "frontend.*" counters on top. */
    virtual void exportStats(StatGroup &group) const = 0;
};

/** Build the frontend organization selected by @p config over a BTB of
 *  @p btb geometry. Validates both configurations. */
std::unique_ptr<FrontendModel> makeFrontendModel(
    const FrontendConfig &config, const BtbConfig &btb);

/**
 * Parse a '+'-separated frontend spec into a configuration, e.g.
 * "ideal", "mlbtb", "mlbtb+fdip", "fdip" (ideal base), or with
 * parameter tokens: "mlbtb+tag6+micro8+banks2+fdip". Throws FatalError
 * on an unknown token.
 */
FrontendConfig frontendFromSpec(const std::string &spec);

// ---------------------------------------------------------------------------
// Organizations. Concrete types are exposed (not only the factory) so
// unit tests can drive organization-specific behaviour directly.
// ---------------------------------------------------------------------------

/** The paper's single-level BTB behind the interface; bit-identical
 *  delegation to branch::Btb. */
class IdealBtb final : public FrontendModel
{
  public:
    explicit IdealBtb(const BtbConfig &config) : btb_(config) {}

    FrontendProbe
    probePc(uint64_t pc) override
    {
        return {btb_.lookupPc(pc), false, 0};
    }

    void insertPc(uint64_t pc, uint64_t target) override
    {
        btb_.insertPc(pc, target);
    }

    FrontendProbe
    probeJte(uint8_t bank, uint64_t opcode) override
    {
        return {btb_.lookupJte(bank, opcode), false, 0};
    }

    void insertJte(uint8_t bank, uint64_t opcode, uint64_t target) override
    {
        btb_.insertJte(bank, opcode, target);
    }

    void flushJtes() override { btb_.flushJtes(); }

    std::optional<uint64_t>
    lookupHashed(uint64_t key) override
    {
        return btb_.lookupHashed(key);
    }

    void
    updateHashed(uint64_t key, uint64_t target) override
    {
        // Refresh in place, else insert: the same operations as
        // insertHashed, with the hit path inlined.
        if (!btb_.tryRefreshBranchKey(key, target))
            btb_.insertHashed(key, target);
    }

    unsigned jteCount() const override { return btb_.jteCount(); }
    Btb *idealBtb() override { return &btb_; }
    void setTrace(obs::TraceBuffer *trace) override { btb_.setTrace(trace); }

    void
    exportStats(StatGroup &group) const override
    {
        btb_.exportStats(group, "btb");
    }

  private:
    Btb btb_;
};

/**
 * Micro-BTB + banked partial-tag main BTB; see the file comment. The main
 * array is a branch::Btb with partial tags, so the JTE-overlay policy
 * (priority, cap, adaptive cap, flush) is the single-level one.
 */
class MultiLevelBtb final : public FrontendModel
{
  public:
    MultiLevelBtb(const FrontendConfig &config, const BtbConfig &btb);

    FrontendProbe probePc(uint64_t pc) override;
    void insertPc(uint64_t pc, uint64_t target) override;
    FrontendProbe probeJte(uint8_t bank, uint64_t opcode) override;
    void insertJte(uint8_t bank, uint64_t opcode, uint64_t target) override;
    void flushJtes() override;
    std::optional<uint64_t> lookupHashed(uint64_t key) override;
    void updateHashed(uint64_t key, uint64_t target) override;
    unsigned jteCount() const override { return main_.jteCount(); }
    void setTrace(obs::TraceBuffer *trace) override { main_.setTrace(trace); }
    void exportStats(StatGroup &group) const override;

  private:
    struct MicroEntry
    {
        uint64_t key = 0;
        uint64_t target = 0;
        uint64_t lastUse = 0;
        EntryKind kind = EntryKind::Branch;
        bool valid = false;
    };

    /** Probe micro then main; shared by probePc/probeJte/lookupHashed. */
    FrontendProbe probe(EntryKind kind, uint64_t key);
    /** Insert/refresh in the main BTB, keeping micro copies coherent. */
    void insert(EntryKind kind, uint64_t key, uint64_t target);
    /** Promote a truly-hit main entry into the micro-BTB. */
    void promote(EntryKind kind, uint64_t key, uint64_t target);

    FrontendConfig config_;
    Btb main_;                      ///< partial tags, numSets x ways
    std::vector<MicroEntry> micro_; ///< fully associative, full tags
    uint64_t useClock_ = 0;         ///< micro-BTB LRU stamps

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
class FdipFrontend final : public FrontendModel
{
  public:
    FdipFrontend(const FrontendConfig &config,
                 std::unique_ptr<FrontendModel> base);

    FrontendProbe probePc(uint64_t pc) override;
    void insertPc(uint64_t pc, uint64_t target) override;

    // The architectural JTE port passes through untouched: FDIP is a
    // fetch-stream prefetcher, and JTE residency is architectural.
    FrontendProbe
    probeJte(uint8_t bank, uint64_t opcode) override
    {
        return base_->probeJte(bank, opcode);
    }

    void
    insertJte(uint8_t bank, uint64_t opcode, uint64_t target) override
    {
        base_->insertJte(bank, opcode, target);
    }

    void flushJtes() override { base_->flushJtes(); }

    std::optional<uint64_t>
    lookupHashed(uint64_t key) override
    {
        return base_->lookupHashed(key);
    }

    void
    updateHashed(uint64_t key, uint64_t target) override
    {
        base_->updateHashed(key, target);
    }

    unsigned jteCount() const override { return base_->jteCount(); }
    Btb *idealBtb() override { return base_->idealBtb(); }
    void setTrace(obs::TraceBuffer *trace) override;
    void exportStats(StatGroup &group) const override;

  private:
    struct FtqEntry
    {
        uint64_t pc = 0;
        uint64_t target = 0;
        uint64_t discoveredAt = 0; ///< probe clock at insertion
        bool valid = false;
    };

    FrontendConfig config_;
    std::unique_ptr<FrontendModel> base_;
    obs::TraceBuffer *trace_ = nullptr;
    std::vector<FtqEntry> ftq_;
    size_t ftqNext_ = 0;
    uint64_t probeClock_ = 0;

    uint64_t ftqHits_ = 0;  ///< base miss converted into a prefetch hit
    uint64_t ftqLate_ = 0;  ///< discovered, but too recently to be timely
    uint64_t ftqMisses_ = 0;
};

} // namespace scd::branch

#endif // SCD_BRANCH_FRONTEND_HH
