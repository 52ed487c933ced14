#include "frontend.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace scd::branch
{

std::string
FrontendConfig::label() const
{
    std::string s = kind == FrontendKind::Ideal ? "ideal" : "mlbtb";
    if (fdip)
        s += "+fdip";
    return s;
}

void
validateFrontendConfig(const FrontendConfig &config, const BtbConfig &btb)
{
    validateBtbConfig(btb);
    if (config.kind == FrontendKind::MultiLevel) {
        if (config.partialTagBits < 1 || config.partialTagBits > 32) {
            fatal("frontend partialTagBits must be in [1, 32], got ",
                  config.partialTagBits);
        }
        if (config.microEntries == 0)
            fatal("frontend microEntries must be at least 1");
        if (config.microEntries > btb.entries) {
            fatal("frontend microEntries (", config.microEntries,
                  ") exceeds the BTB entry count (", btb.entries, ")");
        }
        if (config.mainBanks == 0 || !isPowerOf2(config.mainBanks)) {
            fatal("frontend mainBanks must be a power of two, got ",
                  config.mainBanks);
        }
    }
    if (config.fdip) {
        if (config.ftqDepth == 0)
            fatal("frontend ftqDepth must be at least 1");
        if (config.ftqDepth > btb.entries) {
            fatal("frontend ftqDepth (", config.ftqDepth,
                  ") exceeds the BTB entry count (", btb.entries, ")");
        }
        if (config.ftqTimelyDistance == 0)
            fatal("frontend ftqTimelyDistance must be at least 1");
    }
}

namespace
{

/** The organization @p config selects, FDIP aside. */
template <typename Variant>
Variant
makeBase(const FrontendConfig &config, const BtbConfig &btb)
{
    if (config.kind == FrontendKind::Ideal)
        return Variant(std::in_place_type<IdealBtb>, btb);
    return Variant(std::in_place_type<MultiLevelBtb>, config, btb);
}

Frontend::Organization
makeOrganization(const FrontendConfig &config, const BtbConfig &btb)
{
    validateFrontendConfig(config, btb);
    if (config.fdip) {
        return Frontend::Organization(std::in_place_type<FdipFrontend>,
                                      config, btb);
    }
    return makeBase<Frontend::Organization>(config, btb);
}

} // namespace

Frontend::Frontend(const FrontendConfig &config, const BtbConfig &btb)
    : org_(makeOrganization(config, btb))
{
}

FrontendConfig
frontendFromSpec(const std::string &spec)
{
    FrontendConfig config;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t end = spec.find('+', pos);
        if (end == std::string::npos)
            end = spec.size();
        std::string tok = spec.substr(pos, end - pos);
        // A whole decimal that fits the unsigned field: no sign, no
        // trailing characters, nothing that would wrap on conversion.
        auto numberAfter = [&tok](size_t prefixLen) {
            const char *digits = tok.c_str() + prefixLen;
            char *endp = nullptr;
            errno = 0;
            unsigned long long v = std::strtoull(digits, &endp, 10);
            if (!std::isdigit(static_cast<unsigned char>(*digits)) ||
                *endp != '\0' || errno != 0 || v > UINT_MAX) {
                fatal("bad frontend spec token '", tok,
                      "' (want a decimal number up to ", UINT_MAX, ")");
            }
            return unsigned(v);
        };
        if (tok.empty() || tok == "ideal") {
            config.kind = FrontendKind::Ideal;
        } else if (tok == "mlbtb" || tok == "multilevel") {
            config.kind = FrontendKind::MultiLevel;
        } else if (tok == "fdip") {
            config.fdip = true;
        } else if (tok.rfind("tag", 0) == 0) {
            config.partialTagBits = numberAfter(3);
        } else if (tok.rfind("micro", 0) == 0) {
            config.microEntries = numberAfter(5);
        } else if (tok.rfind("banks", 0) == 0) {
            config.mainBanks = numberAfter(5);
        } else if (tok.rfind("ftq", 0) == 0) {
            config.ftqDepth = numberAfter(3);
        } else if (tok.rfind("dist", 0) == 0) {
            config.ftqTimelyDistance = numberAfter(4);
        } else {
            fatal("unknown frontend spec token '", tok, "' in '", spec,
                  "' (expected ideal|mlbtb|fdip|tagN|microN|banksN|"
                  "ftqN|distN)");
        }
        pos = end + 1;
    }
    return config;
}

// ---------------------------------------------------------------------------
// MultiLevelBtb
// ---------------------------------------------------------------------------

MultiLevelBtb::MultiLevelBtb(const FrontendConfig &config,
                             const BtbConfig &btb)
    : bankMask_(config.mainBanks - 1),
      mainHitBubbles_(config.mainHitBubbles),
      main_(btb, config.partialTagBits)
{
    validateFrontendConfig(config, btb);
    microKey_.resize(config.microEntries);
    microTarget_.resize(config.microEntries);
    microLastUse_.resize(config.microEntries);
    microKind_.resize(config.microEntries, EntryKind::Branch);
}

FrontendProbe
MultiLevelBtb::probe(EntryKind kind, uint64_t key)
{
    ++useClock_;
    unsigned bank = main_.setOf(kind, key) & bankMask_;
    unsigned bubbles = 0;
    // The SCD overlay dual-probes the structure (a bop's JTE probe
    // alongside the next fetch-direction probe); banking keeps that
    // conflict-free only when the consecutive probes land in different
    // banks.
    if (haveLastProbe_ && bank == lastBank_ && kind != lastProbeKind_) {
        ++bankConflicts_;
        ++bubbles;
    }
    haveLastProbe_ = true;
    lastBank_ = bank;
    lastProbeKind_ = kind;

    // Micro-BTB: fully associative, full tags, zero-bubble hits.
    size_t slot = findMicro(kind, key);
    memoValid_ = true;
    memoKind_ = kind;
    memoKey_ = key;
    memoSlot_ = slot;
    if (slot != microKey_.size()) {
        microLastUse_[slot] = useClock_;
        ++microHits_;
        return {microTarget_[slot], false, bubbles};
    }

    // Main BTB: the hardware matches only the folded partial tag, so an
    // aliased entry hits as if it were our own.
    bool falseHit = false;
    std::optional<uint64_t> target = main_.lookup(kind, key, &falseHit);
    if (!target) {
        ++misses_;
        return {std::nullopt, false, bubbles};
    }
    bubbles += mainHitBubbles_;
    if (falseHit) {
        if (kind == EntryKind::Jte)
            ++falseHitsJte_;
        else
            ++falseHitsBranch_;
        return {target, true, bubbles};
    }
    ++mainHits_;
    promote(kind, key, *target);
    return {target, false, bubbles};
}

void
MultiLevelBtb::promote(EntryKind kind, uint64_t key, uint64_t target)
{
    // Invalid slots stamp 0 and valid ones at least 1, so the first
    // minimum is the first invalid slot, else the least recently used.
    // The running minimum stays in a register, so the compiler can pick
    // it with conditional moves: LRU order is data-dependent and a
    // branch on it mispredicts.
    size_t victim = 0;
    uint64_t oldest = microLastUse_[0];
    for (size_t i = 1; i < microLastUse_.size(); ++i) {
        uint64_t stamp = microLastUse_[i];
        bool older = stamp < oldest;
        victim = older ? i : victim;
        oldest = older ? stamp : oldest;
    }
    microKey_[victim] = key;
    microTarget_[victim] = target;
    microLastUse_[victim] = useClock_;
    microKind_[victim] = kind;
    // The victim may have held the memoized key; now it holds this one.
    memoValid_ = true;
    memoKind_ = kind;
    memoKey_ = key;
    memoSlot_ = victim;
}

void
MultiLevelBtb::insert(EntryKind kind, uint64_t key, uint64_t target)
{
    ++useClock_;

    // Keep any promoted micro copy coherent with the new target.
    size_t slot = memoValid_ && memoKey_ == key && memoKind_ == kind
                      ? memoSlot_
                      : findMicro(kind, key);
    if (slot != microKey_.size()) {
        microTarget_[slot] = target;
        microLastUse_[slot] = useClock_;
    }
    main_.insert(kind, key, target);
}

void
MultiLevelBtb::flushJtes()
{
    main_.flushJtes();
    for (size_t i = 0; i < microKind_.size(); ++i) {
        if (microKind_[i] == EntryKind::Jte)
            microLastUse_[i] = 0;
    }
    memoValid_ = false;
}

void
MultiLevelBtb::exportStats(StatGroup &group) const
{
    group.counter("frontend.microHits") = microHits_;
    group.counter("frontend.mainHits") = mainHits_;
    group.counter("frontend.misses") = misses_;
    group.counter("frontend.falseHits.branch") = falseHitsBranch_;
    group.counter("frontend.falseHits.jte") = falseHitsJte_;
    group.counter("frontend.jteAliased") = main_.jteAliased();
    group.counter("frontend.bankConflicts") = bankConflicts_;
    main_.exportStats(group, "btb");
}

// ---------------------------------------------------------------------------
// FdipFrontend
// ---------------------------------------------------------------------------

FdipFrontend::FdipFrontend(const FrontendConfig &config,
                           const BtbConfig &btb)
    : ftqTimelyDistance_(config.ftqTimelyDistance),
      base_(makeBase<Base>(config, btb))
{
    ftqPc_.resize(config.ftqDepth);
    ftqTarget_.resize(config.ftqDepth);
    ftqDiscoveredAt_.resize(config.ftqDepth);
}

FrontendProbe
FdipFrontend::probePc(uint64_t pc)
{
    ++probeClock_;
    FrontendProbe p =
        visitInOrder(base_, [pc](auto &b) { return b.probePc(pc); });
    if (p.target)
        return p;
    // The runahead walker may already have discovered this target; the
    // prefetch only helps when it was issued long enough ago to land.
    for (size_t i = 0; i < ftqFilled_; ++i) {
        if (ftqPc_[i] != pc)
            continue;
        if (probeClock_ - ftqDiscoveredAt_[i] >= ftqTimelyDistance_) {
            ++ftqHits_;
            if (trace_)
                trace_->record(obs::TraceEventKind::FtqPrefetch, pc,
                               ftqTarget_[i]);
            return {ftqTarget_[i], false, p.bubbles};
        }
        ++ftqLate_;
        return p;
    }
    ++ftqMisses_;
    return p;
}

void
FdipFrontend::insertPc(uint64_t pc, uint64_t target)
{
    visitInOrder(base_, [&](auto &b) { b.insertPc(pc, target); });
    for (size_t i = 0; i < ftqFilled_; ++i) {
        if (ftqPc_[i] == pc) {
            // Retrain the target but keep the discovery stamp: the
            // prefetch for this pc is already in flight.
            ftqTarget_[i] = target;
            return;
        }
    }
    ftqPc_[ftqNext_] = pc;
    ftqTarget_[ftqNext_] = target;
    ftqDiscoveredAt_[ftqNext_] = probeClock_;
    if (ftqFilled_ < ftqPc_.size())
        ++ftqFilled_;
    ftqNext_ = (ftqNext_ + 1) % ftqPc_.size();
}

void
FdipFrontend::setTrace(obs::TraceBuffer *trace)
{
    trace_ = trace;
    visitInOrder(base_, [trace](auto &b) { b.setTrace(trace); });
}

void
FdipFrontend::exportStats(StatGroup &group) const
{
    visitInOrder(base_, [&](auto &b) { b.exportStats(group); });
    group.counter("frontend.ftqHits") = ftqHits_;
    group.counter("frontend.ftqLate") = ftqLate_;
    group.counter("frontend.ftqMisses") = ftqMisses_;
}

} // namespace scd::branch
