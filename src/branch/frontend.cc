#include "frontend.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace scd::branch
{

FrontendModel::~FrontendModel() = default;

const char *
frontendKindName(FrontendKind kind)
{
    switch (kind) {
      case FrontendKind::Ideal: return "ideal";
      case FrontendKind::MultiLevel: return "multilevel";
    }
    return "?";
}

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
        if (config.mainBanks == 0 || !isPowerOf2(config.mainBanks)) {
            fatal("frontend mainBanks must be a power of two, got ",
                  config.mainBanks);
        }
    }
    if (config.fdip) {
        if (config.ftqDepth == 0)
            fatal("frontend ftqDepth must be at least 1");
        if (config.ftqTimelyDistance == 0)
            fatal("frontend ftqTimelyDistance must be at least 1");
    }
}

std::unique_ptr<FrontendModel>
makeFrontendModel(const FrontendConfig &config, const BtbConfig &btb)
{
    validateFrontendConfig(config, btb);
    std::unique_ptr<FrontendModel> model;
    if (config.kind == FrontendKind::Ideal)
        model = std::make_unique<IdealBtb>(btb);
    else
        model = std::make_unique<MultiLevelBtb>(config, btb);
    if (config.fdip)
        model = std::make_unique<FdipFrontend>(config, std::move(model));
    return model;
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
    : config_(config), main_(btb, config.partialTagBits)
{
    validateFrontendConfig(config, btb);
    micro_.resize(config.microEntries);
}

FrontendProbe
MultiLevelBtb::probe(EntryKind kind, uint64_t key)
{
    ++useClock_;
    unsigned bank = main_.setOf(kind, key) & (config_.mainBanks - 1);
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
    for (MicroEntry &e : micro_) {
        if (e.valid && e.kind == kind && e.key == key) {
            e.lastUse = useClock_;
            ++microHits_;
            return {e.target, false, bubbles};
        }
    }

    // Main BTB: the hardware matches only the folded partial tag, so an
    // aliased entry hits as if it were our own.
    bool falseHit = false;
    std::optional<uint64_t> target = main_.lookup(kind, key, &falseHit);
    if (!target) {
        ++misses_;
        return {std::nullopt, false, bubbles};
    }
    bubbles += config_.mainHitBubbles;
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
    MicroEntry *victim = &micro_[0];
    for (MicroEntry &m : micro_) {
        if (!m.valid) {
            victim = &m;
            break;
        }
        if (m.lastUse < victim->lastUse)
            victim = &m;
    }
    *victim = {key, target, useClock_, kind, true};
}

void
MultiLevelBtb::insert(EntryKind kind, uint64_t key, uint64_t target)
{
    ++useClock_;

    // Keep any promoted micro copy coherent with the new target.
    for (MicroEntry &e : micro_) {
        if (e.valid && e.kind == kind && e.key == key) {
            e.target = target;
            e.lastUse = useClock_;
            break;
        }
    }
    main_.insert(kind, key, target);
}

FrontendProbe
MultiLevelBtb::probePc(uint64_t pc)
{
    main_.tickAdaptiveCap();
    return probe(EntryKind::Branch, pc);
}

void
MultiLevelBtb::insertPc(uint64_t pc, uint64_t target)
{
    insert(EntryKind::Branch, pc, target);
}

FrontendProbe
MultiLevelBtb::probeJte(uint8_t bank, uint64_t opcode)
{
    return probe(EntryKind::Jte, Btb::jteKey(bank, opcode));
}

void
MultiLevelBtb::insertJte(uint8_t bank, uint64_t opcode, uint64_t target)
{
    insert(EntryKind::Jte, Btb::jteKey(bank, opcode), target);
}

void
MultiLevelBtb::flushJtes()
{
    main_.flushJtes();
    for (MicroEntry &e : micro_) {
        if (e.valid && e.kind == EntryKind::Jte)
            e.valid = false;
    }
}

std::optional<uint64_t>
MultiLevelBtb::lookupHashed(uint64_t key)
{
    return probe(EntryKind::Branch, key).target;
}

void
MultiLevelBtb::updateHashed(uint64_t key, uint64_t target)
{
    insert(EntryKind::Branch, key, target);
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
                           std::unique_ptr<FrontendModel> base)
    : config_(config), base_(std::move(base))
{
    ftq_.resize(config.ftqDepth);
}

FrontendProbe
FdipFrontend::probePc(uint64_t pc)
{
    ++probeClock_;
    FrontendProbe p = base_->probePc(pc);
    if (p.target)
        return p;
    // The runahead walker may already have discovered this target; the
    // prefetch only helps when it was issued long enough ago to land.
    for (const FtqEntry &e : ftq_) {
        if (e.valid && e.pc == pc) {
            if (probeClock_ - e.discoveredAt >= config_.ftqTimelyDistance) {
                ++ftqHits_;
                SCD_TRACE_HOOK(trace_, obs::TraceEventKind::FtqPrefetch,
                               pc, e.target);
                return {e.target, false, p.bubbles};
            }
            ++ftqLate_;
            return p;
        }
    }
    ++ftqMisses_;
    return p;
}

void
FdipFrontend::insertPc(uint64_t pc, uint64_t target)
{
    base_->insertPc(pc, target);
    for (FtqEntry &e : ftq_) {
        if (e.valid && e.pc == pc) {
            // Retrain the target but keep the discovery stamp: the
            // prefetch for this pc is already in flight.
            e.target = target;
            return;
        }
    }
    ftq_[ftqNext_] = {pc, target, probeClock_, true};
    ftqNext_ = (ftqNext_ + 1) % ftq_.size();
}

void
FdipFrontend::setTrace(obs::TraceBuffer *trace)
{
    trace_ = trace;
    base_->setTrace(trace);
}

void
FdipFrontend::exportStats(StatGroup &group) const
{
    base_->exportStats(group);
    group.counter("frontend.ftqHits") = ftqHits_;
    group.counter("frontend.ftqLate") = ftqLate_;
    group.counter("frontend.ftqMisses") = ftqMisses_;
}

} // namespace scd::branch
