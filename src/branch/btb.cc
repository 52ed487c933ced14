#include "btb.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace scd::branch
{

void
validateBtbConfig(const BtbConfig &config)
{
    if (config.associativity == 0)
        fatal("BTB associativity must be at least 1");
    if (config.entries == 0)
        fatal("BTB must have at least one entry");
    if (config.entries % config.associativity != 0) {
        fatal("BTB entries (", config.entries,
              ") must be divisible by associativity (",
              config.associativity, ")");
    }
    unsigned sets = config.entries / config.associativity;
    // A fully-associative BTB (rocket config) has one set; otherwise the
    // set count must be a power of two for index extraction.
    if (sets != 1 && !isPowerOf2(sets)) {
        fatal("BTB set count (", sets, " = ", config.entries, "/",
              config.associativity, ") must be a power of two");
    }
    if (config.jteCap > config.entries) {
        fatal("BTB jteCap (", config.jteCap,
              ") exceeds the entry count (", config.entries, ")");
    }
    if (config.adaptiveJteCap && config.adaptEpoch == 0)
        fatal("BTB adaptEpoch must be at least 1 when the cap is adaptive");
}

Btb::Btb(const BtbConfig &config, unsigned partialTagBits)
    : config_(config), tagBits_(partialTagBits)
{
    validateBtbConfig(config);
    if (partialTagBits > 32)
        fatal("BTB partial tag width must be at most 32, got ",
              partialTagBits);
    numSets_ = config.entries / config.associativity;
    entries_.resize(config.entries);
    rrNext_.resize(numSets_, 0);
}

unsigned
Btb::effectiveJteCap() const
{
    if (config_.adaptiveJteCap)
        return adaptiveCap_;
    return config_.jteCap;
}

void
Btb::adaptTick()
{
    if (++epochLookups_ < config_.adaptEpoch)
        return;
    epochLookups_ = 0;
    uint64_t pressure =
        (jteEvictedBranch_ + branchInsertDropped_) - epochPressureBase_;
    epochPressureBase_ = jteEvictedBranch_ + branchInsertDropped_;
    if (pressure > config_.adaptEpoch / 512) {
        // JTEs are displacing live branch entries: tighten the cap.
        unsigned current = adaptiveCap_ ? adaptiveCap_ : jteCount_;
        adaptiveCap_ = std::max(8u, current / 2);
    } else if (pressure == 0 && adaptiveCap_ != 0) {
        // Contention subsided: relax toward unlimited.
        adaptiveCap_ *= 2;
        if (adaptiveCap_ >= config_.entries)
            adaptiveCap_ = 0;
    }
}

void
Btb::insertMiss(EntryKind kind, uint64_t key, uint64_t target, uint32_t tag,
                unsigned set)
{
    Entry *base = &entries_[set * config_.associativity];

    unsigned cap = effectiveJteCap();
    if (kind == EntryKind::Jte && cap != 0 && jteCount_ >= cap) {
        // At the cap a new JTE may only displace another JTE; prefer the
        // least recently used JTE in its set, else drop the insertion.
        Entry *victim = nullptr;
        for (unsigned w = 0; w < config_.associativity; ++w) {
            Entry &e = base[w];
            if (e.valid && e.kind == EntryKind::Jte &&
                (!victim || e.lastUse < victim->lastUse)) {
                victim = &e;
            }
        }
        if (!victim)
            return;
        victim->key = key;
        victim->tag = tag;
        victim->target = target;
        victim->lastUse = useClock_;
        return;
    }

    // Invalid way first.
    for (unsigned w = 0; w < config_.associativity; ++w) {
        Entry &e = base[w];
        if (!e.valid) {
            e = {key, target, useClock_, tag, kind, true};
            if (kind == EntryKind::Jte) {
                ++jteCount_;
                jteHighWater_ = std::max(jteHighWater_, jteCount_);
            }
            return;
        }
    }

    // Pick a victim respecting JTE priority: a B entry may never evict a
    // JTE (paper Section III-B replacement policy).
    Entry *victim = nullptr;
    if (config_.lruReplacement) {
        for (unsigned w = 0; w < config_.associativity; ++w) {
            Entry &e = base[w];
            if (kind == EntryKind::Branch && e.kind == EntryKind::Jte)
                continue;
            if (!victim || e.lastUse < victim->lastUse)
                victim = &e;
        }
    } else {
        unsigned start = rrNext_[set];
        for (unsigned n = 0; n < config_.associativity; ++n) {
            unsigned w = (start + n) % config_.associativity;
            Entry &e = base[w];
            if (kind == EntryKind::Branch && e.kind == EntryKind::Jte)
                continue;
            victim = &e;
            rrNext_[set] = (w + 1) % config_.associativity;
            break;
        }
    }

    if (!victim) {
        // All ways hold JTEs and a B entry wanted in: drop it.
        ++branchInsertDropped_;
        return;
    }

    if (kind == EntryKind::Jte) {
        if (victim->kind == EntryKind::Branch) {
            ++jteEvictedBranch_;
            ++jteCount_;
            jteHighWater_ = std::max(jteHighWater_, jteCount_);
            // arg carries the displaced branch's key (its PC or hash).
            if (trace_)
                trace_->record(obs::TraceEventKind::JteEvict, key,
                               victim->key);
        }
    } else if (victim->kind == EntryKind::Jte) {
        panic("B entry evicting a JTE");
    }
    *victim = {key, target, useClock_, tag, kind, true};
}

void
Btb::traceFalseHit(EntryKind kind, uint64_t key, uint64_t residentKey) const
{
    if (trace_) {
        trace_->record(obs::TraceEventKind::FrontendFalseHit, key,
                       residentKey, 0, kind == EntryKind::Jte ? 1 : 0);
    }
}

void
Btb::flushJtes()
{
    for (Entry &e : entries_) {
        if (e.valid && e.kind == EntryKind::Jte)
            e.valid = false;
    }
    jteCount_ = 0;
}

void
Btb::exportStats(StatGroup &group, const std::string &prefix) const
{
    group.counter(prefix + ".jteHighWater") = jteHighWater_;
    group.counter(prefix + ".jteEvictedBranch") = jteEvictedBranch_;
    group.counter(prefix + ".branchInsertDropped") = branchInsertDropped_;
}

} // namespace scd::branch
