/**
 * @file
 * Unit tests for the frontend models (branch/frontend.hh): the IdealBtb
 * organization's bit-identity to the raw Btb, the MultiLevelBtb's
 * partial-tag false hits / micro-BTB promotion / bank-conflict model,
 * the FDIP fetch-target queue's timeliness rules, and the spec parser
 * and configuration validation of branch::Frontend.
 */

#include <gtest/gtest.h>

#include <climits>

#include <random>
#include <string>
#include <variant>

#include "branch/btb.hh"
#include "branch/frontend.hh"
#include "common/logging.hh"
#include "common/stats.hh"

namespace
{

using namespace scd::branch;
using scd::FatalError;
using scd::StatGroup;

// ---------------------------------------------------------------------------
// IdealBtb: the organization must be operation-for-operation identical
// to the raw structure it wraps.
// ---------------------------------------------------------------------------

TEST(IdealBtbDifferential, MatchesRawBtbOnRandomOpSequences)
{
    BtbConfig config{64, 2, false, 8};
    Btb raw(config);
    IdealBtb wrapped(config);
    std::mt19937_64 rng(1234);
    for (int n = 0; n < 50000; ++n) {
        uint64_t r = rng();
        uint64_t pc = (r & 0xFFF) << 2;
        uint8_t bank = (r >> 16) & 3;
        uint64_t opcode = (r >> 20) & 0xFF;
        switch (r % 7) {
          case 0: {
            auto a = raw.lookupPc(pc);
            auto b = wrapped.probePc(pc);
            ASSERT_EQ(a, b.target);
            EXPECT_FALSE(b.falseHit);
            EXPECT_EQ(b.bubbles, 0u);
            break;
          }
          case 1:
            raw.insertPc(pc, r);
            wrapped.insertPc(pc, r);
            break;
          case 2: {
            auto a = raw.lookupJte(bank, opcode);
            auto b = wrapped.probeJte(bank, opcode);
            ASSERT_EQ(a, b.target);
            EXPECT_EQ(b.bubbles, 0u);
            break;
          }
          case 3:
            raw.insertJte(bank, opcode, r);
            wrapped.insertJte(bank, opcode, r);
            break;
          case 4: {
            auto a = raw.lookupHashed(r & 0xFFFF);
            auto b = wrapped.lookupHashed(r & 0xFFFF);
            ASSERT_EQ(a, b);
            break;
          }
          case 5: {
            // updateHashed is the raw structure's refresh-or-insert.
            uint64_t key = r & 0xFFFF;
            raw.insertHashed(key, r);
            wrapped.updateHashed(key, r);
            break;
          }
          default:
            if (r % 97 == 0) {
                raw.flushJtes();
                wrapped.flushJtes();
            }
            break;
        }
        ASSERT_EQ(raw.jteCount(), wrapped.jteCount());
    }
    // The exported counters agree too.
    StatGroup a, b;
    raw.exportStats(a, "btb");
    wrapped.exportStats(b);
    EXPECT_EQ(a.all(), b.all());
}

TEST(IdealBtbDifferential, ExposesTheUnderlyingStructure)
{
    // The default configuration selects the ideal organization, and the
    // Frontend port reaches it unchanged.
    Frontend fe(FrontendConfig{}, {256, 2, false, 0});
    ASSERT_NE(std::get_if<IdealBtb>(&fe.organization()), nullptr);
    fe.insertJte(0, 5, 0xBEEF);
    FrontendProbe p = fe.probeJte(0, 5);
    EXPECT_EQ(p.target.value_or(0), 0xBEEFu);
    EXPECT_FALSE(p.falseHit);
    EXPECT_EQ(p.bubbles, 0u);
    EXPECT_EQ(fe.jteCount(), 1u);
}

// ---------------------------------------------------------------------------
// MultiLevelBtb. Geometry used throughout: 64 entries x 2 ways = 32
// sets, 4-bit partial tags. A bank-0 JTE key is opcode | 1<<40, so its
// folded tag is (opcode & 0xF) ^ 0x2 and its set is (opcode ^ 29) & 31:
// opcodes o and o+32 collide on both — guaranteed aliasing.
// ---------------------------------------------------------------------------

FrontendConfig
mlbtbConfig()
{
    FrontendConfig config;
    config.kind = FrontendKind::MultiLevel;
    config.partialTagBits = 4;
    return config;
}

TEST(MultiLevelBtb, PartialTagAliasingProducesFalseJteHits)
{
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    fe.insertJte(0, 10, 0xAAA);

    // The aliasing opcode falsely hits with the victim's target.
    FrontendProbe p = fe.probeJte(0, 42); // 10 + 32
    ASSERT_TRUE(p.target.has_value());
    EXPECT_EQ(*p.target, 0xAAAu);
    EXPECT_TRUE(p.falseHit);

    // Inserting the aliasing opcode overwrites the victim in place (the
    // hardware cannot tell them apart), flipping the false hit around.
    fe.insertJte(0, 42, 0xBBB);
    FrontendProbe back = fe.probeJte(0, 10);
    ASSERT_TRUE(back.target.has_value());
    EXPECT_EQ(*back.target, 0xBBBu);
    EXPECT_TRUE(back.falseHit);

    StatGroup g;
    fe.exportStats(g);
    EXPECT_EQ(g.get("frontend.falseHits.jte"), 2u);
    EXPECT_EQ(g.get("frontend.jteAliased"), 1u);
    // The aliased overwrite reuses the entry: still one resident JTE.
    EXPECT_EQ(fe.jteCount(), 1u);
}

TEST(MultiLevelBtb, PromotedMicroCopySurvivesAnAliasedMainOverwrite)
{
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    fe.insertJte(0, 10, 0xAAA);
    FrontendProbe own = fe.probeJte(0, 10); // true hit: promotes key 10
    ASSERT_TRUE(own.target.has_value());
    EXPECT_FALSE(own.falseHit);

    // The aliasing opcode displaces key 10 from the main BTB, but the
    // micro-BTB's full-tag copy still serves the true owner its exact
    // target — the two-level structure masks some aliasing losses.
    fe.insertJte(0, 42, 0xBBB);
    FrontendProbe after = fe.probeJte(0, 10);
    ASSERT_TRUE(after.target.has_value());
    EXPECT_EQ(*after.target, 0xAAAu);
    EXPECT_FALSE(after.falseHit);
    EXPECT_EQ(after.bubbles, 0u); // micro hit
}

TEST(MultiLevelBtb, FalseHitsAreNeverPromotedToTheMicroBtb)
{
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    fe.insertJte(0, 10, 0xAAA);
    // Repeated false hits must keep paying the main-BTB latency: a buggy
    // promotion of the aliased key would start returning zero-bubble
    // micro hits.
    for (int n = 0; n < 10; ++n) {
        FrontendProbe p = fe.probeJte(0, 42);
        EXPECT_TRUE(p.falseHit);
        EXPECT_GE(p.bubbles, 1u); // always a main-BTB access
    }
}

TEST(MultiLevelBtb, TrueHitsPromoteIntoTheMicroBtb)
{
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    fe.insertJte(0, 10, 0xAAA);
    // First probe: micro miss, main hit (mainHitBubbles = 1) + promote.
    FrontendProbe first = fe.probeJte(0, 10);
    EXPECT_EQ(first.bubbles, 1u);
    // Second probe: micro hit, zero bubbles.
    FrontendProbe second = fe.probeJte(0, 10);
    ASSERT_TRUE(second.target.has_value());
    EXPECT_EQ(*second.target, 0xAAAu);
    EXPECT_EQ(second.bubbles, 0u);

    StatGroup g;
    fe.exportStats(g);
    EXPECT_EQ(g.get("frontend.mainHits"), 1u);
    EXPECT_EQ(g.get("frontend.microHits"), 1u);
}

TEST(MultiLevelBtb, InsertKeepsPromotedMicroCopiesCoherent)
{
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    fe.insertJte(0, 10, 0xAAA);
    fe.probeJte(0, 10);         // promote
    fe.insertJte(0, 10, 0xCCC); // retarget
    FrontendProbe p = fe.probeJte(0, 10); // micro hit must see the update
    ASSERT_TRUE(p.target.has_value());
    EXPECT_EQ(*p.target, 0xCCCu);
    EXPECT_EQ(p.bubbles, 0u);
}

TEST(MultiLevelBtb, FlushJtesClearsBothLevels)
{
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    fe.insertJte(0, 10, 0xAAA);
    fe.insertPc(0x100, 0x1);
    fe.probeJte(0, 10); // promote into the micro-BTB
    fe.flushJtes();
    EXPECT_EQ(fe.jteCount(), 0u);
    EXPECT_FALSE(fe.probeJte(0, 10).target.has_value());
    // B entries survive, as in the single-level structure.
    EXPECT_TRUE(fe.probePc(0x100).target.has_value());
}

TEST(MultiLevelBtb, ConsecutiveCrossKindProbesToOneBankConflict)
{
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    // JTE opcode 29 lands in set (29^29)&31 = 0 (bank 0); pc 0x80 lands
    // in set (0x80>>2)&31 = 0 too. Opposite kinds in the same bank on
    // consecutive probes model the SCD dual-probe port conflict.
    fe.probeJte(0, 29);
    FrontendProbe p = fe.probePc(0x80);
    EXPECT_EQ(p.bubbles, 1u);
    // Same kind again: no conflict.
    FrontendProbe q = fe.probePc(0x80);
    EXPECT_EQ(q.bubbles, 0u);

    StatGroup g;
    fe.exportStats(g);
    EXPECT_EQ(g.get("frontend.bankConflicts"), 1u);
}

TEST(MultiLevelBtb, JtePriorityCarriesOverFromTheSingleLevelDesign)
{
    // Fill one set with JTEs; B inserts into it must drop, and B traffic
    // must never reduce the resident-JTE population.
    MultiLevelBtb fe(mlbtbConfig(), {64, 2, false, 0});
    fe.insertJte(0, 29, 0xA);   // set 0
    fe.insertJte(1, 0x3A, 0xB); // (0x3A ^ 2*29) & 31 = 0: set 0 too
    unsigned resident = fe.jteCount();
    EXPECT_EQ(resident, 2u);
    for (uint64_t pc = 0; pc < 0x4000; pc += 0x80)
        fe.insertPc(pc, pc + 1); // all set 0
    EXPECT_EQ(fe.jteCount(), resident);
    StatGroup g;
    fe.exportStats(g);
    EXPECT_GE(g.get("btb.branchInsertDropped"), 1u);
}

// ---------------------------------------------------------------------------
// FdipFrontend.
// ---------------------------------------------------------------------------

TEST(FdipFrontend, ConvertsBaseMissesIntoTimelyPrefetchHits)
{
    FrontendConfig config;
    config.fdip = true;
    config.ftqDepth = 4;
    config.ftqTimelyDistance = 2;
    // A tiny 4-entry/2-way base BTB: pcs 0x100/0x108/0x110 share set 0,
    // so the third insert evicts the first from the base while the FTQ
    // still remembers it.
    Frontend fe(config, {4, 2, false, 0});
    fe.insertPc(0x100, 0xAAA);
    fe.insertPc(0x108, 0x1);
    fe.insertPc(0x110, 0x2);

    // First probe after the insert: discovered too recently (distance 1
    // < 2) — the prefetch has not landed, still a miss.
    FrontendProbe late = fe.probePc(0x100);
    EXPECT_FALSE(late.target.has_value());

    // By the next probe the prefetch is timely: the base miss converts.
    FrontendProbe timely = fe.probePc(0x100);
    ASSERT_TRUE(timely.target.has_value());
    EXPECT_EQ(*timely.target, 0xAAAu);
    EXPECT_FALSE(timely.falseHit);

    StatGroup g;
    fe.exportStats(g);
    EXPECT_EQ(g.get("frontend.ftqLate"), 1u);
    EXPECT_EQ(g.get("frontend.ftqHits"), 1u);
}

TEST(FdipFrontend, JtePortPassesThroughArchitecturallyUntouched)
{
    FrontendConfig config;
    config.fdip = true;
    Frontend fe(config, {64, 2, false, 0});
    // JTE ops behave exactly as on the base organization: FDIP is a
    // fetch prefetcher and JTE residency is architectural.
    fe.insertJte(2, 7, 0x7777);
    FrontendProbe p = fe.probeJte(2, 7);
    ASSERT_TRUE(p.target.has_value());
    EXPECT_EQ(*p.target, 0x7777u);
    EXPECT_FALSE(p.falseHit);
    EXPECT_EQ(fe.jteCount(), 1u);
    fe.flushJtes();
    EXPECT_EQ(fe.jteCount(), 0u);
    // The queue layers over the ideal base.
    const auto *fdip = std::get_if<FdipFrontend>(&fe.organization());
    ASSERT_NE(fdip, nullptr);
    EXPECT_NE(std::get_if<IdealBtb>(&fdip->base()), nullptr);
}

// ---------------------------------------------------------------------------
// Construction, spec parser, validation.
// ---------------------------------------------------------------------------

TEST(FrontendSpec, ParsesOrganizationsAndParameters)
{
    EXPECT_EQ(frontendFromSpec("ideal").kind, FrontendKind::Ideal);
    EXPECT_EQ(frontendFromSpec("").kind, FrontendKind::Ideal);
    EXPECT_EQ(frontendFromSpec("mlbtb").kind, FrontendKind::MultiLevel);
    EXPECT_EQ(frontendFromSpec("multilevel").kind,
              FrontendKind::MultiLevel);
    EXPECT_FALSE(frontendFromSpec("mlbtb").fdip);
    EXPECT_TRUE(frontendFromSpec("fdip").fdip);
    EXPECT_EQ(frontendFromSpec("fdip").kind, FrontendKind::Ideal);

    FrontendConfig full =
        frontendFromSpec("mlbtb+tag6+micro8+banks2+fdip+ftq4+dist2");
    EXPECT_EQ(full.kind, FrontendKind::MultiLevel);
    EXPECT_TRUE(full.fdip);
    EXPECT_EQ(full.partialTagBits, 6u);
    EXPECT_EQ(full.microEntries, 8u);
    EXPECT_EQ(full.mainBanks, 2u);
    EXPECT_EQ(full.ftqDepth, 4u);
    EXPECT_EQ(full.ftqTimelyDistance, 2u);

    EXPECT_EQ(frontendFromSpec("mlbtb+fdip").label(), "mlbtb+fdip");
    EXPECT_EQ(frontendFromSpec("ideal").label(), "ideal");
}

TEST(FrontendSpec, RejectsUnknownAndMalformedTokens)
{
    EXPECT_THROW(frontendFromSpec("bogus"), FatalError);
    EXPECT_THROW(frontendFromSpec("mlbtb+nope"), FatalError);
    EXPECT_THROW(frontendFromSpec("tagX"), FatalError);
    EXPECT_THROW(frontendFromSpec("mlbtb+tag"), FatalError);
}

TEST(FrontendSpec, RejectsNumbersThatDoNotFitTheField)
{
    // 2^32 + 4 used to wrap to tag4 on the long -> unsigned conversion.
    EXPECT_THROW(frontendFromSpec("mlbtb+tag4294967300"), FatalError);
    EXPECT_THROW(frontendFromSpec("mlbtb+micro99999999999999999999"),
                 FatalError);
    EXPECT_THROW(frontendFromSpec("mlbtb+tag-4"), FatalError);
    EXPECT_THROW(frontendFromSpec("mlbtb+tag 4"), FatalError);
    EXPECT_EQ(frontendFromSpec("mlbtb+ftq4294967295").ftqDepth, UINT_MAX);
}

TEST(FrontendValidation, RejectsUnbuildableConfigurations)
{
    BtbConfig btb{64, 2, false, 0};
    FrontendConfig ml = mlbtbConfig();

    FrontendConfig badTag = ml;
    badTag.partialTagBits = 0;
    EXPECT_THROW(validateFrontendConfig(badTag, btb), FatalError);
    badTag.partialTagBits = 33;
    EXPECT_THROW(validateFrontendConfig(badTag, btb), FatalError);

    FrontendConfig badMicro = ml;
    badMicro.microEntries = 0;
    EXPECT_THROW(validateFrontendConfig(badMicro, btb), FatalError);

    FrontendConfig badBanks = ml;
    badBanks.mainBanks = 3;
    EXPECT_THROW(Frontend(badBanks, btb), FatalError);

    FrontendConfig badFtq;
    badFtq.fdip = true;
    badFtq.ftqDepth = 0;
    EXPECT_THROW(validateFrontendConfig(badFtq, btb), FatalError);
    badFtq.ftqDepth = 16;
    badFtq.ftqTimelyDistance = 0;
    EXPECT_THROW(validateFrontendConfig(badFtq, btb), FatalError);

    // Construction validates the BTB geometry too.
    EXPECT_THROW(Frontend(FrontendConfig{}, {96, 2, false, 0}), FatalError);

    EXPECT_NO_THROW(Frontend(ml, btb));
}

TEST(FrontendValidation, RejectsMicroBtbAndFtqLargerThanTheBtb)
{
    // Both are linear-scan arrays allocated per timing model: a
    // 4000000000-entry micro-BTB used to ask every point for ~128 GB.
    // Validation alone must reject such sizes, allocating nothing.
    BtbConfig btb{64, 2, false, 0};
    FrontendConfig ml = mlbtbConfig();
    ml.microEntries = 64;
    EXPECT_NO_THROW(validateFrontendConfig(ml, btb));
    ml.microEntries = 65;
    EXPECT_THROW(validateFrontendConfig(ml, btb), FatalError);
    ml.microEntries = 4000000000u;
    try {
        validateFrontendConfig(ml, btb);
        ADD_FAILURE() << "a 4e9-entry micro-BTB was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("microEntries"),
                  std::string::npos)
            << e.what();
    }

    FrontendConfig fdip;
    fdip.fdip = true;
    fdip.ftqDepth = 64;
    EXPECT_NO_THROW(validateFrontendConfig(fdip, btb));
    fdip.ftqDepth = 65;
    EXPECT_THROW(validateFrontendConfig(fdip, btb), FatalError);
    fdip.ftqDepth = UINT_MAX;
    try {
        validateFrontendConfig(fdip, btb);
        ADD_FAILURE() << "a UINT_MAX-deep FTQ was accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("ftqDepth"), std::string::npos)
            << e.what();
    }

    // Each bound applies only to the structure the organization builds.
    FrontendConfig ideal;
    ideal.microEntries = 4000000000u;
    ideal.ftqDepth = UINT_MAX;
    EXPECT_NO_THROW(validateFrontendConfig(ideal, btb));
}

TEST(FrontendFactory, BuildsTheRequestedOrganization)
{
    BtbConfig btb{256, 2, false, 0};
    Frontend ideal(frontendFromSpec("ideal"), btb);
    EXPECT_NE(std::get_if<IdealBtb>(&ideal.organization()), nullptr);
    Frontend ml(frontendFromSpec("mlbtb"), btb);
    EXPECT_NE(std::get_if<MultiLevelBtb>(&ml.organization()), nullptr);

    Frontend fdip(frontendFromSpec("mlbtb+fdip"), btb);
    const auto *queue = std::get_if<FdipFrontend>(&fdip.organization());
    ASSERT_NE(queue, nullptr);
    EXPECT_NE(std::get_if<MultiLevelBtb>(&queue->base()), nullptr);

    Frontend fdipIdeal(frontendFromSpec("fdip"), btb);
    queue = std::get_if<FdipFrontend>(&fdipIdeal.organization());
    ASSERT_NE(queue, nullptr);
    EXPECT_NE(std::get_if<IdealBtb>(&queue->base()), nullptr);
}

} // namespace
