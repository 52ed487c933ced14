/**
 * @file
 * Unit and property tests for the branch-prediction substrate: the BTB
 * with the JTE overlay (replacement priority, cap, flush semantics), the
 * direction predictors, the return address stack, and VBBI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "branch/btb.hh"
#include "branch/direction.hh"
#include "branch/vbbi.hh"
#include "common/logging.hh"

namespace
{

using namespace scd::branch;

TEST(Btb, PcLookupMissThenHit)
{
    Btb btb({256, 2, false, 0});
    EXPECT_FALSE(btb.lookupPc(0x1000).has_value());
    btb.insertPc(0x1000, 0x2000);
    auto hit = btb.lookupPc(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0x2000u);
}

TEST(Btb, JteAndPcEntriesDoNotAlias)
{
    Btb btb({256, 2, false, 0});
    btb.insertPc(0x40, 0x1111);
    btb.insertJte(0, 0x40 >> 2, 0x2222); // same set-index neighbourhood
    EXPECT_EQ(btb.lookupPc(0x40).value_or(0), 0x1111u);
    EXPECT_EQ(btb.lookupJte(0, 0x40 >> 2).value_or(0), 0x2222u);
}

TEST(Btb, JteBanksAreIndependent)
{
    Btb btb({256, 2, false, 0});
    btb.insertJte(0, 7, 0xA);
    btb.insertJte(1, 7, 0xB);
    EXPECT_EQ(btb.lookupJte(0, 7).value_or(0), 0xAu);
    EXPECT_EQ(btb.lookupJte(1, 7).value_or(0), 0xBu);
    EXPECT_EQ(btb.jteCount(), 2u);
}

TEST(Btb, JteEvictsBranchButNeverViceVersa)
{
    // 1 set x 2 ways: fill with two B entries, insert a JTE (must evict a
    // B), then hammer B inserts (must never displace the JTE).
    Btb btb({2, 2, false, 0});
    btb.insertPc(0x10, 1);
    btb.insertPc(0x20, 2);
    btb.insertJte(0, 5, 0xBEEF);
    EXPECT_EQ(btb.jteEvictedBranch(), 1u);
    EXPECT_EQ(btb.jteCount(), 1u);
    for (uint64_t pc = 0x100; pc < 0x400; pc += 4)
        btb.insertPc(pc, pc + 1);
    EXPECT_EQ(btb.lookupJte(0, 5).value_or(0), 0xBEEFu);
}

TEST(Btb, AllJteSetDropsBranchInserts)
{
    Btb btb({2, 2, false, 0});
    btb.insertJte(0, 1, 0xA);
    btb.insertJte(0, 2, 0xB);
    EXPECT_EQ(btb.jteCount(), 2u);
    btb.insertPc(0x10, 1);
    EXPECT_GE(btb.branchInsertDropped(), 1u);
    EXPECT_EQ(btb.lookupJte(0, 1).value_or(0), 0xAu);
    EXPECT_EQ(btb.lookupJte(0, 2).value_or(0), 0xBu);
}

TEST(Btb, FlushJtesKeepsBranchEntries)
{
    Btb btb({64, 2, false, 0});
    btb.insertPc(0x100, 0x1);
    btb.insertJte(0, 3, 0x2);
    btb.flushJtes();
    EXPECT_EQ(btb.jteCount(), 0u);
    EXPECT_FALSE(btb.lookupJte(0, 3).has_value());
    EXPECT_TRUE(btb.lookupPc(0x100).has_value());
}

TEST(BtbProperty, JteCapIsNeverExceeded)
{
    std::mt19937_64 rng(42);
    for (unsigned cap : {4u, 8u, 16u}) {
        Btb btb({64, 2, false, cap});
        for (int n = 0; n < 20000; ++n) {
            switch (rng() % 4) {
              case 0:
                btb.insertJte(rng() % 4, rng() % 229, rng());
                break;
              case 1:
                btb.insertPc((rng() % 4096) * 4, rng());
                break;
              case 2:
                btb.lookupJte(rng() % 4, rng() % 229);
                break;
              default:
                btb.lookupPc((rng() % 4096) * 4);
                break;
            }
            ASSERT_LE(btb.jteCount(), cap);
        }
        EXPECT_LE(btb.jteHighWater(), cap);
    }
}

TEST(BtbProperty, SingleBankJtesSurviveArbitraryBranchTraffic)
{
    // Within one bank each opcode gets its own set in a 1024-entry BTB,
    // and B traffic may never displace a JTE: lookups always hit.
    Btb btb({1024, 2, false, 0});
    std::mt19937_64 rng(7);
    std::map<uint64_t, uint64_t> model;
    for (int n = 0; n < 5000; ++n) {
        uint64_t opcode = rng() % 229;
        uint64_t target = rng();
        btb.insertJte(0, opcode, target);
        model[opcode] = target;
        // Interleave plenty of B traffic.
        btb.insertPc((rng() % 65536) * 4, rng());
    }
    for (const auto &kv : model) {
        auto hit = btb.lookupJte(0, kv.first);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(*hit, kv.second);
    }
    btb.flushJtes();
    for (const auto &kv : model)
        EXPECT_FALSE(btb.lookupJte(0, kv.first).has_value());
}

TEST(BtbProperty, BranchTrafficNeverReducesJteCount)
{
    // Multi-bank JTEs may evict each other, but B inserts never reduce
    // the resident-JTE population.
    Btb btb({64, 2, false, 0});
    std::mt19937_64 rng(11);
    for (int n = 0; n < 300; ++n)
        btb.insertJte(rng() % 4, rng() % 229, rng());
    unsigned resident = btb.jteCount();
    for (int n = 0; n < 50000; ++n)
        btb.insertPc((rng() % 65536) * 4, rng());
    EXPECT_EQ(btb.jteCount(), resident);
}

TEST(Direction, GshareLearnsBias)
{
    GsharePredictor pred(128);
    for (int n = 0; n < 200; ++n)
        pred.update(0x1000, true);
    EXPECT_TRUE(pred.predict(0x1000));
    for (int n = 0; n < 200; ++n)
        pred.update(0x1000, false);
    EXPECT_FALSE(pred.predict(0x1000));
}

TEST(Direction, TournamentLearnsAlternatingPattern)
{
    // Local history captures strict alternation after warmup.
    TournamentPredictor pred(512, 128);
    bool taken = false;
    int correct = 0;
    for (int n = 0; n < 2000; ++n) {
        taken = !taken;
        if (n > 500 && pred.predict(0x2000) == taken)
            ++correct;
        pred.update(0x2000, taken);
    }
    EXPECT_GT(correct, 1400); // > ~93% after warmup
}

TEST(Direction, TournamentLearnsLoopExitPattern)
{
    // taken x7 then not-taken, repeatedly (inner loop of 8 iterations).
    TournamentPredictor pred(512, 128);
    int correct = 0, total = 0;
    for (int round = 0; round < 400; ++round) {
        for (int n = 0; n < 8; ++n) {
            bool taken = n != 7;
            if (round > 100) {
                ++total;
                if (pred.predict(0x3000) == taken)
                    ++correct;
            }
            pred.update(0x3000, taken);
        }
    }
    EXPECT_GT(double(correct) / total, 0.85);
}

TEST(Ras, PushPopNesting)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    ras.push(0x400);
    EXPECT_EQ(ras.pop(), 0x400u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u); // empty
}

TEST(Ras, OverflowWrapsKeepingNewest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites the oldest
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
}

TEST(BtbConfigValidation, RejectsBadGeometry)
{
    using scd::FatalError;
    EXPECT_THROW(validateBtbConfig({256, 0, false, 0}), FatalError);
    EXPECT_THROW(validateBtbConfig({0, 2, false, 0}), FatalError);
    // Entries not divisible by associativity.
    EXPECT_THROW(validateBtbConfig({100, 3, false, 0}), FatalError);
    // 96/2 = 48 sets: not a power of two.
    EXPECT_THROW(validateBtbConfig({96, 2, false, 0}), FatalError);
    // Cap larger than the whole structure.
    EXPECT_THROW(validateBtbConfig({64, 2, false, 65}), FatalError);
    // Adaptive cap needs a nonzero epoch.
    BtbConfig adaptive{256, 2, false, 0, true, 0};
    EXPECT_THROW(validateBtbConfig(adaptive), FatalError);
    // The constructor performs the same validation.
    EXPECT_THROW(Btb({96, 2, false, 0}), FatalError);
}

TEST(BtbConfigValidation, AcceptsWorkingGeometries)
{
    EXPECT_NO_THROW(validateBtbConfig({256, 2, false, 0}));
    // Fully associative with a non-power-of-two entry count (rocket's
    // 62-entry BTB): one set is explicitly allowed.
    EXPECT_NO_THROW(Btb({62, 62, false, 0}));
    BtbConfig adaptive{256, 2, false, 0, true, 512};
    EXPECT_NO_THROW(validateBtbConfig(adaptive));
}

/** Displace >= 2 B entries with JTEs: enough epoch pressure (> epoch/512)
 *  for adaptTick to tighten the cap at the next boundary. */
void
generateJtePressure(Btb &btb)
{
    for (uint64_t pc = 0; pc < 64 * 4; pc += 4)
        btb.insertPc(0x1000 + pc, 1);
    for (uint64_t op = 0; op < 40; ++op)
        btb.insertJte(0, op, 2);
}

TEST(BtbAdaptiveCap, TightensOnlyAtTheEpochBoundary)
{
    // adaptTick runs on PC lookups only; inserts never advance the epoch.
    Btb btb({64, 2, false, 0, true, 512});
    generateJtePressure(btb);
    ASSERT_GE(btb.jteEvictedBranch(), 2u);
    EXPECT_EQ(btb.effectiveJteCap(), 0u); // starts unlimited

    for (unsigned n = 0; n < 511; ++n)
        btb.lookupPc(0x1000);
    EXPECT_EQ(btb.effectiveJteCap(), 0u); // one lookup short: no tick yet

    btb.lookupPc(0x1000); // the 512th lookup closes the epoch
    unsigned cap = btb.effectiveJteCap();
    EXPECT_NE(cap, 0u);
    // First tightening halves the resident population, floored at 8.
    EXPECT_EQ(cap, std::max(8u, btb.jteCount() / 2));
}

TEST(BtbAdaptiveCap, SustainedContentionCollapsesToTheFloor)
{
    Btb btb({64, 2, false, 0, true, 512});
    for (int epoch = 0; epoch < 12; ++epoch) {
        // Refill B entries and displace some with JTEs every epoch so
        // the pressure never subsides.
        btb.flushJtes();
        generateJtePressure(btb);
        for (unsigned n = 0; n < 512; ++n)
            btb.lookupPc(0x1000);
    }
    // Halving every epoch bottoms out at the 8-entry floor, never 0
    // (which would mean "unlimited", not "none").
    EXPECT_EQ(btb.effectiveJteCap(), 8u);
}

TEST(BtbAdaptiveCap, RelaxesBackToUnlimitedWhenContentionStops)
{
    Btb btb({64, 2, false, 0, true, 512});
    generateJtePressure(btb);
    for (unsigned n = 0; n < 512; ++n)
        btb.lookupPc(0x1000);
    ASSERT_NE(btb.effectiveJteCap(), 0u);

    // Pressure-free epochs double the cap until it covers the whole
    // structure, at which point it relaxes to unlimited (0).
    unsigned last = btb.effectiveJteCap();
    for (int epoch = 0; epoch < 10 && btb.effectiveJteCap() != 0;
         ++epoch) {
        for (unsigned n = 0; n < 512; ++n)
            btb.lookupPc(0x9999);
        unsigned cap = btb.effectiveJteCap();
        if (cap != 0) {
            EXPECT_EQ(cap, last * 2); // strict doubling per quiet epoch
            last = cap;
        }
    }
    EXPECT_EQ(btb.effectiveJteCap(), 0u);
}

TEST(Vbbi, DistinguishesTargetsByHintValue)
{
    Frontend frontend(FrontendConfig{}, {256, 2, false, 0});
    FrontendVbbi vbbi(frontend);
    uint64_t jumpPc = 0x5000;
    for (uint64_t opcode = 0; opcode < 30; ++opcode)
        vbbi.update(jumpPc, opcode, 0x8000 + opcode * 0x40);
    int correct = 0;
    for (uint64_t opcode = 0; opcode < 30; ++opcode) {
        auto pred = vbbi.predict(jumpPc, opcode);
        if (pred && *pred == 0x8000 + opcode * 0x40)
            ++correct;
    }
    // Hash collisions may cost a couple of entries in a 256-entry table.
    EXPECT_GE(correct, 27);
}

} // namespace
