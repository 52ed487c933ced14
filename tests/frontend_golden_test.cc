/**
 * @file
 * Differential gate for the pluggable-frontend refactor: the default
 * (ideal single-level BTB) frontend must be bit-identical to the
 * pre-refactor simulator. The golden file was generated from the
 * monolithic-Btb tree immediately before the pluggable frontend was
 * introduced; this test re-runs the same 48-point matrix — all four
 * schemes x both VMs x all three machines — and requires the rendered
 * scd-stats-v1 document (which embeds every StatGroup counter, i.e.
 * stats.all(), per point) to match the golden byte for byte.
 *
 * A second golden pins the non-ideal organizations the same way:
 * mlbtb, mlbtb+tag4 over a 64-entry BTB (where JTE probes falsely hit),
 * FDIP over the ideal BTB, over mlbtb and over that 64-entry mlbtb+tag4,
 * each across the same schemes, VMs and workloads on the minor core,
 * plus SCD under a fixed JTE cap and under the adaptive cap over the
 * aliasing organization. Every micro-BTB, FTQ, bank-conflict and
 * false-hit counter is in it.
 *
 * Regenerate with SCD_UPDATE_GOLDEN=1 only when an intentional
 * behavioural change is being made; the diff is the review artifact.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

#include "harness/experiment.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "obs/stats_sink.hh"

namespace
{

using namespace scd;
using namespace scd::harness;

/** Cap keeping each point to a few milliseconds. */
constexpr uint64_t kMaxInstructions = 200000;

/** fibo and n-sieve on both VMs under @p schemes, on @p machine. */
ExperimentPlan
smallGrid(const cpu::CoreConfig &machine,
          std::initializer_list<core::Scheme> schemes)
{
    ExperimentPlan plan;
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (const char *name : {"fibo", "n-sieve"}) {
            for (core::Scheme scheme : schemes) {
                ExperimentPoint p;
                p.vm = vm;
                p.workload = &workload(name);
                p.size = InputSize::Test;
                p.scheme = scheme;
                p.machine = machine;
                p.maxInstructions = kMaxInstructions;
                plan.add(p);
            }
        }
    }
    return plan;
}

const std::initializer_list<core::Scheme> kAllSchemes = {
    core::Scheme::Baseline, core::Scheme::JumpThreading,
    core::Scheme::Vbbi, core::Scheme::Scd};

std::string
renderMatrix()
{
    obs::StatsSink sink("frontend_refactor", "test");
    sink.setMeta("gitRev", "golden"); // pin the only non-deterministic field

    struct MachineCase
    {
        const char *label;
        cpu::CoreConfig config;
    };
    const MachineCase machines[] = {
        {"minor", minorConfig()},
        {"rocket", rocketConfig()},
        {"a8", cortexA8Config()},
    };
    for (const MachineCase &mc : machines)
        exportSet(sink, mc.label, runPlan(smallGrid(mc.config, kAllSchemes)));
    return sink.render();
}

/** The non-ideal organizations on the minor core; see the file comment. */
std::string
renderOrganizations()
{
    obs::StatsSink sink("frontend_organizations", "test");
    sink.setMeta("gitRev", "golden");

    // 64 entries x 2 ways with 4-bit tags: distinct opcodes share a set
    // and a folded tag, so JTE probes falsely hit.
    cpu::CoreConfig alias = withFrontend(minorConfig(), "mlbtb+tag4");
    alias.btb.entries = 64;
    // FDIP over that small main BTB, whose evictions give the FTQ base
    // misses to convert and prefetches that land too late.
    cpu::CoreConfig aliasFdip = withFrontend(minorConfig(), "mlbtb+tag4+fdip");
    aliasFdip.btb.entries = 64;

    struct MachineCase
    {
        const char *label;
        cpu::CoreConfig config;
    };
    const MachineCase machines[] = {
        {"mlbtb", withFrontend(minorConfig(), "mlbtb")},
        {"mlbtb-alias", alias},
        {"fdip", withFrontend(minorConfig(), "fdip")},
        {"mlbtb-fdip", withFrontend(minorConfig(), "mlbtb+fdip")},
        {"mlbtb-alias-fdip", aliasFdip},
    };
    for (const MachineCase &mc : machines)
        exportSet(sink, mc.label, runPlan(smallGrid(mc.config, kAllSchemes)));

    cpu::CoreConfig capped = alias;
    capped.name += "+cap8";
    capped.btb.jteCap = 8;
    exportSet(sink, "mlbtb-alias-cap8",
              runPlan(smallGrid(capped, {core::Scheme::Scd})));

    cpu::CoreConfig adaptive = alias;
    adaptive.name += "+adaptive";
    adaptive.btb.adaptiveJteCap = true;
    exportSet(sink, "mlbtb-alias-adaptive",
              runPlan(smallGrid(adaptive, {core::Scheme::Scd})));
    return sink.render();
}

/** Compare @p current with the golden at @p path byte for byte, or
 *  rewrite the golden under SCD_UPDATE_GOLDEN. */
void
expectMatchesGolden(const std::string &path, const std::string &current)
{
    if (std::getenv("SCD_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << current;
        GTEST_SKIP() << "golden regenerated at " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (run with SCD_UPDATE_GOLDEN=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    std::string golden = buf.str();

    // Byte identity; on mismatch report the first diverging line so the
    // offending machine/point/counter is visible in the failure message.
    if (current != golden) {
        std::istringstream a(golden), b(current);
        std::string la, lb;
        size_t line = 0;
        while (std::getline(a, la) && std::getline(b, lb)) {
            ++line;
            ASSERT_EQ(la, lb) << "first divergence at line " << line;
        }
        FAIL() << "documents differ in length (golden " << golden.size()
               << " bytes, current " << current.size() << " bytes)";
    }
}

TEST(FrontendGolden, DefaultFrontendMatchesPreRefactorGolden)
{
    expectMatchesGolden(SCD_GOLDEN_DIR "/frontend_refactor.json",
                        renderMatrix());
}

TEST(FrontendGolden, OrganizationsMatchTheirGolden)
{
    expectMatchesGolden(SCD_GOLDEN_DIR "/frontend_organizations.json",
                        renderOrganizations());
}

} // namespace
