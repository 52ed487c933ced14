/**
 * @file
 * Self-tests of the benchmark's own logic (perfbench.hh): the reference
 * oracle must flag any counter perturbed by one, the seeded plan order
 * must be a permutation (identity at seed 0), and the tail percentile
 * must follow the at-least-ten-beyond rule. Exit code 0 when all pass.
 *
 *   cmake --build .bench_build --target perfbench_selftest
 *   ./.bench_build/perfbench_selftest
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "harness/machines.hh"
#include "harness/runner.hh"
#include "harness/workloads.hh"
#include "perfbench.hh"

using namespace scd;
using namespace scd::perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

/** Rebuild @p stats with counter @p victim incremented by one. */
StatGroup
perturbed(const StatGroup &stats, const std::string &victim)
{
    StatGroup out;
    for (const auto &[name, value] : stats.all())
        out.counter(name) = value + (name == victim ? 1 : 0);
    return out;
}

void
testOracle()
{
    const harness::Workload &w = harness::workloads().front();
    harness::ExperimentResult result = harness::runWorkload(
        harness::VmKind::Rlua, w, harness::InputSize::Test,
        core::Scheme::Scd, harness::minorConfig());
    const RefPoint want = refPointOf(7, "rlua/" + w.name, result);
    check(refMismatch(want, want).empty(), "identical point matches");
    check(result.stats.size() > 20, "a real point has many counters");

    for (const auto &[name, value] : result.stats.all()) {
        harness::ExperimentResult r = result;
        r.stats = perturbed(result.stats, name);
        check(!refMismatch(want, refPointOf(7, want.label, r)).empty(),
              "counter " + name + " perturbed by one is flagged");
    }
    harness::ExperimentResult r = result;
    ++r.run.cycles;
    check(!refMismatch(want, refPointOf(7, want.label, r)).empty(),
          "cycles perturbed by one are flagged");
    r = result;
    ++r.run.instructions;
    check(!refMismatch(want, refPointOf(7, want.label, r)).empty(),
          "instructions perturbed by one are flagged");
    r = result;
    r.stats.counter("a.new.counter") = 0;
    check(!refMismatch(want, refPointOf(7, want.label, r)).empty(),
          "an added counter is flagged");

    // The stored form round-trips and rejects damage.
    auto parsed = parseRef("# comment\n" + formatRef(want) + "\n");
    check(parsed && parsed->size() == 1 && (*parsed)[0] == want,
          "reference line round-trips");
    check(!parseRef("7\tlabel\t1\t2\n"), "truncated line is rejected");
    check(!parseRef("x\tlabel\t1\t2\t3\t0123456789abcdef\n"),
          "non-numeric index is rejected");
}

void
testPlanOrder()
{
    for (size_t n : {0u, 1u, 2u, 88u, 176u, 352u}) {
        std::vector<size_t> identity(n);
        std::iota(identity.begin(), identity.end(), size_t(0));
        check(planOrder(n, 0) == identity, "seed 0 is paper order");
        for (uint64_t seed = 1; seed <= 200; ++seed) {
            std::vector<size_t> order = planOrder(n, seed);
            check(order == planOrder(n, seed), "same seed, same order");
            std::vector<size_t> sorted = order;
            std::sort(sorted.begin(), sorted.end());
            check(sorted == identity,
                  "seed " + std::to_string(seed) + " n " +
                      std::to_string(n) + " is a permutation");
        }
    }
    check(planOrder(88, 1) != planOrder(88, 0), "seed 1 shuffles");
    check(planOrder(88, 1) != planOrder(88, 2), "seeds differ");
}

/** Samples strictly above @p v. */
size_t
beyond(const std::vector<double> &values, double v)
{
    size_t count = 0;
    for (double x : values)
        count += x > v;
    return count;
}

void
testTail()
{
    check(!tailPercentile(std::vector<double>(10, 1.0)),
          "ten samples have no tail");
    check(!tailPercentile(std::vector<double>(50, 1.0)),
          "all-equal samples have no tail");

    std::vector<double> ramp(88);
    std::iota(ramp.begin(), ramp.end(), 1.0);
    auto t = tailPercentile(ramp);
    check(t && t->beyond == 10 && t->value == 78.0 &&
              std::abs(t->pct - 100.0 * 78.0 / 88.0) < 1e-9,
          "88 distinct samples: rank 78, ten beyond");

    // Ties at the top pull the rank down until ten samples lie beyond.
    std::vector<double> ties(30, 1.0);
    for (int i = 0; i < 12; ++i)
        ties.push_back(5.0);
    t = tailPercentile(ties);
    check(t && t->value == 1.0 && t->beyond == 12,
          "tied tail: highest value with >= 10 beyond");

    // The rule on pseudo-random samples: >= 10 beyond the reported
    // value, and fewer beyond every larger sample.
    uint64_t state = 42;
    for (int trial = 0; trial < 200; ++trial) {
        size_t n = 11 + size_t(splitmix64(state) % 400);
        std::vector<double> v(n);
        for (double &x : v)
            x = double(splitmix64(state) % 50);
        t = tailPercentile(v);
        if (!t) {
            check(beyond(v, *std::min_element(v.begin(), v.end())) < 10,
                  "no tail only when even the minimum has < 10 beyond");
            continue;
        }
        check(t->beyond >= 10 && t->beyond == beyond(v, t->value),
              "reported count is the samples beyond");
        for (double x : v) {
            if (x > t->value)
                check(beyond(v, x) < 10, "no higher sample qualifies");
        }
    }
}

void
testTracer()
{
    Tracer tracer;
    {
        ScopedSpan outer(&tracer, "outer", -1, 3);
        ScopedSpan inner(&tracer, "inner", outer.id(), 3);
    }
    ScopedSpan untraced(nullptr, "ignored");
    std::vector<Tracer::Span> spans = tracer.spans();
    check(spans.size() == 2, "two spans recorded");
    check(spans[1].parent == 0 && spans[1].point == 3 &&
              spans[0].point == 3,
          "child names its parent and shares the point id");
    check(spans[0].startUs <= spans[1].startUs &&
              spans[1].endUs <= spans[0].endUs,
          "child lies within its parent");
}

} // namespace

int
main()
{
    testOracle();
    testPlanOrder();
    testTail();
    testTracer();
    if (failures) {
        std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
