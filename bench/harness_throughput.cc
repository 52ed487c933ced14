/**
 * @file
 * Measures experiment-harness throughput — how fast the harness itself
 * can burn through simulation points — and records it machine-readably
 * in BENCH_harness.json so the perf trajectory is tracked across PRs.
 *
 * The plan is the fig07-10 grid shape (2 VMs x 11 workloads x 4 schemes)
 * at the chosen input size. Every point first runs through the recording
 * executor — FunctionalCore::runRecorded() against RecorderTiming, in
 * RetireChunk-sized fills — twice per dispatch tier, threaded and the
 * reference switch interpreter interleaved so allocator drift hits both
 * equally. The plan then runs twice serially (--jobs=1) and twice on the
 * requested worker count with the timed model. The JSON records
 * per-experiment wall time, the total wall times, the parallel speedup,
 * the timed and producer instruction throughput (instructions/sec), and
 * the threaded tier's producer speedup over the switch tier
 * (producer_threaded_speedup). The timed path gets the same treatment:
 * every point runs through Core::run() twice per tier, interleaved, and
 * timed_threaded_speedup is the fused threaded path's speedup over the
 * switch step()-then-retire loop. The CI bench-regression gate watches
 * both ratios. Each mode's throughput is the best of its two passes per
 * experiment — the runs are short enough that scheduler noise on a
 * shared machine swings single measurements by >10%, and the
 * per-experiment minimum is the usual noise-robust estimator of the
 * achievable speed.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "branch/btb.hh"
#include "branch/frontend.hh"
#include "core/scheme.hh"
#include "cpu/core.hh"
#include "cpu/dispatch_tier.hh"
#include "cpu/functional_core.hh"
#include "cpu/retire_stream.hh"
#include "harness/experiment.hh"
#include "harness/machines.hh"
#include "harness/runner.hh"
#include "mem/memory.hh"

namespace
{

uint64_t
totalInstructions(const scd::harness::ExperimentSet &set)
{
    uint64_t total = 0;
    for (const auto &run : set.runs)
        total += run.result.run.instructions;
    return total;
}

/**
 * Aggregate simulator speed over two passes of the same plan: retired
 * instructions per second of the per-experiment best-of-two Core::run()
 * time. Compile/setup time is excluded — it is identical whatever the
 * timing model, so including it would understate the timing-model cost
 * being measured.
 */
double
instructionsPerSecond(const scd::harness::ExperimentSet &first,
                      const scd::harness::ExperimentSet &second)
{
    double simSeconds = 0.0;
    for (size_t i = 0; i < first.runs.size(); ++i) {
        simSeconds += std::min(first.runs[i].result.simSeconds,
                               second.runs[i].result.simSeconds);
    }
    return simSeconds > 0 ? double(totalInstructions(first)) / simSeconds
                          : 0.0;
}

/** One recording (or timed) pass over a plan on one tier. */
struct TierPass
{
    std::vector<double> seconds; ///< per point, guest compile excluded
    uint64_t instructions = 0;   ///< retired over the whole plan
};

/**
 * Run every point of @p plan to exit through the recording executor,
 * FunctionalCore::runRecorded() against RecorderTiming, one
 * RetireChunk-sized fill at a time.
 */
TierPass
producerPass(const scd::harness::ExperimentPlan &plan,
             scd::cpu::DispatchTier tier)
{
    using namespace scd;
    TierPass pass;
    std::vector<cpu::RetireInfo> chunk(cpu::RetireChunk::kCapacity);
    for (const harness::ExperimentPoint &p : plan.points()) {
        auto program = harness::compileGuest(
            p.vm, p.workload->text(p.size),
            harness::dispatchForScheme(p.scheme));
        cpu::CoreConfig cfg = core::withScheme(p.machine, p.scheme);
        mem::GuestMemory memory;
        program->loadInto(memory);
        cpu::RecorderTiming recorder;
        cpu::FunctionalCore func(cfg, memory, recorder);
        func.loadProgram(program->text);
        func.setDispatchMeta(program->meta);
        func.setDispatchTier(tier);
        auto t0 = std::chrono::steady_clock::now();
        while (!func.exited())
            func.runRecorded(chunk.data(), chunk.size());
        pass.seconds.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
        pass.instructions += func.retired();
    }
    return pass;
}

/**
 * Run every point of @p plan through the timed path, Core::run() on
 * @p tier, exactly as the harness runs a direct point.
 */
TierPass
timedPass(const scd::harness::ExperimentPlan &plan,
          scd::cpu::DispatchTier tier)
{
    using namespace scd;
    TierPass pass;
    for (const harness::ExperimentPoint &p : plan.points()) {
        auto program = harness::compileGuest(
            p.vm, p.workload->text(p.size),
            harness::dispatchForScheme(p.scheme));
        mem::GuestMemory memory;
        program->loadInto(memory);
        cpu::Core core(core::withScheme(p.machine, p.scheme), memory);
        core.loadProgram(program->text);
        core.setDispatchMeta(program->meta);
        core.setDispatchTier(tier);
        auto t0 = std::chrono::steady_clock::now();
        pass.instructions += core.run().instructions;
        pass.seconds.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count());
    }
    return pass;
}

/** Instructions per second of the per-point best of two passes. */
double
tierIps(const TierPass &first, const TierPass &second)
{
    double seconds = 0.0;
    for (size_t i = 0; i < first.seconds.size(); ++i)
        seconds += std::min(first.seconds[i], second.seconds[i]);
    return seconds > 0 ? double(first.instructions) / seconds : 0.0;
}

/**
 * The frontend port's cost on the default path: the same deterministic
 * probe/insert mix driven once against a raw branch::Btb and once
 * through a default-config branch::Frontend, the way InOrderTiming
 * fetches — every organization through the same non-virtual port, which
 * tests the ideal BTB first. Returns the best-of-reps wall-time ratio
 * (port / raw); the CI bench-regression gate keeps it <= 1.05 so the
 * closed-set port stays free for every ideal-frontend simulation.
 */
double
frontendOverheadRatio()
{
    using namespace scd;
    constexpr unsigned kOps = 1u << 19;
    constexpr int kReps = 9;

    // One xorshift64 op stream, replayed identically by both passes.
    // The mix mirrors the timing members' frontend traffic — probes
    // dominate (probePc on every control-flow instruction, probeJte per
    // dispatch) and inserts happen only on misses — over a PC footprint
    // that both hits and misses the default 256x2 structure.
    auto step = [](uint64_t &x) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };

    uint64_t sink = 0;
    auto rawPass = [&](branch::Btb &raw) {
        uint64_t x = 0x9e3779b97f4a7c15ull;
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < kOps; ++i) {
            uint64_t r = step(x);
            uint64_t pc = (r & 0xFFFF) << 2;
            switch (unsigned(r >> 61)) {
              case 0:
              case 1:
              case 2:
              case 3:
                sink += raw.lookupPc(pc).value_or(0);
                break;
              case 4:
                raw.insertPc(pc, pc + 8);
                break;
              case 5:
              case 6:
                sink += raw.lookupJte(uint8_t((r >> 8) & 3), r & 0xFF)
                            .value_or(0);
                break;
              default:
                raw.insertJte(uint8_t((r >> 8) & 3), r & 0xFF, pc);
                break;
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    auto viaPass = [&](branch::Frontend &via) {
        uint64_t x = 0x9e3779b97f4a7c15ull;
        auto t0 = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < kOps; ++i) {
            uint64_t r = step(x);
            uint64_t pc = (r & 0xFFFF) << 2;
            switch (unsigned(r >> 61)) {
              case 0:
              case 1:
              case 2:
              case 3:
                sink += via.probePc(pc).target.value_or(0);
                break;
              case 4:
                via.insertPc(pc, pc + 8);
                break;
              case 5:
              case 6:
                sink += via.probeJte(uint8_t((r >> 8) & 3), r & 0xFF)
                            .target.value_or(0);
                break;
              default:
                via.insertJte(uint8_t((r >> 8) & 3), r & 0xFF, pc);
                break;
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };

    double rawBest = 1e99, viaBest = 1e99;
    for (int rep = 0; rep < kReps; ++rep) {
        branch::BtbConfig config;
        branch::Btb raw(config);
        branch::Frontend via(branch::FrontendConfig{}, config);
        // Alternate which side runs first so frequency/thermal drift
        // within a rep cannot systematically penalize one of them.
        if (rep & 1) {
            viaBest = std::min(viaBest, viaPass(via));
            rawBest = std::min(rawBest, rawPass(raw));
        } else {
            rawBest = std::min(rawBest, rawPass(raw));
            viaBest = std::min(viaBest, viaPass(via));
        }
    }
    // Keep the accumulated targets observable so neither loop folds away.
    if (sink == 0xdeadbeefdeadbeefull)
        std::fprintf(stderr, "frontend_overhead: improbable sink\n");
    return rawBest > 0 ? viaBest / rawBest : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scd;
    using namespace scd::harness;

    bench::checkFlags(argc, argv,
                      {"--size=", "--jobs=", "--json=", "--frontend="});

    InputSize size = bench::parseSize(argc, argv, InputSize::Test);
    unsigned jobs = resolveJobs(bench::parseJobs(argc, argv));
    // This bench's output is inherently wall-time data, so --json picks
    // the destination of its (timing-laden) document rather than the
    // deterministic scd-stats-v1 export of the figure binaries.
    std::string jsonPath = bench::parseJsonPath(argc, argv);
    if (jsonPath.empty())
        jsonPath = "BENCH_harness.json";

    ExperimentPlan plan;
    plan.addGrid(bench::applyFrontendFlag(argc, argv, minorConfig()), size,
                 {VmKind::Rlua, VmKind::Sjs},
                 {core::Scheme::Baseline, core::Scheme::JumpThreading,
                  core::Scheme::Vbbi, core::Scheme::Scd});

    // The producer passes run before the timed ones: 88 timed
    // experiments leave the allocator and page tables in a state that
    // measurably slows later short runs, and the producer — being
    // several times faster — is the one short enough to be hurt by it.
    // The two tiers interleave (threaded, switch, threaded, switch) so
    // that drift degrades both tiers' best-of-two equally instead of
    // biasing the tier ratio.
    std::fprintf(stderr,
                 "harness_throughput: %zu points (%s), producer pass "
                 "(threaded)...\n",
                 plan.size(), bench::sizeName(size));
    TierPass threaded = producerPass(plan, cpu::DispatchTier::Threaded);
    std::fprintf(stderr, "harness_throughput: producer pass (switch)...\n");
    TierPass reference = producerPass(plan, cpu::DispatchTier::Switch);
    std::fprintf(stderr,
                 "harness_throughput: producer pass 2 (threaded)...\n");
    TierPass threaded2 = producerPass(plan, cpu::DispatchTier::Threaded);
    std::fprintf(stderr,
                 "harness_throughput: producer pass 2 (switch)...\n");
    TierPass reference2 = producerPass(plan, cpu::DispatchTier::Switch);
    std::fprintf(stderr, "harness_throughput: timed passes (threaded, "
                         "switch, threaded, switch)...\n");
    TierPass timedThreaded = timedPass(plan, cpu::DispatchTier::Threaded);
    TierPass timedSwitch = timedPass(plan, cpu::DispatchTier::Switch);
    TierPass timedThreaded2 = timedPass(plan, cpu::DispatchTier::Threaded);
    TierPass timedSwitch2 = timedPass(plan, cpu::DispatchTier::Switch);

    // The serial/parallel pair also interleaves, and the speedup is
    // taken over each mode's best total: on a loaded (or single-CPU)
    // host a single pass per mode measures scheduler luck more than the
    // pool.
    RunOptions serialOpts;
    serialOpts.jobs = 1;
    RunOptions parallelOpts;
    parallelOpts.jobs = jobs;
    std::fprintf(stderr, "harness_throughput: serial pass...\n");
    ExperimentSet serial = runPlan(plan, serialOpts);
    std::fprintf(stderr, "harness_throughput: parallel pass (%u jobs)...\n",
                 jobs);
    ExperimentSet parallel = runPlan(plan, parallelOpts);
    std::fprintf(stderr, "harness_throughput: serial pass 2...\n");
    ExperimentSet serial2 = runPlan(plan, serialOpts);
    std::fprintf(stderr,
                 "harness_throughput: parallel pass 2 (%u jobs)...\n", jobs);
    ExperimentSet parallel2 = runPlan(plan, parallelOpts);

    std::fprintf(stderr, "harness_throughput: frontend-overhead "
                         "microbench...\n");
    double frontendOverhead = frontendOverheadRatio();

    double serialSeconds = std::min(serial.totalSeconds, serial2.totalSeconds);
    double parallelSeconds =
        std::min(parallel.totalSeconds, parallel2.totalSeconds);
    double speedup =
        parallelSeconds > 0 ? serialSeconds / parallelSeconds : 0.0;
    double timedIps = instructionsPerSecond(serial, parallel);
    double switchIps = tierIps(reference, reference2);
    double threadedIps = tierIps(threaded, threaded2);
    double threadedSpeedup = switchIps > 0 ? threadedIps / switchIps : 0.0;
    double timedSwitchIps = tierIps(timedSwitch, timedSwitch2);
    double timedThreadedIps = tierIps(timedThreaded, timedThreaded2);
    double timedSpeedup =
        timedSwitchIps > 0 ? timedThreadedIps / timedSwitchIps : 0.0;

    const char *path = jsonPath.c_str();
    std::FILE *f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"harness_throughput\",\n");
    std::fprintf(f, "  \"size\": \"%s\",\n", bench::sizeName(size));
    std::fprintf(f, "  \"points\": %zu,\n", plan.size());
    std::fprintf(f, "  \"host_cpus\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"jobs\": %u,\n", parallel.jobs);
    std::fprintf(f, "  \"serial_seconds\": %.6f,\n", serialSeconds);
    std::fprintf(f, "  \"parallel_seconds\": %.6f,\n", parallelSeconds);
    std::fprintf(f, "  \"speedup\": %.3f,\n", speedup);
    std::fprintf(f, "  \"timed_instructions_per_second\": %.0f,\n",
                 timedIps);
    std::fprintf(f, "  \"producer_switch_ips\": %.0f,\n", switchIps);
    std::fprintf(f, "  \"producer_threaded_ips\": %.0f,\n", threadedIps);
    std::fprintf(f, "  \"producer_threaded_speedup\": %.3f,\n",
                 threadedSpeedup);
    std::fprintf(f, "  \"timed_switch_ips\": %.0f,\n", timedSwitchIps);
    std::fprintf(f, "  \"timed_threaded_ips\": %.0f,\n", timedThreadedIps);
    std::fprintf(f, "  \"timed_threaded_speedup\": %.3f,\n", timedSpeedup);
    std::fprintf(f, "  \"frontend_overhead\": %.3f,\n", frontendOverhead);
    std::fprintf(f, "  \"experiments\": [\n");
    for (size_t i = 0; i < parallel.points.size(); ++i) {
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"seconds\": %.6f, "
                     "\"serial_seconds\": %.6f, "
                     "\"producer_seconds\": %.6f}%s\n",
                     parallel.points[i].label().c_str(),
                     parallel.runs[i].seconds, serial.runs[i].seconds,
                     std::min(threaded.seconds[i], threaded2.seconds[i]),
                     i + 1 < parallel.points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);

    std::printf("harness throughput: %zu points, serial %.2fs, %u jobs "
                "%.2fs, speedup %.2fx, timed %.0f Minst/s, producer "
                "threaded %.0f Minst/s (%.2fx switch), timed threaded "
                "%.0f Minst/s (%.2fx switch), frontend overhead %.3fx "
                "-> %s\n",
                plan.size(), serialSeconds, parallel.jobs, parallelSeconds,
                speedup, timedIps / 1e6, threadedIps / 1e6, threadedSpeedup,
                timedThreadedIps / 1e6, timedSpeedup, frontendOverhead,
                path);
    return reportTroubledPoints({&serial, &serial2, &parallel, &parallel2});
}
