#include "replay.hh"

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "core/scheme.hh"
#include "cpu/functional_core.hh"
#include "cpu/retire_stream.hh"
#include "cpu/timing_model.hh"
#include "guest/guest_program.hh"
#include "isa/opcode.hh"
#include "mem/memory.hh"
#include "pool.hh"

namespace scd::harness
{

namespace
{

using steady = std::chrono::steady_clock;

double
secondsSince(steady::time_point start)
{
    return std::chrono::duration<double>(steady::now() - start).count();
}

/**
 * One buffered write per progress line: concurrent tasks then interleave
 * whole lines on stderr instead of tearing mid-line through stdio's
 * character-level buffering.
 */
void
printProgress(const ExperimentPoint &point)
{
    std::string line = "  running " + point.label() + "...\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
}

void
addCacheSignature(std::string &s, const cache::CacheConfig &c)
{
    s += std::to_string(c.sizeBytes);
    s += ',';
    s += std::to_string(c.associativity);
    s += ',';
    s += std::to_string(c.blockBytes);
    s += ',';
    s += std::to_string(int(c.replacement));
    s += ';';
}

/**
 * Serialization of every timing-relevant CoreConfig field (the machine
 * name is presentation-only). Two group members with equal signatures
 * deterministically produce equal results, so the second becomes a copy
 * of the first instead of running a timing model. The SCD-side knobs are
 * only observable when JTEs exist (branch/btb.cc touches jteCap and the
 * adaptive-cap state exclusively on the JTE insert path), so they are
 * gated out for non-SCD members — a BTB-size sweep's baseline points
 * dedup against an equal-geometry cap sweep's baseline points.
 */
std::string
timingSignature(const cpu::CoreConfig &c)
{
    std::string s;
    auto add = [&s](uint64_t v) {
        s += std::to_string(v);
        s += ',';
    };
    add(c.issueWidth);
    add(c.mispredictPenalty);
    add(c.btbMissTakenPenalty);
    add(c.aluLatency);
    add(c.mulLatency);
    add(c.divLatency);
    add(c.fpLatency);
    add(c.fpDivLatency);
    add(c.loadHitLatency);
    addCacheSignature(s, c.icache);
    addCacheSignature(s, c.dcache);
    add(c.hasL2);
    if (c.hasL2) {
        addCacheSignature(s, c.l2cache);
        add(c.l2HitLatency);
    }
    add(c.memLatency);
    add(c.itlbEntries);
    add(c.dtlbEntries);
    add(c.tlbMissPenalty);
    add(c.btb.entries);
    add(c.btb.associativity);
    add(c.btb.lruReplacement);
    // Frontend organization: parameters join only when their organization
    // is active, so an ideal-frontend sweep point still dedups against a
    // pre-frontend-sweep point with equal geometry.
    add(uint64_t(c.frontend.kind));
    add(c.frontend.fdip);
    if (c.frontend.kind != branch::FrontendKind::Ideal) {
        add(c.frontend.microEntries);
        add(c.frontend.mainBanks);
        add(c.frontend.partialTagBits);
        add(c.frontend.mainHitBubbles);
    }
    if (c.frontend.fdip) {
        add(c.frontend.ftqDepth);
        add(c.frontend.ftqTimelyDistance);
    }
    add(uint64_t(c.predictor));
    add(c.globalPredictorEntries);
    add(c.localPredictorEntries);
    add(c.gshareEntries);
    add(c.rasDepth);
    add(c.scdEnabled);
    add(c.vbbiEnabled);
    add(c.ittageEnabled);
    if (c.scdEnabled) {
        add(c.btb.jteCap);
        add(c.btb.adaptiveJteCap);
        add(c.btb.adaptEpoch);
        add(uint64_t(c.bopPolicy));
        add(c.ropForwardDistance);
        add(c.scdDedicatedTable);
        add(c.dedicatedJteEntries);
    }
    return s;
}

/** One timing model riding a group's shared stream. */
struct Member
{
    size_t idx = 0;      ///< plan (and result) index
    cpu::CoreConfig cfg; ///< withScheme() applied; referenced by timing
    std::string sig;
    int copyOf = -1; ///< members index whose result this point shares
    std::unique_ptr<cpu::TimingModel> timing;

    /**
     * The stream no longer describes this member (a malformed skip
     * span); it re-runs directly after the group finishes. A guard, not
     * an expected path: the interpreters' dispatch sequences are
     * side-effect-free by construction.
     */
    bool fellBack = false;

    // Hit-span skip state; persists across chunk boundaries.
    bool skipping = false;
    uint64_t skipTarget = 0;
    unsigned skipLen = 0;

    double seconds = 0.0; ///< consumption wall time of this member
};

/**
 * Skipped entries must be the dispatch slow path and nothing else: pure
 * scratch-register computation ending in the jru. Stores, syscalls, and
 * any SCD-state instruction (setmask, .op loads, a nested bop, the
 * terminating jru aside) inside a skip span mean the stream does not
 * describe this member's hit path — fall back to direct execution.
 */
constexpr uint32_t kSkipGuardFlags =
    isa::FlagStore | isa::FlagSystem | isa::FlagScd;

/** A generous bound on dispatch-sequence length (they are ~10 insts). */
constexpr unsigned kMaxSkipSpan = 64;

/**
 * Feed one chunk of a group's stream to @p m. At every recorded probe
 * the member performs the real JTE lookup against its own timing model
 * — the same virtual call, at the same point in the retire order, as
 * direct execution's mid-instruction probe. A hit retires a synthesized
 * hit-bop and skips the slow path the producer recorded (always-miss
 * superset stream); a miss retires the recorded entries unchanged.
 * Probe-free spans flow through TimingModel::consume() in one virtual
 * call so the per-instruction retire devirtualizes; a non-SCD stream
 * has no probes, so each chunk is one such span. Probed bops go through
 * consume() too, one record at a time: retire() is the traced retire
 * body, and a member never has a trace buffer. The member's timing
 * model counts what it retires.
 */
void
consume(Member &m, const cpu::RetireChunk &chunk)
{
    using cpu::CtrlKind;
    const cpu::RetireInfo *e = chunk.entries;
    const size_t n = chunk.count;
    size_t i = 0;
    while (i < n) {
        if (m.skipping) {
            const cpu::RetireInfo &ri = e[i];
            if (ri.ctrl == CtrlKind::Jru) {
                if (ri.nextPc != m.skipTarget) {
                    m.fellBack = true;
                    return;
                }
                m.skipping = false;
                ++i;
                continue;
            }
            if ((ri.flags & kSkipGuardFlags) != 0 ||
                ++m.skipLen > kMaxSkipSpan) {
                m.fellBack = true;
                return;
            }
            ++i;
            continue;
        }

        // Scan ahead to the next probed bop.
        size_t start = i;
        while (i < n && !(e[i].ctrl == CtrlKind::Bop && e[i].bopProbed))
            ++i;
        if (i > start)
            m.timing->consume(e + start, i - start);
        if (i == n)
            break;

        const cpu::RetireInfo &bop = e[i];
        auto target = m.timing->jteLookup(bop.bank, bop.jteOpcode);
        if (target) {
            cpu::RetireInfo hit = bop;
            hit.nextPc = *target;
            hit.bopHit = true;
            m.timing->consume(&hit, 1);
            m.skipping = true;
            m.skipTarget = *target;
            m.skipLen = 0;
        } else {
            m.timing->consume(&bop, 1);
        }
        ++i;
    }
}

/**
 * Execute one multi-member group: one producer run, every member's
 * timing model stepped off the shared stream in lockstep, chunk by
 * chunk. Contained: any failure of the shared producer (guest error,
 * watchdog timeout, injected fault) falls every member back onto its
 * own one-shot direct execution — surviving fallbacks are recorded as
 * PointStatus::Degraded, so a poisoned group never takes down the
 * plan, but never masquerades as a clean run either.
 */
void
runGroup(const std::vector<size_t> &indices, ExperimentSet &set,
         const RunOptions &options)
{
    const std::vector<ExperimentPoint> &points = set.points;
    try {
        faultinj::hit("point-oom");
        const ExperimentPoint &first = points[indices[0]];

        // Build every member before creating any timing model: the
        // models hold references into their member's CoreConfig, so the
        // vector must never reallocate once the first model exists.
        std::vector<Member> members;
        members.reserve(indices.size());
        for (size_t idx : indices) {
            Member m;
            m.idx = idx;
            m.cfg =
                core::withScheme(points[idx].machine, points[idx].scheme);
            m.sig = timingSignature(m.cfg);
            members.push_back(std::move(m));
        }
        for (size_t i = 0; i < members.size(); ++i) {
            for (size_t j = 0; j < i; ++j) {
                if (members[j].copyOf < 0 &&
                    members[j].sig == members[i].sig) {
                    members[i].copyOf = int(j);
                    break;
                }
            }
            if (members[i].copyOf < 0)
                members[i].timing = cpu::makeTimingModel(members[i].cfg);
            if (options.verbose)
                printProgress(points[members[i].idx]);
        }

        // The producer: one functional execution against a
        // permanently-empty JTE port (RecorderTiming), so the stream
        // records the slow dispatch path at every dispatch — the
        // superset every member replays from.
        auto program = compileGuest(first.vm,
                                    first.workload->text(first.size),
                                    dispatchForScheme(first.scheme));
        mem::GuestMemory memory;
        program->loadInto(memory);
        cpu::RecorderTiming recorder;
        cpu::FunctionalCore func(members[0].cfg, memory, recorder);
        func.loadProgram(program->text);
        func.setDispatchMeta(program->meta);
        func.setDispatchTier(options.dispatchTier);
        func.armWatchdog(options.pointTimeout);

        // Producer and consumers run in lockstep inside this task: fill
        // the chunk, let every live consumer drain it, refill.
        auto chunk = std::make_unique<cpu::RetireChunk>();
        double producerSeconds = 0.0;
        bool exhausted = false;
        while (!exhausted) {
            faultinj::hit("replay-ring");
            auto fillStart = steady::now();
            chunk->count = func.runRecorded(chunk->entries,
                                            cpu::RetireChunk::kCapacity);
            if (func.exited() || chunk->count == 0)
                exhausted = true;
            producerSeconds += secondsSince(fillStart);
            // Cooperative cancellation, checked once per chunk (the
            // fill is bounded by the chunk capacity, the drains by the
            // fill).
            func.watchdog().expire();

            bool anyLive = false;
            for (Member &m : members) {
                if (m.copyOf >= 0 || m.fellBack)
                    continue;
                auto drainStart = steady::now();
                consume(m, *chunk);
                m.seconds += secondsSince(drainStart);
                if (!m.fellBack)
                    anyLive = true;
            }
            if (!anyLive)
                break; // everyone needs the direct path; stop producing
        }
        if (exhausted && func.exitCode() != 0) {
            fatal("guest exited with code ", func.exitCode(),
                  " (replay group ", first.label(), "): ", func.output());
        }
        for (Member &m : members) {
            if (m.copyOf < 0 && !m.fellBack && m.skipping)
                m.fellBack = true; // stream ended inside a skip span
        }

        // The producer's only counter, scd.bopFallThroughForced, is
        // decided by the .op-to-bop distance, which hit-path skipping
        // never changes (both sit inside one handler body) — so it is
        // every member's count.
        StatGroup funcStats;
        func.exportStats(funcStats);
        size_t liveCount = 0;
        for (const Member &m : members)
            liveCount += m.copyOf < 0 && !m.fellBack;
        double producerShare =
            liveCount ? producerSeconds / double(liveCount) : 0.0;

        for (Member &m : members) {
            if (m.copyOf >= 0)
                continue;
            if (m.fellBack) {
                // The pre-existing benign fallback: the stream cannot
                // describe this member (malformed skip span). A clean
                // direct run stays Ok — results are bit-identical.
                set.runs[m.idx] = runPointContained(points[m.idx], options);
                continue;
            }
            ExperimentResult r;
            r.stats = funcStats;
            r.stats.counter("cycles") = m.timing->cycles();
            m.timing->exportStats(r.stats);
            r.run.exitCode = func.exitCode();
            r.run.exited = func.exited();
            r.run.instructions = r.stats.get("instructions");
            r.run.cycles = m.timing->cycles();
            r.output = func.output();
            r.interpreterTextBytes = program->textBytes();
            r.simSeconds = m.seconds + producerShare;
            set.runs[m.idx].seconds = r.simSeconds;
            set.runs[m.idx].result = std::move(r);
            set.runs[m.idx].status = PointStatus::Ok;
            set.runs[m.idx].error.clear();
        }
        for (Member &m : members) {
            if (m.copyOf < 0)
                continue;
            const ExperimentRun &src = set.runs[members[m.copyOf].idx];
            set.runs[m.idx] = src;
            set.runs[m.idx].seconds = 0.0; // no wall time of its own
        }
    } catch (const std::exception &e) {
        // The shared producer (or group setup) failed; every member of
        // the group gets one direct-path attempt of its own.
        std::string reason = e.what();
        for (size_t idx : indices) {
            set.runs[idx] =
                runPointContained(points[idx], options, reason.c_str());
        }
    }
}

} // namespace

/*
 * VM + interpreter binary (dispatch kind) + workload source pin the
 * guest; for SCD binaries the two architecturally-visible SCD knobs —
 * bop's in-flight policy and the Rop forwarding distance — are baked
 * into the stream (they decide bop eligibility and the recorded
 * ropStall) and join the key. Every other machine knob is timing-only.
 */
std::string
replayGroupKey(const ExperimentPoint &p)
{
    std::string key = vmName(p.vm);
    key += '|';
    key += std::to_string(int(dispatchForScheme(p.scheme)));
    if (p.scheme == core::Scheme::Scd) {
        key += '|';
        key += std::to_string(int(p.machine.bopPolicy));
        key += ':';
        key += std::to_string(p.machine.ropForwardDistance);
    }
    key += '|';
    key += p.workload->text(p.size);
    return key;
}

ExperimentRun
runPointDirect(const ExperimentPoint &point, const RunOptions &options)
{
    SCD_ASSERT(point.workload, "experiment point without a workload");
    if (options.verbose)
        printProgress(point);
    auto start = steady::now();
    ExperimentRun run;
    run.result = runWorkload(point.vm, *point.workload, point.size,
                             point.scheme, point.machine,
                             point.maxInstructions, nullptr,
                             options.pointTimeout);
    run.seconds = secondsSince(start);
    return run;
}

ExperimentRun
runPointContained(const ExperimentPoint &point, const RunOptions &options,
                  const char *degradedFrom)
{
    auto diagnose = [&](const char *what) {
        return degradedFrom ? std::string(degradedFrom) +
                                  "; direct fallback: " + what
                            : std::string(what);
    };
    ExperimentRun run;
    auto start = steady::now();
    try {
        faultinj::hit("point-oom");
        run = runPointDirect(point, options);
        if (degradedFrom) {
            run.status = PointStatus::Degraded;
            run.error = degradedFrom;
        }
        return run;
    } catch (const TimeoutError &e) {
        run = ExperimentRun{};
        run.status = PointStatus::TimedOut;
        run.error = diagnose(e.what());
    } catch (const FatalError &e) {
        run = ExperimentRun{};
        run.status = PointStatus::Failed;
        run.error = diagnose(e.what());
    } catch (const std::bad_alloc &) {
        run = ExperimentRun{};
        run.status = PointStatus::Failed;
        run.error = diagnose("out of memory");
    }
    run.seconds = secondsSince(start);
    return run;
}

std::string
pointKey(const ExperimentPoint &point)
{
    std::string key = point.label();
    key += '|';
    key += std::to_string(int(point.size));
    key += '|';
    key += std::to_string(point.maxInstructions);
    key += '|';
    key += timingSignature(core::withScheme(point.machine, point.scheme));
    return key;
}

/**
 * Split @p count work items into at most jobs*8 contiguous batches, one
 * pool task per batch. Small simulation points (the test-size grids the
 * unit tests run) take microseconds each, so at one point per task the
 * pool's queue mutex and condition-variable wakeups dominate and a
 * parallel plan loses to a serial one; batching amortizes the per-task
 * overhead while the 8x over-decomposition keeps the tail balanced when
 * point costs are skewed. Results still land at their plan index, so
 * collection order — and every artifact derived from it — is unchanged.
 */
std::vector<std::pair<size_t, size_t>>
batchRanges(size_t count, unsigned jobs)
{
    std::vector<std::pair<size_t, size_t>> ranges;
    size_t batches = std::min(count, size_t(jobs) * 8);
    ranges.reserve(batches);
    for (size_t b = 0; b < batches; ++b)
        ranges.emplace_back(count * b / batches, count * (b + 1) / batches);
    return ranges;
}

void
runPlanReplay(ExperimentSet &set, const RunOptions &options)
{
    // Group points by functional key. Instruction-limited runs (their
    // stop point depends on the member's own retire count) cannot share a
    // stream and run direct as singleton tasks, as do groups of one and,
    // with options.replay off, every point.
    std::map<std::string, std::vector<size_t>> byKey;
    std::vector<std::vector<size_t>> tasks;
    std::vector<size_t> singles;
    for (size_t i = 0; i < set.points.size(); ++i) {
        const ExperimentPoint &p = set.points[i];
        SCD_ASSERT(p.workload, "experiment point without a workload");
        if (!options.replay || p.maxInstructions != 0) {
            singles.push_back(i);
            continue;
        }
        byKey[replayGroupKey(p)].push_back(i);
    }
    for (auto &entry : byKey) {
        if (entry.second.size() == 1)
            singles.push_back(entry.second.front());
        else
            tasks.push_back(std::move(entry.second));
    }

    // Tasks [0, groupTasks) are replay groups (one producer, shared
    // stream); the rest are contiguous batches of direct-path singleton
    // points (see batchRanges()).
    const size_t groupTasks = tasks.size();
    set.jobs = resolveJobs(options.jobs);
    for (auto [lo, hi] : batchRanges(singles.size(), set.jobs)) {
        tasks.emplace_back(singles.begin() + ptrdiff_t(lo),
                           singles.begin() + ptrdiff_t(hi));
    }
    // No point spinning up more workers than there are tasks.
    if (tasks.size() < set.jobs)
        set.jobs = tasks.empty() ? 1 : unsigned(tasks.size());

    parallelFor(set.jobs, tasks.size(), [&](size_t t) {
        const std::vector<size_t> &indices = tasks[t];
        if (t < groupTasks) {
            runGroup(indices, set, options);
            return;
        }
        for (size_t idx : indices)
            set.runs[idx] = runPointContained(set.points[idx], options);
    });
}

} // namespace scd::harness
