/**
 * @file
 * The repository benchmark: regenerates one of three evaluation plans
 * at --size=sim through the simulator's public libraries, checks every
 * point, and prints its metrics as one JSON line on stdout.
 *
 *   paper-grid      Figs. 7-10: 2 VMs x {Baseline, JT, VBBI, SCD} on
 *                   the minor core.
 *   btb-sweep       Fig. 11, RLua: BTB {64..512} and JTE cap {8, 16,
 *                   inf, adaptive} x {Baseline, SCD}.
 *   frontend-sweep  {mlbtb+tag4 @64, mlbtb+fdip} x {Baseline, SCD} per
 *                   VM.
 *
 * A timed run covers the plan's points for kTimedScripts only, so the
 * plan repeats several times within --seconds; --write-ref covers all
 * 11 scripts. One process runs harness::runPlan on a single worker: on
 * a shared host, nproc workers time the other tenants more than the
 * simulator. The seed permutes the plan order; seed 0 is paper order.
 * Every point must end Ok, print what the host VM prints for the same
 * script, and match the simulated counters stored in
 * perfbench/ref/<workload>.tsv.
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 additionally runs
 * one traced repetition plus a per-layer profile of the Baseline points
 * and reports the per-layer metrics (see perfbench/NOTES.md).
 *
 *   scd_perfbench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *                 --ref <file> [--trace-out <file>] [--write-ref]
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "branch/btb.hh"
#include "branch/direction.hh"
#include "cache/cache.hh"
#include "core/scheme.hh"
#include "cpu/core.hh"
#include "cpu/functional_core.hh"
#include "cpu/retire_stream.hh"
#include "fig11_plan.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/json_export.hh"
#include "harness/machines.hh"
#include "harness/pool.hh"
#include "harness/replay.hh"
#include "harness/runner.hh"
#include "mem/memory.hh"
#include "perfbench.hh"
#include "vm/rlua_compiler.hh"
#include "vm/rlua_interp.hh"
#include "vm/sjs_compiler.hh"
#include "vm/sjs_interp.hh"

using namespace scd;
using namespace scd::harness;
using namespace scd::perfbench;

namespace
{

using steady = std::chrono::steady_clock;

double
secondsSince(steady::time_point start)
{
    return std::chrono::duration<double>(steady::now() - start).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// ---- workloads ---------------------------------------------------------------

/** One sweep step: a machine swept for one VM over all 11 scripts. */
struct Step
{
    std::string label;
    VmKind vm;
    cpu::CoreConfig machine;
    std::vector<core::Scheme> schemes;
    /** EXPERIMENTS.md SCD geomean gain in tenths of a percent; <0 = none. */
    long expectTenths = -1;
};

struct WorkloadDef
{
    std::string name;
    std::vector<Step> steps;
};

std::vector<Step>
paperGridSteps()
{
    const std::vector<core::Scheme> schemes{
        core::Scheme::Baseline, core::Scheme::JumpThreading,
        core::Scheme::Vbbi, core::Scheme::Scd};
    return {{"rlua/minor", VmKind::Rlua, minorConfig(), schemes, 210},
            {"sjs/minor", VmKind::Sjs, minorConfig(), schemes, 261}};
}

/**
 * The RLua half of the Fig. 11 plan (bench/fig11_plan.hh), in the order
 * bench/fig11_sensitivity renders it: BTB {64..512}, then JTE cap {8, 16,
 * inf, adaptive} at a 64-entry BTB. The SJS half repeats the same
 * mechanism and would double the run time.
 */
std::vector<Step>
btbSweepSteps()
{
    const std::map<std::string, long> expect{{"rlua/btb=64", 177},
                                             {"rlua/btb=512", 211}};
    std::vector<Step> steps;
    for (const bench::Fig11Step &s : bench::fig11Steps()) {
        if (s.vm != VmKind::Rlua)
            continue;
        auto it = expect.find(s.label);
        steps.push_back({s.label, s.vm, s.machine,
                         {core::Scheme::Baseline, core::Scheme::Scd},
                         it == expect.end() ? -1 : it->second});
    }
    return steps;
}

/**
 * The non-ideal columns of bench/frontend_sensitivity that exercise the
 * virtual FrontendModel's distinct mechanisms: partial-tag false JTE hits
 * and resteers (mlbtb-alias) and the FDIP queue over the multi-level BTB
 * (mlbtb-fdip). The ideal column is paper-grid's minor machine and plain
 * mlbtb is mlbtb-fdip without its queue, so both are left out to keep a
 * run short.
 */
std::vector<Step>
frontendSweepSteps()
{
    struct Variant
    {
        const char *label;
        const char *spec;
        unsigned btbEntries; ///< 0 = keep the machine default
        long expectRlua, expectSjs;
    };
    const Variant variants[] = {
        {"mlbtb-alias", "mlbtb+tag4", 64, 114, 185},
        {"mlbtb-fdip", "mlbtb+fdip", 0, 160, 204},
    };
    const std::vector<core::Scheme> schemes{core::Scheme::Baseline,
                                            core::Scheme::Scd};
    std::vector<Step> steps;
    for (VmKind vm : {VmKind::Rlua, VmKind::Sjs}) {
        for (const Variant &v : variants) {
            cpu::CoreConfig machine = withFrontend(minorConfig(), v.spec);
            if (v.btbEntries)
                machine.btb.entries = v.btbEntries;
            steps.push_back({std::string(vmName(vm)) + "/" + v.label, vm,
                             machine, schemes,
                             vm == VmKind::Rlua ? v.expectRlua
                                                : v.expectSjs});
        }
    }
    return steps;
}

std::optional<WorkloadDef>
workloadByName(const std::string &name)
{
    if (name == "paper-grid")
        return WorkloadDef{name, paperGridSteps()};
    if (name == "btb-sweep")
        return WorkloadDef{name, btbSweepSteps()};
    if (name == "frontend-sweep")
        return WorkloadDef{name, frontendSweepSteps()};
    return std::nullopt;
}

/**
 * The scripts a timed run covers: binary-trees is allocation-heavy and
 * fibo call-heavy. Every script drives every mechanism a workload isolates
 * (replay groups, the frontend variants, the direct path), and the full
 * 11-script plans take 40-75 s on one worker, too long to repeat in a run.
 */
const std::set<std::string> kTimedScripts{"binary-trees", "fibo"};

/** The canonical plan: each step's grid contiguously, in step order. */
struct CanonicalPlan
{
    ExperimentPlan plan;
    std::vector<size_t> stepBegin;  ///< first point of each step
    std::vector<std::string> names; ///< "<step>:<point label>" per point
    std::vector<size_t> refIndex;   ///< each point's row in the reference
    size_t refRows = 0;             ///< points of the 11-script plan
    bool full = true;               ///< all 11 scripts of every step
};

/** The plan of @p def, restricted to @p scripts unless it is null. */
CanonicalPlan
buildPlan(const WorkloadDef &def, const std::set<std::string> *scripts)
{
    CanonicalPlan c;
    c.full = scripts == nullptr;
    size_t row = 0;
    for (const Step &s : def.steps) {
        c.stepBegin.push_back(c.plan.size());
        ExperimentPlan grid;
        grid.addGrid(s.machine, InputSize::Sim, {s.vm}, s.schemes);
        for (const ExperimentPoint &p : grid.points()) {
            if (!scripts || scripts->count(p.workload->name)) {
                c.plan.add(p);
                c.names.push_back(s.label + ":" + p.label());
                c.refIndex.push_back(row);
            }
            ++row;
        }
    }
    c.stepBegin.push_back(c.plan.size());
    c.refRows = row;
    return c;
}

// ---- host-VM oracle ------------------------------------------------------------

using ScriptKey = std::pair<VmKind, std::string>;

/** What the host VM prints for every (vm, script) of the plan. */
std::map<ScriptKey, std::string>
hostOutputs(const ExperimentPlan &plan)
{
    std::map<ScriptKey, std::string> outputs;
    for (const ExperimentPoint &p : plan.points()) {
        ScriptKey key{p.vm, p.workload->name};
        if (outputs.count(key))
            continue;
        std::string text = p.workload->text(p.size);
        outputs[key] = p.vm == VmKind::Rlua
                           ? vm::rlua::run(vm::rlua::compileSource(text))
                           : vm::sjs::run(vm::sjs::compileSource(text));
    }
    return outputs;
}

// ---- set-up ----------------------------------------------------------------------

struct SetupTimes
{
    double total = 0.0;
    double compile = 0.0; ///< compileGuest, cold cache
    double load = 0.0;    ///< GuestProgram::loadInto
    double core = 0.0;    ///< Core ctor + loadProgram + setDispatchMeta
    size_t keys = 0;
    uint64_t textBytes = 0;
};

/**
 * Cold-cache set-up of every distinct guest of the plan. The host's
 * speed shifts over seconds, so set-up is sampled in bursts between the
 * plan repetitions rather than once up front; each component is the
 * median of its per-rep sums over every burst.
 */
class SetupSampler
{
  public:
    explicit SetupSampler(const ExperimentPlan &plan)
    {
        std::set<std::tuple<VmKind, std::string, guest::DispatchKind>> seen;
        for (const ExperimentPoint &p : plan.points()) {
            if (seen.insert({p.vm, p.workload->name,
                             dispatchForScheme(p.scheme)})
                    .second) {
                keys_.push_back({&p, p.workload->text(p.size)});
            }
        }
    }

    /** Repeat the set-up until @p budget seconds are spent (at least once). */
    void
    sample(double budget, Tracer *tracer)
    {
        const auto start = steady::now();
        do {
            rep(tracer);
        } while (secondsSince(start) < budget);
        // The plan runs must compile for themselves, as a figure driver
        // does.
        resetGuestCache();
    }

    SetupTimes
    times() const
    {
        SetupTimes out;
        out.keys = keys_.size();
        out.textBytes = textBytes_;
        out.total = median(total_);
        out.compile = median(compile_);
        out.load = median(load_);
        out.core = median(core_);
        return out;
    }

  private:
    struct Key
    {
        const ExperimentPoint *point;
        std::string text;
    };

    void
    rep(Tracer *tracer)
    {
        using d = std::chrono::duration<double>;
        ScopedSpan repSpan(tracer, "setup.rep");
        resetGuestCache();
        double c = 0, l = 0, s = 0;
        textBytes_ = 0;
        for (const Key &k : keys_) {
            const ExperimentPoint &p = *k.point;
            auto t0 = steady::now();
            std::shared_ptr<const guest::GuestProgram> program;
            {
                ScopedSpan span(tracer, "guest.compile", repSpan.id());
                program = compileGuest(p.vm, k.text,
                                       dispatchForScheme(p.scheme));
            }
            auto t1 = steady::now();
            mem::GuestMemory memory;
            {
                ScopedSpan span(tracer, "mem.load", repSpan.id());
                program->loadInto(memory);
            }
            auto t2 = steady::now();
            ScopedSpan span(tracer, "cpu.setup", repSpan.id());
            cpu::Core cpuCore(core::withScheme(p.machine, p.scheme), memory);
            cpuCore.loadProgram(program->text);
            cpuCore.setDispatchMeta(program->meta);
            auto t3 = steady::now();
            c += d(t1 - t0).count();
            l += d(t2 - t1).count();
            s += d(t3 - t2).count();
            textBytes_ += program->textBytes();
        }
        compile_.push_back(c);
        load_.push_back(l);
        core_.push_back(s);
        total_.push_back(c + l + s);
    }

    std::vector<Key> keys_;
    uint64_t textBytes_ = 0;
    std::vector<double> total_, compile_, load_, core_;
};

// ---- one repetition of the plan ------------------------------------------------

struct Rep
{
    ExperimentSet set; ///< canonical (seed 0) order
    double wall = 0.0;
    double cpu = 0.0;
    double runPlanSeconds = 0.0;
    double exportSeconds = 0.0;
    size_t exportBytes = 0;
    std::vector<double> geomeans; ///< SCD geomean per step (0 = none)
};

/**
 * Run the permuted plan once and do what a figure driver does with the
 * result: fold it back to paper order, build the grids (which enforce
 * cross-scheme output equality), derive the SCD geomeans, render the
 * figures, and build and render the stats export.
 */
Rep
runRep(const WorkloadDef &def, const CanonicalPlan &canon,
       const ExperimentPlan &permuted, const std::vector<size_t> &order,
       const RunOptions &options, Tracer *tracer)
{
    Rep rep;
    resetGuestCache();
    ScopedSpan root(tracer, "rep");
    const double cpu0 = cpuSeconds();
    const auto t0 = steady::now();

    ExperimentSet ran;
    {
        ScopedSpan span(tracer, "harness.runPlan", root.id());
        ran = runPlan(permuted, options);
    }
    rep.runPlanSeconds = secondsSince(t0);

    {
        ScopedSpan span(tracer, "bench.unpermute", root.id());
        rep.set.points.resize(ran.points.size());
        rep.set.runs.resize(ran.runs.size());
        for (size_t j = 0; j < order.size(); ++j) {
            rep.set.points[order[j]] = std::move(ran.points[j]);
            rep.set.runs[order[j]] = std::move(ran.runs[j]);
        }
        rep.set.jobs = ran.jobs;
        rep.set.totalSeconds = ran.totalSeconds;
    }

    std::vector<ExperimentSet> slices;
    {
        ScopedSpan span(tracer, "harness.figures", root.id());
        const std::vector<std::string> names = workloadNames();
        for (size_t s = 0; s < def.steps.size(); ++s) {
            slices.push_back(bench::sliceSet(
                rep.set, canon.stepBegin[s],
                canon.stepBegin[s + 1] - canon.stepBegin[s]));
            bool usable = true;
            for (const ExperimentRun &r : slices.back().runs)
                usable &= r.usable();
            if (!usable) {
                rep.geomeans.push_back(0.0);
                continue;
            }
            Grid grid = gridFromSet(slices.back());
            rep.geomeans.push_back(grid.geomeanSpeedup(
                def.steps[s].vm, names, core::Scheme::Scd));
            if (def.name == "paper-grid") {
                // Rendered as fig07_10_overall does; the text is dropped.
                renderFig7(grid);
                renderFig8(grid);
                renderFig9(grid);
                renderFig10(grid);
            }
        }
    }

    const auto e0 = steady::now();
    {
        ScopedSpan span(tracer, "obs.export", root.id());
        obs::StatsSink sink("scd_perfbench:" + def.name, "sim");
        for (size_t s = 0; s < def.steps.size(); ++s)
            exportSet(sink, def.steps[s].label, slices[s]);
        rep.exportBytes = sink.render().size();
    }
    rep.exportSeconds = secondsSince(e0);

    rep.wall = secondsSince(t0);
    rep.cpu = cpuSeconds() - cpu0;
    return rep;
}

// ---- correctness -------------------------------------------------------------------

struct Verdict
{
    size_t failed = 0;    ///< points failing any check
    bool geomeansOk = true;
};

Verdict
checkRep(const WorkloadDef &def, const CanonicalPlan &canon, const Rep &rep,
         const std::map<ScriptKey, std::string> &host,
         const std::vector<RefPoint> *ref)
{
    Verdict v;
    for (size_t i = 0; i < rep.set.runs.size(); ++i) {
        const ExperimentRun &run = rep.set.runs[i];
        const ExperimentPoint &p = rep.set.points[i];
        std::string why;
        if (run.status != PointStatus::Ok) {
            why = std::string(pointStatusName(run.status)) + ": " +
                  run.error;
        } else if (run.result.output !=
                   host.at({p.vm, p.workload->name})) {
            why = "guest output differs from the host VM";
        } else if (ref) {
            const size_t row = canon.refIndex[i];
            why = refMismatch((*ref)[row],
                              refPointOf(row, canon.names[i], run.result));
        }
        if (!why.empty()) {
            ++v.failed;
            std::fprintf(stderr, "scd_perfbench: FAILED %s: %s\n",
                         canon.names[i].c_str(), why.c_str());
        }
    }
    // The EXPERIMENTS.md geomeans span all 11 scripts; a timed run's
    // subset is held to the per-point reference instead.
    for (size_t s = 0; s < def.steps.size() && canon.full; ++s) {
        long want = def.steps[s].expectTenths;
        if (want < 0)
            continue;
        long got = std::lround((rep.geomeans[s] - 1.0) * 1000.0);
        if (got != want) {
            v.geomeansOk = false;
            std::fprintf(stderr,
                         "scd_perfbench: %s SCD geomean %+.1f%%, "
                         "EXPERIMENTS.md says %+.1f%%\n",
                         def.steps[s].label.c_str(), double(got) / 10.0,
                         double(want) / 10.0);
        }
    }
    return v;
}

// ---- per-layer profile of the Baseline points -----------------------------------

/**
 * Host time of one (vm, script) Baseline stream taken apart: the direct
 * timed path (Core::run) on the first Baseline machine, then one
 * functional producer (FunctionalCore::runRecorded through
 * RecorderTiming) feeding every distinct Baseline machine's
 * TimingModel::consume, plus standalone replays of the stream through a
 * Btb, a direction predictor, and the two L1 caches.
 */
struct Profile
{
    double direct = 0.0;
    double produce = 0.0;
    double consumeFirst = 0.0; ///< the consumer of the directly-run point
    double consumeAll = 0.0;   ///< every distinct Baseline consumer
    size_t consumers = 0;
    size_t points = 0;
    uint64_t instructions = 0;
    double btbSeconds = 0.0, dirSeconds = 0.0;
    double icacheSeconds = 0.0, dcacheSeconds = 0.0;
    uint64_t btbOps = 0, dirOps = 0, icacheOps = 0, dcacheOps = 0;
    size_t failed = 0;

    void
    add(const Profile &o)
    {
        direct += o.direct;
        produce += o.produce;
        consumeFirst += o.consumeFirst;
        consumeAll += o.consumeAll;
        consumers += o.consumers;
        points += o.points;
        instructions += o.instructions;
        btbSeconds += o.btbSeconds;
        dirSeconds += o.dirSeconds;
        icacheSeconds += o.icacheSeconds;
        dcacheSeconds += o.dcacheSeconds;
        btbOps += o.btbOps;
        dirOps += o.dirOps;
        icacheOps += o.icacheOps;
        dcacheOps += o.dcacheOps;
        failed += o.failed;
    }
};

/** Standalone component replays of one chunk of a Baseline stream. */
struct ComponentReplay
{
    explicit ComponentReplay(const cpu::CoreConfig &cfg)
        : btb(cfg.btb), icache(cfg.icache), dcache(cfg.dcache),
          blockBytes(cfg.icache.blockBytes)
    {
        if (cfg.predictor == cpu::PredictorKind::Tournament) {
            direction = std::make_unique<branch::TournamentPredictor>(
                cfg.globalPredictorEntries, cfg.localPredictorEntries);
        } else {
            direction =
                std::make_unique<branch::GsharePredictor>(cfg.gshareEntries);
        }
    }

    /**
     * Split the chunk into per-component operation lists (a lookup plus
     * an insert per taken branch or jump, a predict/update per
     * conditional, one I$ access per new fetch block, one D$ access per
     * memory operation), then time each list on its own.
     */
    void
    replay(const cpu::RetireInfo *e, size_t n, Profile &prof)
    {
        btbOps.clear();
        dirOps.clear();
        iOps.clear();
        dOps.clear();
        for (size_t i = 0; i < n; ++i) {
            const cpu::RetireInfo &ri = e[i];
            uint64_t block = ri.pc / blockBytes;
            if (block != lastBlock) {
                lastBlock = block;
                iOps.push_back(ri.pc);
            }
            if (ri.hasMem)
                dOps.push_back({ri.memAddr, ri.memIsStore});
            switch (ri.ctrl) {
              case cpu::CtrlKind::Conditional:
                dirOps.push_back({ri.pc, ri.taken});
                btbOps.push_back({ri.pc, 0, false});
                if (ri.taken)
                    btbOps.push_back({ri.pc, ri.nextPc, true});
                break;
              case cpu::CtrlKind::Jal:
              case cpu::CtrlKind::Jru:
                btbOps.push_back({ri.pc, 0, false});
                btbOps.push_back({ri.pc, ri.nextPc, true});
                break;
              case cpu::CtrlKind::Jalr:
                if (!ri.isReturn) {
                    btbOps.push_back({ri.pc, 0, false});
                    btbOps.push_back({ri.pc, ri.nextPc, true});
                }
                break;
              default:
                break;
            }
        }

        auto t0 = steady::now();
        for (const BtbOp &op : btbOps) {
            if (op.insert)
                btb.insertPc(op.pc, op.target);
            else
                btb.lookupPc(op.pc);
        }
        auto t1 = steady::now();
        for (const auto &[pc, taken] : dirOps) {
            direction->predict(pc);
            direction->update(pc, taken);
        }
        auto t2 = steady::now();
        for (uint64_t pc : iOps)
            icache.access(pc);
        auto t3 = steady::now();
        for (const auto &[addr, write] : dOps)
            dcache.access(addr, write);
        auto t4 = steady::now();

        using d = std::chrono::duration<double>;
        prof.btbSeconds += d(t1 - t0).count();
        prof.dirSeconds += d(t2 - t1).count();
        prof.icacheSeconds += d(t3 - t2).count();
        prof.dcacheSeconds += d(t4 - t3).count();
        prof.btbOps += btbOps.size();
        prof.dirOps += 2 * dirOps.size(); // predict + update
        prof.icacheOps += iOps.size();
        prof.dcacheOps += dOps.size();
    }

    struct BtbOp
    {
        uint64_t pc, target;
        bool insert;
    };

    branch::Btb btb;
    std::unique_ptr<branch::DirectionPredictor> direction;
    cache::Cache icache, dcache;
    uint64_t blockBytes;
    uint64_t lastBlock = UINT64_MAX;

    std::vector<BtbOp> btbOps;
    std::vector<std::pair<uint64_t, bool>> dirOps;
    std::vector<uint64_t> iOps;
    std::vector<std::pair<uint64_t, bool>> dOps;
};

/**
 * Profile one (vm, script) group: @p members are canonical indices of
 * its Baseline points with distinct timing configurations, first one
 * also run directly. A member whose consumer cycles differ from its
 * plan result — or, for the first, from Core::run — is a failed point.
 */
Profile
profileGroup(const ExperimentSet &canonical,
             const std::vector<size_t> &members, Tracer *tracer)
{
    Profile prof;
    const ExperimentPoint &first = canonical.points[members[0]];
    ScopedSpan root(tracer, "profile.point", -1, long(members[0]));
    const long rootId = root.id();
    const long pointId = long(members[0]);

    std::shared_ptr<const guest::GuestProgram> program;
    {
        ScopedSpan span(tracer, "guest.compile", rootId, pointId);
        program = compileGuest(first.vm, first.workload->text(first.size),
                               dispatchForScheme(first.scheme));
    }

    // The direct timed path, exactly as runExperiment drives it.
    cpu::RunResult direct;
    {
        mem::GuestMemory memory;
        {
            ScopedSpan span(tracer, "mem.load", rootId, pointId);
            program->loadInto(memory);
        }
        cpu::Core cpuCore(core::withScheme(first.machine, first.scheme),
                          memory);
        {
            ScopedSpan span(tracer, "cpu.setup", rootId, pointId);
            cpuCore.loadProgram(program->text);
            cpuCore.setDispatchMeta(program->meta);
            cpuCore.setDispatchTier(cpu::DispatchTier::Threaded);
        }
        ScopedSpan span(tracer, "cpu.direct", rootId, pointId);
        auto t0 = steady::now();
        direct = cpuCore.run(0);
        prof.direct = secondsSince(t0);
    }

    // Execute once, time many: the replay engine's loop, unrolled here so
    // each side is timed on its own.
    std::vector<cpu::CoreConfig> configs;
    configs.reserve(members.size()); // models keep references into it
    for (size_t idx : members) {
        const ExperimentPoint &p = canonical.points[idx];
        configs.push_back(core::withScheme(p.machine, p.scheme));
    }
    std::vector<std::unique_ptr<cpu::TimingModel>> models;
    for (const cpu::CoreConfig &cfg : configs)
        models.push_back(cpu::makeTimingModel(cfg));
    std::vector<double> consumeSeconds(models.size(), 0.0);
    ComponentReplay components(configs[0]);

    mem::GuestMemory memory;
    program->loadInto(memory);
    cpu::RecorderTiming recorder;
    cpu::FunctionalCore func(configs[0], memory, recorder);
    func.loadProgram(program->text);
    func.setDispatchMeta(program->meta);
    func.setDispatchTier(cpu::DispatchTier::Threaded);

    std::vector<cpu::RetireInfo> chunk(cpu::RetireChunk::kCapacity);
    {
        ScopedSpan span(tracer, "cpu.replay", rootId, pointId);
        for (;;) {
            auto t0 = steady::now();
            size_t n = func.runRecorded(chunk.data(), chunk.size());
            prof.produce += secondsSince(t0);
            for (size_t k = 0; k < models.size(); ++k) {
                auto c0 = steady::now();
                models[k]->consume(chunk.data(), n);
                consumeSeconds[k] += secondsSince(c0);
            }
            components.replay(chunk.data(), n, prof);
            if (func.exited() || n == 0)
                break;
        }
    }

    prof.consumeFirst = consumeSeconds[0];
    for (double s : consumeSeconds)
        prof.consumeAll += s;
    prof.consumers = models.size();
    prof.points = 1;
    prof.instructions = direct.instructions;

    // Each member is one checked operation and fails at most once.
    std::vector<std::string> why(models.size());
    if (models[0]->cycles() != direct.cycles)
        why[0] = "consumer cycles differ from Core::run cycles";
    else if (func.retired() != direct.instructions)
        why[0] = "producer retired count differs from Core::run";
    for (size_t k = 0; k < models.size(); ++k) {
        const ExperimentRun &run = canonical.runs[members[k]];
        if (why[k].empty() && run.usable() &&
            models[k]->cycles() != run.result.run.cycles)
            why[k] = "consumer cycles differ from the plan result";
        if (why[k].empty())
            continue;
        ++prof.failed;
        std::fprintf(stderr, "scd_perfbench: FAILED profile %s: %s\n",
                     canonical.points[members[k]].label().c_str(),
                     why[k].c_str());
    }
    return prof;
}

/** Profile every (vm, script) Baseline group of @p canonical in parallel. */
Profile
profileBaselines(const ExperimentSet &canonical, unsigned jobs,
                 Tracer *tracer)
{
    std::map<ScriptKey, std::vector<size_t>> groups;
    std::set<std::string> seen;
    for (size_t i = 0; i < canonical.points.size(); ++i) {
        const ExperimentPoint &p = canonical.points[i];
        if (p.scheme != core::Scheme::Baseline)
            continue;
        // pointKey folds every timing-relevant machine field: equal keys
        // (e.g. a baseline under two JTE caps) would consume identically.
        if (!seen.insert(pointKey(p)).second)
            continue;
        groups[{p.vm, p.workload->name}].push_back(i);
    }
    std::vector<std::vector<size_t>> work;
    for (auto &entry : groups)
        work.push_back(std::move(entry.second));

    std::vector<Profile> profiles(work.size());
    parallelFor(jobs, work.size(), [&](size_t g) {
        try {
            profiles[g] = profileGroup(canonical, work[g], tracer);
        } catch (const std::exception &e) {
            profiles[g] = Profile{};
            profiles[g].consumers = work[g].size();
            profiles[g].failed = work[g].size();
            std::fprintf(stderr, "scd_perfbench: FAILED profile: %s\n",
                         e.what());
        }
    });
    Profile total;
    for (const Profile &p : profiles)
        total.add(p);
    return total;
}

// ---- metrics -----------------------------------------------------------------------

struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>> list;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        list.push_back({name, {value, unit}});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < list.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", list[i].second.first);
            out += (i ? ", \"" : "\"") + list[i].first +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   list[i].second.second + "\"}";
        }
        return out + "}";
    }
};

uint64_t
sumCounter(const ExperimentSet &set, const std::string &name,
           std::optional<core::Scheme> scheme = std::nullopt)
{
    uint64_t total = 0;
    for (size_t i = 0; i < set.runs.size(); ++i) {
        if (!scheme || set.points[i].scheme == *scheme)
            total += set.runs[i].result.stats.get(name);
    }
    return total;
}

/** Per-layer metrics of the traced repetition plus the profile. */
void
addLayerMetrics(Metrics &m, const Rep &traced, double untracedWall,
                const SetupTimes &setup, const Profile &prof,
                const Tracer &tracer)
{
    const ExperimentSet &set = traced.set;

    // harness: pool balance and replay sharing.
    double busy = 0.0;
    std::vector<double> pointSeconds;
    for (const ExperimentRun &r : set.runs) {
        busy += r.seconds;
        if (r.seconds > 0) // replay copies have no wall time of their own
            pointSeconds.push_back(r.seconds);
    }
    std::map<std::string, size_t> groups;
    for (const ExperimentPoint &p : set.points)
        ++groups[replayGroupKey(p)];
    size_t shared = 0, sharedPoints = 0;
    for (const auto &[key, count] : groups) {
        if (count > 1) {
            ++shared;
            sharedPoints += count;
        }
    }
    Tail tail = tailPercentile(pointSeconds).value_or(Tail{});
    m.add("harness.busy_s", busy, "s");
    m.add("harness.pool_util",
          busy / (double(set.jobs) * traced.runPlanSeconds), "ratio");
    m.add("harness.point_p50_s", median(pointSeconds), "s");
    m.add("harness.point_tail_s", tail.value, "s");
    m.add("harness.point_tail_pct", tail.pct, "%");
    m.add("harness.point_tail_beyond", double(tail.beyond), "count");
    m.add("harness.timed_points", double(pointSeconds.size()), "count");
    m.add("harness.replay_groups", double(shared), "count");
    m.add("harness.replay_share",
          shared ? double(sharedPoints) / double(shared) : 1.0,
          "points/group");

    // guest, mem, cpu set-up (cold cache, median of the set-up reps).
    m.add("guest.compile_s", setup.compile, "s");
    m.add("guest.keys", double(setup.keys), "count");
    m.add("guest.text_bytes", double(setup.textBytes), "bytes");
    m.add("mem.load_s", setup.load, "s");
    m.add("cpu.setup_s", setup.core, "s");

    // cpu, run: host time of the simulated points and the Baseline split.
    double runSeconds = 0.0;
    uint64_t timedInst = 0;
    for (const ExperimentRun &r : set.runs) {
        if (r.seconds > 0) {
            runSeconds += r.result.simSeconds;
            timedInst += r.result.run.instructions;
        }
    }
    m.add("cpu.run_s", runSeconds, "s");
    m.add("cpu.host_ns_per_inst",
          timedInst ? runSeconds * 1e9 / double(timedInst) : 0.0, "ns");
    m.add("cpu.direct_s", prof.direct, "s");
    m.add("cpu.produce_s", prof.produce, "s");
    m.add("cpu.consume_s", prof.consumeFirst, "s");
    m.add("cpu.interleave_s", prof.direct - prof.produce - prof.consumeFirst,
          "s");
    m.add("cpu.consume_all_s", prof.consumeAll, "s");
    m.add("cpu.profiled_points", double(prof.points), "count");
    m.add("cpu.profiled_consumers", double(prof.consumers), "count");
    m.add("cpu.direct_ns_per_inst",
          prof.instructions ? prof.direct * 1e9 / double(prof.instructions)
                            : 0.0,
          "ns");

    // Simulated counts (must repeat exactly across commits).
    uint64_t retired = 0, cycles = 0;
    for (const ExperimentRun &r : set.runs) {
        retired += r.result.run.instructions;
        cycles += r.result.run.cycles;
    }
    m.add("cpu.retired", double(retired), "count");
    m.add("cpu.cycles", double(cycles), "count");
    m.add("cpu.ipc", cycles ? double(retired) / double(cycles) : 0.0,
          "inst/cycle");
    m.add("cpu.dispatch_frac",
          retired ? double(sumCounter(set, "dispatchInstructions")) /
                        double(retired)
                  : 0.0,
          "ratio");
    m.add("cpu.load_use_stalls", double(sumCounter(set, "loadUseStalls")),
          "count");

    // branch: standalone host cost and simulated outcomes.
    auto ns = [](double seconds, uint64_t ops) {
        return ops ? seconds * 1e9 / double(ops) : 0.0;
    };
    m.add("branch.btb_ns_per_op", ns(prof.btbSeconds, prof.btbOps), "ns");
    m.add("branch.dir_ns_per_op", ns(prof.dirSeconds, prof.dirOps), "ns");
    uint64_t mispredicts = 0;
    for (size_t c = 0; c < size_t(cpu::BranchClass::NumClasses); ++c) {
        std::string cls = cpu::branchClassName(cpu::BranchClass(c));
        uint64_t n = sumCounter(set, "branch." + cls + ".mispredicted");
        mispredicts += n;
        m.add("branch.mispredicts." + cls, double(n), "count");
    }
    m.add("branch.mpki",
          retired ? 1000.0 * double(mispredicts) / double(retired) : 0.0,
          "1/kinst");
    uint64_t hits = sumCounter(set, "scd.bopFastHits");
    uint64_t probes = hits + sumCounter(set, "scd.bopMisses");
    m.add("scd.bop_hit_rate", probes ? double(hits) / double(probes) : 0.0,
          "ratio");
    m.add("scd.jte_inserts", double(sumCounter(set, "scd.jteInserts")),
          "count");
    m.add("btb.jte_evicted_branch",
          double(sumCounter(set, "btb.jteEvictedBranch")), "count");
    m.add("frontend.false_hits_jte",
          double(sumCounter(set, "frontend.falseHits.jte")), "count");

    // cache: standalone host cost and simulated outcomes.
    m.add("cache.icache_ns_per_access",
          ns(prof.icacheSeconds, prof.icacheOps), "ns");
    m.add("cache.dcache_ns_per_access",
          ns(prof.dcacheSeconds, prof.dcacheOps), "ns");
    for (const char *name : {"icache.accesses", "icache.misses",
                             "dcache.accesses", "dcache.misses",
                             "dtlb.misses"}) {
        m.add(name, double(sumCounter(set, name)), "count");
    }

    // obs: building and rendering the stats export.
    m.add("obs.export_s", traced.exportSeconds, "s");
    m.add("obs.export_bytes", double(traced.exportBytes), "bytes");

    // The traced repetition against the untraced ones.
    m.add("trace.overhead_s", traced.wall - untracedWall, "s");
    m.add("trace.spans", double(tracer.spans().size()), "count");
}

// ---- command line ------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string ref;
    std::string traceOut;
    bool writeRef = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "scd_perfbench: %s\nusage: scd_perfbench --workload "
                 "paper-grid|btb-sweep|frontend-sweep --seed N --seconds S "
                 "--trace 0|1 --ref FILE [--trace-out FILE] [--write-ref]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--write-ref") {
            a.writeRef = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("bad --seed");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(a.seconds >= 0))
                usage("bad --seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace");
            a.trace = value == "1";
        } else if (flag == "--ref") {
            a.ref = value;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || a.ref.empty())
        usage("--workload and --ref are required");
    return a;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::optional<WorkloadDef> def = workloadByName(args.workload);
    if (!def)
        usage(("unknown workload " + args.workload).c_str());
    const CanonicalPlan canon =
        buildPlan(*def, args.writeRef ? nullptr : &kTimedScripts);
    const size_t n = canon.plan.size();

    std::vector<RefPoint> ref;
    if (!args.writeRef) {
        std::string text;
        std::optional<std::vector<RefPoint>> parsed;
        if (!readFile(args.ref, text) || !(parsed = parseRef(text)) ||
            parsed->size() != canon.refRows) {
            std::fprintf(stderr,
                         "scd_perfbench: cannot use reference %s (%zu "
                         "points expected)\n",
                         args.ref.c_str(), canon.refRows);
            return 1;
        }
        ref = std::move(*parsed);
    }

    // Everything below the timed regions' inputs is fixed by the seed.
    const std::vector<size_t> order = planOrder(n, args.seed);
    ExperimentPlan permuted;
    for (size_t idx : order)
        permuted.add(canon.plan.points()[idx]);
    RunOptions options;
    // Timed runs use one worker (see the file comment); writing a
    // reference is untimed and covers the full plan, so it uses them all.
    options.jobs = args.writeRef
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : 1u;
    options.replay = true;
    options.dispatchTier = cpu::DispatchTier::Threaded;

    std::fprintf(stderr,
                 "scd_perfbench: %s, %zu points, seed %llu, %u jobs\n",
                 def->name.c_str(), n, (unsigned long long)args.seed,
                 options.jobs);

    // The host-VM oracle, outside every timed region.
    const std::map<ScriptKey, std::string> host = hostOutputs(canon.plan);

    Tracer tracer;
    Tracer *tracing = args.trace ? &tracer : nullptr;
    // A set-up takes 5-20 ms: it is repeated in a burst of this length
    // before every plan repetition and after the last one.
    constexpr double kSetupBurstSeconds = 0.5;
    SetupSampler setup(canon.plan);

    // Untraced repetitions while the next one still fits in --seconds of
    // plan wall time (at least one); the traced run needs only one as its
    // untraced baseline. Peak memory is taken after the first repetition:
    // later ones only add allocator noise, not a larger working set.
    std::vector<Rep> reps;
    double measured = 0.0, peakRss = 0.0;
    for (;;) {
        setup.sample(kSetupBurstSeconds, tracing);
        reps.push_back(
            runRep(*def, canon, permuted, order, options, nullptr));
        measured += reps.back().wall;
        std::fprintf(stderr, "scd_perfbench: rep %zu: %.3f s wall, %.3f s cpu\n",
                     reps.size(), reps.back().wall, reps.back().cpu);
        if (reps.size() == 1)
            peakRss = peakRssMb();
        const double next = measured / double(reps.size());
        if (args.writeRef || args.trace || measured + next > args.seconds)
            break;
    }
    setup.sample(kSetupBurstSeconds, tracing);

    size_t attempted = 0, failed = 0;
    bool geomeansOk = true;
    for (const Rep &rep : reps) {
        Verdict v = checkRep(*def, canon, rep, host,
                             args.writeRef ? nullptr : &ref);
        attempted += n;
        failed += v.failed;
        geomeansOk &= v.geomeansOk;
    }

    if (args.writeRef) {
        if (failed || !geomeansOk) {
            std::fprintf(stderr, "scd_perfbench: not writing a reference "
                                 "from a run that fails its checks\n");
            return 1;
        }
        std::ofstream out(args.ref);
        out << "# scd_perfbench reference: " << def->name << ", " << n
            << " points at --size=sim\n"
            << "# index\tstep:label\tinstructions\tcycles\tcounters\t"
               "digest\n";
        for (size_t i = 0; i < n; ++i) {
            out << formatRef(refPointOf(i, canon.names[i],
                                        reps[0].set.runs[i].result))
                << "\n";
        }
        if (!out) {
            std::fprintf(stderr, "scd_perfbench: cannot write %s\n",
                         args.ref.c_str());
            return 1;
        }
        std::fprintf(stderr, "scd_perfbench: wrote %s\n", args.ref.c_str());
        return 0;
    }

    std::vector<double> walls, cpus;
    for (const Rep &rep : reps) {
        walls.push_back(rep.wall);
        cpus.push_back(rep.cpu);
    }
    const double wall = median(walls);
    uint64_t retired = 0;
    for (const ExperimentRun &r : reps[0].set.runs)
        retired += r.result.run.instructions;

    Metrics metrics;
    if (!args.trace) {
        metrics.add("wall_s", wall, "s");
        metrics.add("cpu_s", median(cpus), "s");
        metrics.add("sim_mips", double(retired) / wall / 1e6, "Minst/s");
        metrics.add("setup_s", setup.times().total, "s");
        metrics.add("peak_rss_mb", peakRss, "MB");
    } else {
        Rep traced = runRep(*def, canon, permuted, order, options, &tracer);
        Verdict v = checkRep(*def, canon, traced, host, &ref);
        attempted += n;
        failed += v.failed;
        geomeansOk &= v.geomeansOk;

        Profile prof =
            profileBaselines(traced.set, options.jobs, &tracer);
        attempted += prof.consumers;
        failed += prof.failed;
        addLayerMetrics(metrics, traced, wall, setup.times(), prof, tracer);

        if (!args.traceOut.empty()) {
            std::ofstream out(args.traceOut);
            out << tracer.json();
            if (!out) {
                std::fprintf(stderr, "scd_perfbench: cannot write %s\n",
                             args.traceOut.c_str());
                return 1;
            }
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 && geomeansOk ? "true" : "false", attempted,
                failed, metrics.json().c_str());
    return 0;
}
