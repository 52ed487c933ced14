#include "experiment.hh"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <thread>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "pool.hh"
#include "replay.hh"

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

} // namespace

const char *
pointStatusName(PointStatus status)
{
    switch (status) {
      case PointStatus::Ok:
        return "ok";
      case PointStatus::Failed:
        return "failed";
      case PointStatus::TimedOut:
        return "timed_out";
    }
    return "unknown";
}

size_t
ExperimentSet::troubled() const
{
    size_t n = 0;
    for (const ExperimentRun &run : runs)
        n += run.status != PointStatus::Ok;
    return n;
}

int
reportTroubledPoints(const std::vector<const ExperimentSet *> &sets)
{
    size_t troubled = 0;
    for (const ExperimentSet *set : sets) {
        for (size_t i = 0; i < set->runs.size(); ++i) {
            const ExperimentRun &run = set->runs[i];
            if (run.status == PointStatus::Ok)
                continue;
            ++troubled;
            warn("point ", set->points[i].label(), " ",
                 pointStatusName(run.status),
                 run.error.empty() ? "" : ": ", run.error);
        }
    }
    return troubled == 0 ? kExitOk : kExitTroubled;
}

std::string
ExperimentPoint::label() const
{
    std::string out = vmName(vm);
    out += '/';
    out += workload ? workload->name : "<null>";
    out += '/';
    out += core::schemeName(scheme);
    out += '@';
    out += machine.name;
    return out;
}

void
ExperimentPlan::addGrid(const cpu::CoreConfig &machine, InputSize size,
                        const std::vector<VmKind> &vms,
                        const std::vector<core::Scheme> &schemes)
{
    for (VmKind vm : vms) {
        for (const Workload &w : workloads()) {
            for (core::Scheme scheme : schemes) {
                ExperimentPoint p;
                p.vm = vm;
                p.workload = &w;
                p.size = size;
                p.scheme = scheme;
                p.machine = machine;
                points_.push_back(std::move(p));
            }
        }
    }
}

bool
parseJobCount(const char *text, unsigned &jobs)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || v <= 0 ||
        v > long(UINT_MAX))
        return false;
    jobs = unsigned(v);
    return true;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("SCD_JOBS")) {
        unsigned jobs = 0;
        if (parseJobCount(env, jobs))
            return jobs;
        warn("ignoring SCD_JOBS='", env, "' (want a positive integer)");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

bool
parsePointTimeout(const char *text, double &seconds)
{
    // strtod alone would also take "inf", "nan", hex floats and leading
    // blanks; only plain decimal notation is a deadline. Overflow
    // ("1e999") sets ERANGE.
    if (text[std::strspn(text, "0123456789.eE+-")] != '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 || v <= 0.0)
        return false;
    seconds = v;
    return true;
}

ExperimentRun
runPointContained(const ExperimentPoint &point, const RunOptions &options)
{
    SCD_ASSERT(point.workload, "experiment point without a workload");
    ExperimentRun run;
    auto start = steady::now();
    try {
        faultinj::hit("point-oom");
        if (options.verbose)
            printProgress(point);
        run.result = runWorkload(point.vm, *point.workload, point.size,
                                 point.scheme, point.machine,
                                 point.maxInstructions, nullptr,
                                 options.pointTimeout, options.dispatchTier);
    } catch (const TimeoutError &e) {
        run.status = PointStatus::TimedOut;
        run.error = e.what();
    } catch (const FatalError &e) {
        run.status = PointStatus::Failed;
        run.error = e.what();
    } catch (const std::bad_alloc &) {
        run.status = PointStatus::Failed;
        run.error = "out of memory";
    }
    run.seconds = secondsSince(start);
    return run;
}

ExperimentSet
runPlan(const ExperimentPlan &plan, const RunOptions &options)
{
    auto planStart = steady::now();
    ExperimentSet set;
    set.points = plan.points();
    set.runs.resize(set.points.size());

    // Equal points run once: the first point of each pointKey becomes a
    // task, every later one copies its run.
    std::map<std::string, size_t> firstWithKey;
    std::vector<size_t> representative(set.points.size());
    std::vector<size_t> tasks;
    for (size_t i = 0; i < set.points.size(); ++i) {
        SCD_ASSERT(set.points[i].workload,
                   "experiment point without a workload");
        representative[i] =
            firstWithKey.try_emplace(pointKey(set.points[i]), i)
                .first->second;
        if (representative[i] == i)
            tasks.push_back(i);
    }

    set.jobs = resolveJobs(options.jobs);
    // No point spinning up more workers than there are tasks.
    if (tasks.size() < set.jobs)
        set.jobs = tasks.empty() ? 1 : unsigned(tasks.size());
    parallelFor(set.jobs, tasks.size(), [&](size_t t) {
        set.runs[tasks[t]] = runPointContained(set.points[tasks[t]], options);
    });

    // A duplicate shares its representative's run, whatever its status.
    for (size_t i = 0; i < set.points.size(); ++i) {
        if (representative[i] != i) {
            set.runs[i] = set.runs[representative[i]];
            set.runs[i].seconds = 0.0; // no wall time of its own
        }
    }
    set.totalSeconds = secondsSince(planStart);
    return set;
}

} // namespace scd::harness
