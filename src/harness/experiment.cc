#include "experiment.hh"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "pool.hh"
#include "replay.hh"

namespace scd::harness
{

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
      case PointStatus::Degraded:
        return "degraded";
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

ExperimentSet
runPlan(const ExperimentPlan &plan, const RunOptions &options)
{
    using clock = std::chrono::steady_clock;

    ExperimentSet set;
    set.points = plan.points();
    set.runs.resize(set.points.size());

    auto planStart = clock::now();
    runPlanReplay(set, options);
    set.totalSeconds =
        std::chrono::duration<double>(clock::now() - planStart).count();
    return set;
}

} // namespace scd::harness
