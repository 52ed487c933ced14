/**
 * @file
 * The parallel experiment engine. A figure or sweep first enumerates
 * every (vm, workload, input size, scheme, machine) point it needs into
 * an ExperimentPlan, then executes the plan with runPlan(): points run
 * concurrently through parallelFor (each simulation owns its private
 * GuestMemory and Core, so there is no shared mutable state), and the
 * resulting ExperimentSet stores results in plan order — output derived
 * from a set is byte-identical whatever the job count.
 */

#ifndef SCD_HARNESS_EXPERIMENT_HH
#define SCD_HARNESS_EXPERIMENT_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "runner.hh"

namespace scd::harness
{

/** One independent simulation in a plan. */
struct ExperimentPoint
{
    VmKind vm = VmKind::Rlua;
    const Workload *workload = nullptr; ///< borrowed from workloads()
    InputSize size = InputSize::Sim;
    core::Scheme scheme = core::Scheme::Baseline;
    cpu::CoreConfig machine;
    uint64_t maxInstructions = 0;

    /** "vm/workload/scheme@machine", for progress and error messages. */
    std::string label() const;
};

/** An ordered list of simulation points; order defines result order. */
class ExperimentPlan
{
  public:
    void
    add(ExperimentPoint point)
    {
        points_.push_back(std::move(point));
    }

    /**
     * Enumerate the full vm x workload x scheme cross product on one
     * machine, workloads in paper order, schemes innermost.
     */
    void addGrid(const cpu::CoreConfig &machine, InputSize size,
                 const std::vector<VmKind> &vms,
                 const std::vector<core::Scheme> &schemes);

    size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }
    const std::vector<ExperimentPoint> &points() const { return points_; }

  private:
    std::vector<ExperimentPoint> points_;
};

/**
 * How one point of a plan ended. Only an Ok point's result holds real
 * data; Failed and TimedOut points carry a default-constructed result
 * plus diagnostic text in ExperimentRun::error.
 */
enum class PointStatus
{
    Ok,       ///< completed normally
    Failed,   ///< FatalError / guest failure / allocation failure
    TimedOut, ///< cancelled by the per-point wall-clock watchdog
};

/** Stable lower-case name, as exported in the failure manifest. */
const char *pointStatusName(PointStatus status);

/** One executed point: the simulation result plus its wall time. */
struct ExperimentRun
{
    ExperimentResult result;
    double seconds = 0.0; ///< wall time of this point
    PointStatus status = PointStatus::Ok;
    std::string error; ///< diagnostic text for non-Ok statuses

    /** True when result holds real data (status Ok). */
    bool usable() const { return status == PointStatus::Ok; }
};

/** All results of a plan, in plan order. */
struct ExperimentSet
{
    std::vector<ExperimentPoint> points;
    std::vector<ExperimentRun> runs; ///< parallel array to points
    unsigned jobs = 1;               ///< worker count actually used
    double totalSeconds = 0.0;       ///< wall time of the whole plan

    const ExperimentResult &
    at(size_t i) const
    {
        return runs[i].result;
    }

    /** Count of points that did not finish cleanly (status != Ok). */
    size_t troubled() const;
};

/**
 * The process exit-code contract every bench driver follows (see
 * harness::finishRun in json_export.hh, which applies it in one place):
 * kExitOk for a clean run, kExitExportFailure when the --json export
 * could not be written, kExitTroubled when any experiment point ended
 * non-Ok (failed or timed out). Export failure outranks
 * troubled points: a document that was never written is the more
 * urgent signal.
 */
enum : int
{
    kExitOk = 0,
    kExitExportFailure = 1,
    kExitTroubled = 2,
};

/**
 * Print one warn() line per non-Ok point of each set and return a
 * process exit code: kExitOk when every point of every set is Ok,
 * kExitTroubled otherwise. The bench drivers call this so a partial
 * figure never masquerades as a clean run.
 */
int reportTroubledPoints(const std::vector<const ExperimentSet *> &sets);

/** Execution knobs for runPlan(). */
struct RunOptions
{
    /** 0 = auto: SCD_JOBS if set, else std::thread::hardware_concurrency. */
    unsigned jobs = 0;
    bool verbose = false; ///< per-point progress on stderr

    /** Ignored by runPlan(); perfbench/scd_perfbench.cc still sets it. */
    bool replay = true;

    /**
     * Per-point wall-clock deadline in seconds (--point-timeout=, see
     * parsePointTimeout()); expired points are classified TimedOut
     * instead of aborting the plan. 0 = unlimited.
     */
    double pointTimeout = 0.0;

    /**
     * Execution tier of every point's Core::run (Core::setDispatchTier).
     * Host-speed only — results are bit-identical across tiers
     * (cpu/dispatch_tier.hh) — so it is not part of pointKey(). Tests
     * pin Switch as the reference.
     */
    cpu::DispatchTier dispatchTier = cpu::DispatchTier::Threaded;
};

/**
 * Parse a worker count (--jobs=N, $SCD_JOBS): true, with @p jobs set,
 * iff @p text is a whole positive decimal integer that fits an
 * unsigned; "2x", "", "0" and "-3" leave @p jobs untouched.
 */
bool parseJobCount(const char *text, unsigned &jobs);

/**
 * Resolve a requested job count: a positive @p requested wins, then a
 * positive integer in $SCD_JOBS, then the hardware concurrency (>= 1).
 */
unsigned resolveJobs(unsigned requested);

/**
 * Parse a per-point deadline in seconds (--point-timeout=S): true, with
 * @p seconds set, iff all of @p text is a finite positive number in
 * decimal notation; "inf", "nan", "1e999", "5s", "" and "0" leave
 * @p seconds untouched.
 */
bool parsePointTimeout(const char *text, double &seconds);

/**
 * Execute one point on its own through runWorkload (Core::run on
 * options.dispatchTier), timing its wall clock. FatalError,
 * TimeoutError and bad_alloc become a non-Ok PointStatus with
 * diagnostic text instead of propagating.
 */
ExperimentRun runPointContained(const ExperimentPoint &point,
                                const RunOptions &options);

/**
 * Execute every point of @p plan; results land in plan order. Points
 * with equal pointKey()s (src/harness/replay.hh) run once: the first
 * point of each key runs through runPointContained() and every later
 * one copies its run with seconds = 0. Point failures (guest errors,
 * timeouts, allocation failures) are contained: the failing point is
 * recorded with a non-Ok PointStatus and the rest of the plan still
 * runs. Internal simulator bugs (panic) still abort.
 */
ExperimentSet runPlan(const ExperimentPlan &plan,
                      const RunOptions &options = {});

} // namespace scd::harness

#endif // SCD_HARNESS_EXPERIMENT_HH
