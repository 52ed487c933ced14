/**
 * @file
 * Shared machinery for regenerating the paper's figures and tables: the
 * (vm x workload x scheme) simulation grid, per-figure table printers with
 * the paper's reference numbers alongside, and the sensitivity sweeps.
 */

#ifndef SCD_HARNESS_FIGURES_HH
#define SCD_HARNESS_FIGURES_HH

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "experiment.hh"
#include "runner.hh"

namespace scd::harness
{

/** Key of one grid cell. */
struct GridKey
{
    VmKind vm;
    std::string workload;
    core::Scheme scheme;

    bool
    operator<(const GridKey &o) const
    {
        return std::tie(vm, workload, scheme) <
               std::tie(o.vm, o.workload, o.scheme);
    }
};

/** The (vm x workload x scheme) result grid. */
class Grid
{
  public:
    void
    put(GridKey key, ExperimentResult result)
    {
        cells_.emplace(std::move(key), std::move(result));
    }

    const ExperimentResult &at(VmKind vm, const std::string &workload,
                               core::Scheme scheme) const;

    bool
    has(VmKind vm, const std::string &workload, core::Scheme scheme) const
    {
        return cells_.count({vm, workload, scheme}) != 0;
    }

    /** Cycle-count speedup of @p scheme over the baseline. */
    double speedup(VmKind vm, const std::string &workload,
                   core::Scheme scheme) const;

    /** Retired-instruction ratio of @p scheme vs the baseline. */
    double instRatio(VmKind vm, const std::string &workload,
                     core::Scheme scheme) const;

    /** Geomean of speedups across @p names. */
    double geomeanSpeedup(VmKind vm, const std::vector<std::string> &names,
                          core::Scheme scheme) const;

  private:
    std::map<GridKey, ExperimentResult> cells_;
};

/** An executed grid together with the raw set it was folded from. */
struct GridRun
{
    ExperimentSet set;
    Grid grid;
};

/**
 * Run the full grid for @p vms x @p schemes over all 11 workloads and
 * hand back both the Grid and the executed ExperimentSet (for binaries
 * that render figures *and* export the raw points to JSON). Points
 * execute concurrently on options.jobs workers; the grid contents — and
 * therefore every figure rendered from it — are identical whatever the
 * job count.
 */
GridRun runGridSet(const cpu::CoreConfig &machine, InputSize size,
                   const std::vector<VmKind> &vms,
                   const std::vector<core::Scheme> &schemes,
                   const RunOptions &options);

/**
 * Fold an executed ExperimentSet into a Grid, enforcing the cross-scheme
 * output-equality correctness net in plan order. Failed or timed-out
 * points are left out of the grid — the renderers print an explicit
 * failure marker (kFailedCell) for the missing cells instead of
 * aborting the figure.
 */
Grid gridFromSet(const ExperimentSet &set);

/** Cell marker rendered in place of a failed or timed-out point. */
inline constexpr const char *kFailedCell = "FAILED";

/** Names of all workloads, in paper order. */
std::vector<std::string> workloadNames();

// --- per-figure renderers (all return printable text) ----------------------

/** Figure 2: branch MPKI breakdown by branch class (baseline, RLua). */
std::string renderFig2(const Grid &grid);

/** Figure 3: fraction of dispatcher instructions (baseline, RLua). */
std::string renderFig3(const Grid &grid);

/** Figure 7: speedups of JT / VBBI / SCD over baseline, both VMs. */
std::string renderFig7(const Grid &grid);

/** Figure 8: normalized dynamic instruction counts. */
std::string renderFig8(const Grid &grid);

/** Figure 9: branch misprediction MPKI per scheme. */
std::string renderFig9(const Grid &grid);

/** Figure 10: I-cache miss MPKI per scheme. */
std::string renderFig10(const Grid &grid);

/** Table IV: rocket-config instruction/cycle counts and savings. */
std::string renderTable4(const Grid &grid);

} // namespace scd::harness

#endif // SCD_HARNESS_FIGURES_HH
