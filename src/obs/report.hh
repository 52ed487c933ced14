/**
 * @file
 * The run-diff regression gate: compares two stats documents produced by
 * StatsSink (schema scd-stats-v1), prints a shape report in DESIGN.md §6
 * terms — who wins, in which direction, and by which factor — and flags
 * every headline metric that moved past a configurable tolerance. The
 * bench/scd_report CLI is a thin wrapper; CI runs it against a checked-in
 * golden so silent regressions in SCD speedup (or any derived shape)
 * fail the build.
 */

#ifndef SCD_OBS_REPORT_HH
#define SCD_OBS_REPORT_HH

#include <string>
#include <vector>

#include "json.hh"

namespace scd::obs
{

/** Knobs of compareRuns(). */
struct ReportOptions
{
    /**
     * Maximum relative move of a headline metric (derived speedups,
     * instruction ratios, scalar metrics) before it counts as a
     * regression. The simulator is deterministic, so a golden diff in CI
     * is exactly zero unless the modelled behaviour changed; the default
     * tolerates refactoring-scale noise while catching real shifts.
     * A NaN, infinite or negative tolerance fails the comparison.
     */
    double tolerance = 0.02;

    /** Also list per-point instruction/cycle movements (informational). */
    bool verbose = true;
};

/** Outcome of one comparison. */
struct ReportResult
{
    std::string text; ///< printable shape + diff report
    std::vector<std::string> failures;

    bool regressed() const { return !failures.empty(); }
};

/**
 * Diff @p current against @p baseline. Both must be scd-stats-v1
 * documents; schema or structural mismatches count as failures.
 */
ReportResult compareRuns(const JsonValue &baseline,
                         const JsonValue &current,
                         const ReportOptions &options = {});

/**
 * Render the shape of a single stats document (who wins per vm, in which
 * direction, by which factor) without comparing it to anything.
 */
std::string shapeSummary(const JsonValue &run);

/** Read and parse @p path; false with a message in @p error on failure. */
bool loadStatsFile(const std::string &path, JsonValue &out,
                   std::string *error);

} // namespace scd::obs

#endif // SCD_OBS_REPORT_HH
