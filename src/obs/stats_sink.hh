/**
 * @file
 * Machine-readable experiment export: StatsSink collects the points of
 * one or more executed experiment sets (vm, workload, scheme, machine,
 * instruction/cycle counts, and the full StatGroup counter set) plus run
 * metadata and serializes everything to a stable, versioned JSON schema.
 *
 * Determinism contract: render() depends only on the recorded point data
 * and metadata — never on wall time, job count, or completion order — so
 * a plan run serially and the same plan run on N workers serialize to
 * byte-identical documents. The run-diff regression gate (report.hh,
 * bench/scd_report) builds on that property.
 *
 * Schema (kStatsSchema = "scd-stats-v1"):
 *   {
 *     "schema": "scd-stats-v1",
 *     "bench": "<binary name>",
 *     "size": "test|sim|fpga",
 *     "meta": {"gitRev": "...", ...},             // informational only
 *     "metrics": {"<name>": <number>, ...},       // scalar headline metrics
 *     "sets": [
 *       {
 *         "label": "<set label>",
 *         "points": [
 *           {"vm": "...", "workload": "...", "scheme": "...",
 *            "machine": "...", "instructions": N, "cycles": N,
 *            "counters": {"<stat>": N, ...}}
 *         ],
 *         "failures": [                           // only when non-empty:
 *           {"vm": "...", "workload": "...",      // points that did not
 *            "scheme": "...", "machine": "...",   // finish cleanly
 *            "status": "failed|timed_out",
 *            "error": "<diagnostic>"}
 *         ],
 *         "derived": {                            // present when a
 *           "<vm>": {                             // baseline point exists
 *             "<scheme>": {
 *               "geomeanSpeedup": X,
 *               "speedup": {"<workload>": X, ...},
 *               "instRatio": {"<workload>": X, ...}
 *             }
 *           }
 *         }
 *       }
 *     ]
 *   }
 */

#ifndef SCD_OBS_STATS_SINK_HH
#define SCD_OBS_STATS_SINK_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace scd::obs
{

/** Schema identifier written to (and required of) every stats document. */
inline constexpr const char *kStatsSchema = "scd-stats-v1";

/** The git revision baked in at configure time ("unknown" outside git). */
const char *buildGitRev();

/** One simulation point as exported. */
struct PointRecord
{
    std::string vm;
    std::string workload;
    std::string scheme;
    std::string machine;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    StatGroup counters;
};

/**
 * One point that did not finish cleanly. Failed and timed-out points
 * carry no data (they are absent from the points array).
 */
struct FailureRecord
{
    std::string vm;
    std::string workload;
    std::string scheme;
    std::string machine;
    std::string status; ///< pointStatusName(): failed|timed_out
    std::string error;  ///< diagnostic text from the harness
};

/** One named group of points (one executed plan, one sweep step, ...). */
struct SetRecord
{
    std::string label;
    std::vector<PointRecord> points;
    /** Failure manifest; rendered only when non-empty so clean runs
     *  serialize byte-identically to pre-manifest documents. */
    std::vector<FailureRecord> failures;
};

/** Collects experiment records and renders the versioned JSON document. */
class StatsSink
{
  public:
    StatsSink(std::string bench, std::string size);

    /** Attach free-form metadata (informational; never diffed). */
    void setMeta(const std::string &key, const std::string &value);

    /** Record a scalar headline metric (diffed by scd_report). */
    void addMetric(const std::string &name, double value);

    /** Start a new point set; append points to the returned record. */
    SetRecord &addSet(const std::string &label);

    bool empty() const { return sets_.empty() && metrics_.empty(); }

    /**
     * Serialize everything to the v1 schema. Deterministic: identical
     * recorded data yields identical bytes.
     */
    std::string render() const;

    /** render() to @p path; false (with a stderr message) on I/O error. */
    bool writeTo(const std::string &path) const;

  private:
    std::string bench_;
    std::string size_;
    std::map<std::string, std::string> meta_;
    std::map<std::string, double> metrics_;
    std::vector<SetRecord> sets_;
};

} // namespace scd::obs

#endif // SCD_OBS_STATS_SINK_HH
