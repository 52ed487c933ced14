/**
 * @file
 * Bridge from executed experiment sets to the machine-readable stats
 * export (src/obs/stats_sink.hh). The obs library knows nothing about
 * the harness; this header is where ExperimentSet points become neutral
 * PointRecords, so every bench binary can honour --json=<path> with a
 * couple of calls:
 *
 *   obs::StatsSink sink("fig07_10_overall", bench::sizeName(size));
 *   exportSet(sink, "overall", set);
 *   writeJsonIfRequested(sink, jsonPath);
 */

#ifndef SCD_HARNESS_JSON_EXPORT_HH
#define SCD_HARNESS_JSON_EXPORT_HH

#include <string>

#include "experiment.hh"
#include "obs/stats_sink.hh"

namespace scd::harness
{

/**
 * Append every point of @p set to @p sink as one SetRecord labelled
 * @p label. Only deterministic fields are recorded (no wall times, no
 * job counts): serial and parallel runs of the same plan export
 * byte-identical documents. Failed and timed-out points are left out
 * of the points array; every non-Ok point (including degraded ones) is
 * named in the set's failure manifest instead.
 */
obs::SetRecord &exportSet(obs::StatsSink &sink, const std::string &label,
                          const ExperimentSet &set);

/**
 * writeTo(@p path) when @p path is non-empty and the sink has content.
 * Returns false only on an actual I/O failure.
 */
bool writeJsonIfRequested(const obs::StatsSink &sink,
                          const std::string &path);

/**
 * The common tail of every bench driver: write the JSON export if
 * requested, then report troubled points. Returns the process exit
 * code — kExitExportFailure (1) when the export could not be written
 * (the data is gone, the worst outcome), kExitTroubled (2) when the
 * export succeeded but some points degraded, failed, or timed out, and
 * kExitOk (0) otherwise. Keeping the precedence in one place is what
 * makes the codes mean the same thing across all drivers
 * (tests/fault_test.cc asserts them).
 */
int finishRun(const obs::StatsSink &sink, const std::string &jsonPath,
              const std::vector<const ExperimentSet *> &sets);

} // namespace scd::harness

#endif // SCD_HARNESS_JSON_EXPORT_HH
