/**
 * @file
 * Identity keys of experiment points.
 *
 * pointKey() is what runPlan() deduplicates on: points with equal keys
 * run once and share one result. replayGroupKey() names the guest a
 * point retires — points with equal keys retire identical instruction
 * streams whatever their timing models. runPlan() does not use it;
 * perfbench/scd_perfbench.cc reports it.
 */

#ifndef SCD_HARNESS_REPLAY_HH
#define SCD_HARNESS_REPLAY_HH

#include <string>

#include "experiment.hh"

namespace scd::harness
{

/**
 * Stable identity of a point's full configuration — label, input size,
 * instruction limit, and the timing-relevant machine fields. Two points
 * with equal keys deterministically produce equal results, so runPlan()
 * runs one and copies its result to the other.
 */
std::string pointKey(const ExperimentPoint &point);

/**
 * The functional key: points with equal keys retire identical
 * instruction streams whatever their timing models (VM + interpreter
 * binary + workload source + the architecturally-visible SCD knobs).
 */
std::string replayGroupKey(const ExperimentPoint &point);

} // namespace scd::harness

#endif // SCD_HARNESS_REPLAY_HH
