/**
 * @file
 * The execute-once, time-many plan executor (docs/SIMULATOR.md).
 *
 * Points of an ExperimentPlan with equal pointKey()s run once, on
 * either path: every later point of a key copies the first one's
 * result. Of the distinct points, those that share a functional key —
 * VM, interpreter binary (dispatch kind), workload source, and the
 * architecturally-visible SCD knobs — retire the same instruction
 * stream on every machine configuration: runPlanReplay() executes each
 * such group's FunctionalCore once and feeds the recorded stream to
 * every member's timing model. Results are bit-identical to direct
 * execution (tests/replay_test.cc); the --no-replay escape hatch
 * (RunOptions::replay = false) selects the direct path for
 * cross-checking.
 */

#ifndef SCD_HARNESS_REPLAY_HH
#define SCD_HARNESS_REPLAY_HH

#include "experiment.hh"

namespace scd::harness
{

/**
 * Execute one point directly (no replay), timing its wall clock.
 * Failures propagate as exceptions; runPlan() wraps this in the
 * containment layer (runPointContained).
 */
ExperimentRun runPointDirect(const ExperimentPoint &point,
                             const RunOptions &options);

/**
 * Contained direct execution: FatalError, TimeoutError, and bad_alloc
 * become a non-Ok PointStatus with diagnostic text instead of
 * propagating. @p degradedFrom non-null marks a successful run as
 * Degraded with that text (the replay->direct fallback path).
 */
ExperimentRun runPointContained(const ExperimentPoint &point,
                                const RunOptions &options,
                                const char *degradedFrom = nullptr);

/**
 * Stable identity of a point's full configuration — label, input size,
 * instruction limit, and the timing-relevant machine fields. Two points
 * with equal keys deterministically produce equal results, so
 * runPlanReplay() runs one and copies its result to the other.
 */
std::string pointKey(const ExperimentPoint &point);

/**
 * The replay grouping key: points with equal keys retire identical
 * instruction streams whatever their timing models (VM + interpreter
 * binary + workload source + the architecturally-visible SCD knobs).
 */
std::string replayGroupKey(const ExperimentPoint &point);

/**
 * The plan executor behind runPlan(): fills set.runs[i] for every point
 * of @p set. The first point of each pointKey runs; distinct points
 * sharing a replay group key run as one replay group, the rest — and,
 * with options.replay off, every one — run direct.
 */
void runPlanReplay(ExperimentSet &set, const RunOptions &options);

} // namespace scd::harness

#endif // SCD_HARNESS_REPLAY_HH
