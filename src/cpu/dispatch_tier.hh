/**
 * @file
 * Selection of the functional core's execution tier.
 *
 * The FunctionalCore's switch-dispatched step() loop is the *reference*
 * interpreter: simple, traceable, and the semantics oracle. The threaded
 * tier (src/cpu/threaded_tier.hh) pre-decodes the text segment into a
 * flat stream of {handler, operands} slots and chains handlers with
 * computed gotos — the same dispatch transformation the paper studies in
 * guest interpreters, applied to the simulator's own hot loop. Both tiers
 * retire bit-identical instruction streams (enforced by
 * tests/dispatch_tier_test.cc); the tier only changes host speed.
 *
 * The tier drives both run loops: Core::run's timed path
 * (FunctionalCore::runTimed, which retires each instruction into the
 * core's InOrderTiming before the next one executes) and the recording
 * executor (FunctionalCore::runRecorded). FunctionalCore::step() is
 * always the reference interpreter.
 *
 * The tier is deliberately NOT part of CoreConfig: pointKey hashes
 * timing-relevant config fields, and the tier is timing-irrelevant by
 * contract.
 */

#ifndef SCD_CPU_DISPATCH_TIER_HH
#define SCD_CPU_DISPATCH_TIER_HH

#include <cstdint>

namespace scd::cpu
{

/** Which engine FunctionalCore::runTimed() and runRecorded() use. */
enum class DispatchTier : uint8_t
{
    Switch,   ///< the reference switch-dispatched step loop
    Threaded, ///< pre-decoded threaded code (computed goto); the default
};

} // namespace scd::cpu

#endif // SCD_CPU_DISPATCH_TIER_HH
