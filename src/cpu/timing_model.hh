/**
 * @file
 * The pluggable timing-model interface of the simulated core.
 *
 * A FunctionalCore (architectural state and execution) runs against one
 * TimingModel (cycles, predictors, memory hierarchy). Core holds its
 * InOrderTiming by the concrete type so the timed path runs its retire
 * body inline; replay groups and tools drive models through this
 * interface. It has two ports:
 *
 *  - The architectural JTE port (jteLookup). Jump-table entries are
 *    microarchitectural storage with architectural consequences (paper
 *    §III-B): whether a bop short-circuits decides which instructions
 *    retire, so the FunctionalCore probes the timing model's JTE storage
 *    mid-instruction. jru insertions and jte.flush arrive as RetireInfo
 *    events inside retire(), so the model sequences them against its own
 *    predictor updates.
 *
 *  - The timing port: retire() consumes one RetireInfo per retired
 *    instruction and accounts cycles, predictions, and memory-system
 *    effects; cycles() and exportStats() report the result. A timed
 *    model also counts what the retired stream implies (instructions,
 *    branch classes, SCD events): it is the one consumer every retired
 *    instruction reaches, in direct runs and replay alike.
 */

#ifndef SCD_CPU_TIMING_MODEL_HH
#define SCD_CPU_TIMING_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/stats.hh"
#include "retire_info.hh"

namespace scd::cpu
{

struct CoreConfig;

/** Abstract timing model; see the file comment for the contract. */
class TimingModel
{
  public:
    virtual ~TimingModel();

    // ---- architectural JTE port ------------------------------------------
    /** Probe a JTE by (bank, masked opcode); the fast-path probe of bop. */
    virtual std::optional<uint64_t> jteLookup(uint8_t bank,
                                              uint64_t opcode) = 0;

    // ---- timing port -----------------------------------------------------
    /** Account one retired instruction. */
    virtual void retire(const RetireInfo &ri) = 0;

    /**
     * Account @p n consecutive retired instructions. Replay consumers
     * feed whole bop-free chunk spans through this so a model can run
     * its retire body inline in the loop; the default simply iterates.
     * Semantically identical to n retire() calls.
     */
    virtual void
    consume(const RetireInfo *ri, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            retire(ri[i]);
    }

    /** Cycles accumulated so far (0 for untimed models). */
    virtual uint64_t cycles() const = 0;

    /** Fold the model's counters into @p group. */
    virtual void exportStats(StatGroup &group) const = 0;
};

/** Build the timing model for @p config (the in-order pipeline). */
std::unique_ptr<TimingModel> makeTimingModel(const CoreConfig &config);

} // namespace scd::cpu

#endif // SCD_CPU_TIMING_MODEL_HH
