/**
 * @file
 * Support types of the recording executor (FunctionalCore::runRecorded;
 * see docs/SIMULATOR.md, "One plan executor").
 *
 * The recording executor fills one RetireChunk at a time, so memory
 * stays flat however long the run is. No plan point runs it: the record
 * lockstep tests compare the dispatch tiers through it, and perfbench's
 * profile feeds its stream to InOrderTiming::consume.
 *
 * Bound to RecorderTiming, whose JTE port is always empty, every
 * eligible bop records as a probed miss followed by the full slow
 * dispatch path (dispatch sequence, then the jru that would have
 * inserted the JTE). A Baseline stream has no probed bop, so timing it
 * through consume() matches Core::run.
 */

#ifndef SCD_CPU_RETIRE_STREAM_HH
#define SCD_CPU_RETIRE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/stats.hh"
#include "retire_info.hh"
#include "timing_model.hh"

namespace scd::cpu
{

/**
 * One span of consecutively retired instructions. 2048 entries keeps a
 * chunk (~200KB) within L2 so the recorder's stores are still warm when
 * a consumer streams through them.
 */
struct RetireChunk
{
    static constexpr size_t kCapacity = 2048;

    RetireInfo entries[kCapacity];
    size_t count = 0;
};

/**
 * The recording executor's timing model: a JTE port that is permanently
 * empty. Every eligible bop misses, so the recorded stream contains the
 * slow dispatch path for every dispatch. retire() ignores jru inserts
 * and flushes (there is nothing to hold), and no cycles exist; the
 * recording FunctionalCore runs through runRecorded(), so retire() is
 * never on the hot path.
 */
class RecorderTiming : public TimingModel
{
  public:
    std::optional<uint64_t>
    jteLookup(uint8_t, uint64_t) override
    {
        return std::nullopt;
    }

    void retire(const RetireInfo &) override {}
    uint64_t cycles() const override { return 0; }
    void exportStats(StatGroup &) const override {}
};

} // namespace scd::cpu

#endif // SCD_CPU_RETIRE_STREAM_HH
