/**
 * @file
 * Execute-once, time-many support types (see docs/SIMULATOR.md).
 *
 * A replay group executes one FunctionalCore per unique functional key
 * and fans the retired-instruction stream out to every timing model in
 * the group. The stream never exists in full: the producer fills one
 * RetireChunk, each consumer drains it, and the chunk is refilled —
 * memory stays flat however long the run is, and a chunk is small enough
 * to stay cache-resident while every consumer walks it.
 *
 * The single timing-to-functional feedback edge is bop's mid-instruction
 * JTE probe, whose outcome depends on each consumer's own JTE state. The
 * producer therefore records the *superset* stream: bound to
 * RecorderTiming, whose JTE port is always empty, every eligible bop
 * records as a probed miss followed by the full slow dispatch path
 * (dispatch sequence, then the jru that would have inserted the JTE).
 * Each consumer performs the real jteLookup against its own timing model
 * at every probed bop: on a miss it retires the recorded slow path as-is;
 * on a hit it retires a synthesized hit-bop and skips the recorded
 * entries up to the terminating jru — exactly the instructions direct
 * execution would never have fetched.
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
 * chunk (~200KB) within L2 so the producer's stores are still warm when
 * each consumer streams through them.
 */
struct RetireChunk
{
    static constexpr size_t kCapacity = 2048;

    RetireInfo entries[kCapacity];
    size_t count = 0;
};

/**
 * The producer-side timing model of a replay group: a JTE port that is
 * permanently empty. Every eligible bop misses, so the recorded stream
 * contains the slow dispatch path for every dispatch — the superset from
 * which any consumer's execution is a prefix-preserving subsequence.
 * retire() ignores jru inserts and flushes (there is nothing to hold),
 * and no cycles exist; the producer's FunctionalCore runs through
 * runRecorded(), so retire() is never on the hot path.
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
