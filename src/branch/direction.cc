#include "direction.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace scd::branch
{

GsharePredictor::GsharePredictor(unsigned entries)
    : table_(entries, 1), histBits_(floorLog2(entries))
{
    SCD_ASSERT(isPowerOf2(entries), "gshare entries must be a power of two");
}

TournamentPredictor::TournamentPredictor(unsigned globalEntries,
                                         unsigned localEntries)
    : localHistory_(localEntries, 0),
      localCounters_(localEntries, 1),
      globalCounters_(globalEntries, 1),
      chooser_(globalEntries, 1),
      globalBits_(floorLog2(globalEntries)),
      localHistBits_(floorLog2(localEntries))
{
    SCD_ASSERT(isPowerOf2(globalEntries) && isPowerOf2(localEntries),
               "tournament table sizes must be powers of two");
}

} // namespace scd::branch
