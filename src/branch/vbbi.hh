/**
 * @file
 * Value-Based BTB Indexing (VBBI) — Farooq, Chen & John, HPCA 2010 — the
 * state-of-the-art hardware comparison point in the paper. Marked indirect
 * jumps index the BTB with a hash of their PC and a compiler-identified
 * hint value (here, the bytecode opcode register), so each (jump, opcode)
 * pair occupies its own BTB entry instead of thrashing a single one.
 *
 * Unlike SCD, the dispatcher still executes all of its decode / bound-check
 * / table-load instructions; VBBI only improves target prediction accuracy.
 */

#ifndef SCD_BRANCH_VBBI_HH
#define SCD_BRANCH_VBBI_HH

#include <cstdint>
#include <optional>

#include "common/bitutil.hh"
#include "frontend.hh"

namespace scd::branch
{

/**
 * VBBI over the hashed port of a branch::Frontend: the storage is
 * whatever frontend organization the timing model fetches through, so
 * VBBI entries suffer the same partial-tag aliasing and multi-level
 * placement as every other B entry. Over IdealBtb this is exactly VBBI
 * over the paper's BTB.
 */
class FrontendVbbi
{
  public:
    explicit FrontendVbbi(Frontend &frontend) : frontend_(frontend) {}

    static uint64_t
    key(uint64_t pc, uint64_t hint)
    {
        // Hashed so the composite key spreads across BTB sets; the low bits
        // feed set selection directly.
        return mixHash(pc ^ (hint * 0x9E3779B97F4A7C15ULL));
    }

    /** Predict the target of a marked indirect jump. */
    std::optional<uint64_t>
    predict(uint64_t pc, uint64_t hint)
    {
        return frontend_.lookupHashed(key(pc, hint));
    }

    /** Train with the resolved target. */
    void
    update(uint64_t pc, uint64_t hint, uint64_t target)
    {
        frontend_.updateHashed(key(pc, hint), target);
    }

  private:
    Frontend &frontend_;
};

} // namespace scd::branch

#endif // SCD_BRANCH_VBBI_HH
