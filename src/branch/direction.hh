/**
 * @file
 * Conditional-branch direction predictors: a gshare predictor (used by the
 * rocket-style configuration) and a tournament predictor combining local
 * and global components (used by the minor-style configuration, as in the
 * paper's Table II).
 */

#ifndef SCD_BRANCH_DIRECTION_HH
#define SCD_BRANCH_DIRECTION_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace scd::branch
{

/** Interface for taken/not-taken predictors. */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predict the direction of the conditional branch at @p pc. */
    virtual bool predict(uint64_t pc) = 0;

    /** Train with the resolved direction and advance history. */
    virtual void update(uint64_t pc, bool taken) = 0;
};

namespace detail
{

/** Saturating 2-bit counter update. */
inline void
train(uint8_t &counter, bool taken)
{
    if (taken) {
        if (counter < 3)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
}

inline bool
takenOf(uint8_t counter)
{
    return counter >= 2;
}

} // namespace detail

/**
 * Global-history XOR PC indexed 2-bit counter predictor. The concrete
 * predictors are final with inline bodies: the timing model holds the
 * configured one by its concrete type, so the per-conditional-branch
 * predict/update pair compiles to straight-line code there.
 */
class GsharePredictor final : public DirectionPredictor
{
  public:
    explicit GsharePredictor(unsigned entries);

    bool
    predict(uint64_t pc) override
    {
        return detail::takenOf(table_[index(pc)]);
    }

    void
    update(uint64_t pc, bool taken) override
    {
        detail::train(table_[index(pc)], taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) &
                   ((uint64_t(1) << histBits_) - 1);
    }

  private:
    unsigned
    index(uint64_t pc) const
    {
        return static_cast<unsigned>(((pc >> 2) ^ history_) &
                                     (table_.size() - 1));
    }

    std::vector<uint8_t> table_;
    uint64_t history_ = 0;
    unsigned histBits_;
};

/** Local + global + chooser tournament predictor (gem5-style). */
class TournamentPredictor final : public DirectionPredictor
{
  public:
    /**
     * @param globalEntries size of global and chooser counter tables
     * @param localEntries size of the local history / counter tables
     */
    TournamentPredictor(unsigned globalEntries, unsigned localEntries);

    bool
    predict(uint64_t pc) override
    {
        unsigned li = localIndex(pc);
        unsigned lpat = localHistory_[li] & (localCounters_.size() - 1);
        bool localTaken = detail::takenOf(localCounters_[lpat]);
        bool globalTaken = detail::takenOf(globalCounters_[globalIndex()]);
        bool useGlobal = detail::takenOf(chooser_[globalIndex()]);
        return useGlobal ? globalTaken : localTaken;
    }

    void
    update(uint64_t pc, bool taken) override
    {
        unsigned li = localIndex(pc);
        unsigned lpat = localHistory_[li] & (localCounters_.size() - 1);
        unsigned gi = globalIndex();

        bool localTaken = detail::takenOf(localCounters_[lpat]);
        bool globalTaken = detail::takenOf(globalCounters_[gi]);
        // Train the chooser toward the component that was right (only
        // when they disagree).
        if (localTaken != globalTaken)
            detail::train(chooser_[gi], globalTaken == taken);
        detail::train(localCounters_[lpat], taken);
        detail::train(globalCounters_[gi], taken);

        localHistory_[li] = static_cast<uint16_t>(
            ((localHistory_[li] << 1) | (taken ? 1 : 0)) &
            ((1u << localHistBits_) - 1));
        globalHistory_ = ((globalHistory_ << 1) | (taken ? 1 : 0)) &
                         ((uint64_t(1) << globalBits_) - 1);
    }

  private:
    unsigned
    localIndex(uint64_t pc) const
    {
        return static_cast<unsigned>((pc >> 2) & (localHistory_.size() - 1));
    }

    unsigned
    globalIndex() const
    {
        return static_cast<unsigned>(globalHistory_ &
                                     (globalCounters_.size() - 1));
    }

    std::vector<uint16_t> localHistory_;
    std::vector<uint8_t> localCounters_;
    std::vector<uint8_t> globalCounters_;
    std::vector<uint8_t> chooser_;
    uint64_t globalHistory_ = 0;
    unsigned globalBits_;
    unsigned localHistBits_;
};

/** Fixed-depth return address stack. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned depth) : stack_(depth) {}

    void
    push(uint64_t addr)
    {
        top_ = (top_ + 1) % stack_.size();
        stack_[top_] = addr;
        if (size_ < stack_.size())
            ++size_;
    }

    /** Predicted return target; 0 when empty. */
    uint64_t
    pop()
    {
        if (size_ == 0)
            return 0;
        uint64_t addr = stack_[top_];
        top_ = (top_ + stack_.size() - 1) % stack_.size();
        --size_;
        return addr;
    }

    unsigned depth() const { return unsigned(stack_.size()); }

  private:
    std::vector<uint64_t> stack_;
    size_t top_ = 0;
    size_t size_ = 0;
};

} // namespace scd::branch

#endif // SCD_BRANCH_DIRECTION_HH
