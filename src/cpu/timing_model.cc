#include "timing_model.hh"

#include "common/logging.hh"
#include "config.hh"
#include "inorder_timing.hh"

namespace scd::cpu
{

const char *
branchClassName(BranchClass cls)
{
    switch (cls) {
      case BranchClass::Conditional: return "conditional";
      case BranchClass::DirectJump: return "directJump";
      case BranchClass::Return: return "return";
      case BranchClass::IndirectDispatch: return "indirectDispatch";
      case BranchClass::IndirectOther: return "indirectOther";
      case BranchClass::Bop: return "bop";
      default: return "?";
    }
}

TimingModel::~TimingModel() = default;

std::unique_ptr<TimingModel>
makeTimingModel(const CoreConfig &config)
{
    switch (config.timingKind) {
      case TimingKind::InOrder:
        return std::make_unique<InOrderTiming>(config);
      case TimingKind::WideInOrder:
        return std::make_unique<WideInOrderTiming>(config,
                                                   config.issueWidth);
    }
    ::scd::panic("bad timing kind ", int(config.timingKind));
}

} // namespace scd::cpu
