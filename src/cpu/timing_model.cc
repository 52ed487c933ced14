#include "timing_model.hh"

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
    return std::make_unique<InOrderTiming>(config);
}

} // namespace scd::cpu
