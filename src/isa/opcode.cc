#include "opcode.hh"

#include "common/logging.hh"

namespace scd::isa
{

const OpcodeInfo &
opcodeInfo(Opcode op)
{
    unsigned idx = static_cast<unsigned>(op);
    SCD_ASSERT(idx < kNumOpcodes, "bad opcode ", idx);
    return kOpcodeTable[idx];
}

} // namespace scd::isa
