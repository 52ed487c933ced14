/**
 * @file
 * The compact per-instruction retirement record flowing from the
 * FunctionalCore to a TimingModel. One RetireInfo carries everything a
 * timing model may charge cycles for — the fetch PC, the architectural
 * next PC, operand/destination registers, the result-latency class, the
 * data-memory access, and the control-flow outcome — so timing models
 * never re-decode or re-execute instructions.
 */

#ifndef SCD_CPU_RETIRE_INFO_HH
#define SCD_CPU_RETIRE_INFO_HH

#include <cstdint>

namespace scd::cpu
{

/** Branch classes used for the Figure 2 misprediction breakdown. */
enum class BranchClass : uint8_t
{
    Conditional,
    DirectJump,
    Return,
    IndirectDispatch, ///< the interpreter's dispatch jump (jalr or jru)
    IndirectOther,
    Bop,
    NumClasses
};

/** Name of a branch class (for tables). */
const char *branchClassName(BranchClass cls);

/**
 * What kind of control transfer the instruction performed; drives the
 * branch-prediction and redirect modelling of a timing model.
 */
enum class CtrlKind : uint8_t
{
    None,        ///< straight-line instruction
    Conditional, ///< beq/bne/... — see RetireInfo::taken
    Jal,         ///< direct jump-and-link
    Jalr,        ///< indirect jump — see RetireInfo::isReturn / hintReg
    Bop,         ///< SCD fast dispatch — see RetireInfo::ropStall
    Jru,         ///< SCD dispatch jump — may carry a JTE insertion
    JteFlush,    ///< jte.flush — invalidate the timing model's JTEs
};

/** Result-latency class of the executed instruction. */
enum class LatClass : uint8_t
{
    Alu,   ///< single-cycle integer (also address-only ops)
    Mul,   ///< integer multiply
    Div,   ///< integer divide / remainder
    Fp,    ///< short floating-point pipe
    FpDiv, ///< fdiv / fsqrt
    Load,  ///< latency comes from the data-memory access
};

/** One retired instruction, as consumed by TimingModel::retire(). */
struct RetireInfo
{
    uint64_t pc = 0;      ///< fetch PC of the instruction
    uint64_t nextPc = 0;  ///< architectural successor (branch target)
    uint32_t flags = 0;   ///< cached isa::OpFlags word of the opcode

    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t bank = 0;     ///< SCD bank of bop/jru events
    uint8_t op = 0;       ///< isa::Opcode byte (observability/profiles)

    CtrlKind ctrl = CtrlKind::None;
    LatClass lat = LatClass::Alu;
    BranchClass cls = BranchClass::Conditional; ///< valid when ctrl != None

    bool taken = false;    ///< conditional branch outcome
    bool isReturn = false; ///< jalr recognized as a return
    bool writesInt = false; ///< integer writeback to rd (rd != x0)
    bool writesFp = false;  ///< FP writeback to rd

    bool hasMem = false;    ///< performed a data-memory access
    bool memIsStore = false;
    uint64_t memAddr = 0;

    int16_t hintReg = -1;   ///< VBBI hint register of a marked jalr
    uint64_t hintValue = 0; ///< hint register's value at execute

    /** bop: fetch-stall cycles because the Rop producer was in flight. */
    uint32_t ropStall = 0;

    /**
     * bop: an eligible bop probed the JTE port (and, on a hit, nextPc is
     * the JTE target). jteOpcode carries the probed Rop value so a replay
     * consumer can re-verify the probe against its own JTE state — the
     * only point where timing-model state feeds back into the
     * architectural stream (see cpu/retire_stream.hh).
     */
    bool bopProbed = false;
    bool bopHit = false;

    /**
     * jru: a JTE insertion to perform (after the PC-BTB update), keyed
     * by jteOpcode and targeting nextPc.
     */
    bool jteInsert = false;
    uint64_t jteOpcode = 0; ///< masked Rop value keying the JTE

    /** Field-wise equality (the tier lockstep tests compare records). */
    bool operator==(const RetireInfo &) const = default;
};

// Both dispatch tiers write one record per retired instruction, so its
// size is on the recording hot path: at 88 bytes GCC 12 lowers every
// threaded handler's `*ri = RetireInfo{}` to `rep stosq`, which costs
// the threaded tier most of its lead over the switch interpreter.
static_assert(sizeof(RetireInfo) <= 80,
              "RetireInfo must stay at most 80 bytes (see above)");

} // namespace scd::cpu

#endif // SCD_CPU_RETIRE_INFO_HH
