/**
 * @file
 * The interpreter skeleton both guest builders (RLua and SJS) share: the
 * dispatcher of Figure 1(b) / Figure 4 with its jump-threaded copies,
 * entry and exit code, the builtin bodies, the image finish (jump-table
 * patch and dispatch metadata), and the handler pieces both VMs emit
 * the same way (integer arithmetic fast path, int/float promotion, the
 * compare core, negation, length, CallInfo push/pop). A VM builder
 * derives from InterpBuilder and supplies only what differs: operand
 * access, handler bodies, and where a builtin's result goes.
 *
 * Register plan shared by both VMs (preserved by all runtime
 * subroutines):
 *   s0  = VM state struct (holds the virtual PC, as in Figure 1(b))
 *   s2  = dispatch jump table base
 *   s3  = current frame base (RLua &R[0], SJS locals)
 *   s4  = current constants array
 *   s5  = globals table
 *   s6  = current CallInfo
 *   s7  = current proto descriptor
 *   s8  = intern table
 *   s10 = current bytecode (RLua instruction word, SJS opcode byte)
 *   s11 = heap bump pointer
 */

#ifndef SCD_GUEST_INTERP_BUILDER_HH
#define SCD_GUEST_INTERP_BUILDER_HH

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "data_image.hh"
#include "guest_program.hh"
#include "isa/assembler.hh"
#include "module_data.hh"
#include "runtime.hh"
#include "vm/arith.hh"

namespace scd::guest
{

/** How a VM's dispatcher fetches and decodes one bytecode. */
struct DispatchShape
{
    unsigned fetchBytes; ///< 4 (RLua instruction word) or 1 (SJS byte)
    unsigned opMask;     ///< opcode decode mask, also the SCD setmask
    unsigned numOps;     ///< jump-table entries and bound-check limit
    unsigned numBanks;   ///< SCD banks the entry code sets a mask for
};

/** The comparisons the compare core decides; GT/GE/NE derive from them. */
enum class CmpOp
{
    Eq,
    Lt,
    Le,
};

/** Base of the guest interpreter builders. */
class InterpBuilder
{
  public:
    virtual ~InterpBuilder() = default;

    /** Emit the whole interpreter and return the finished image. */
    GuestProgram build();

  protected:
    /**
     * @p serialize lays the VM's module into the data image (after the
     * runtime's own strings); @p opName names the handler labels.
     */
    InterpBuilder(DispatchKind kind, const DispatchShape &shape,
                  const std::function<SerializedModule(DataImage &)> &serialize,
                  const char *(*opName)(unsigned));

    /** Entry hook after the proto state is loaded, before dispatch. */
    virtual void emitFrameSetup() {}

    /** Emit the VM's handlers, each bound with bindHandler(). */
    virtual void emitHandlers() = 0;

    /**
     * Store a builtin's result (a0 = tag, a1 = payload; t0 = the
     * address spilled by the call) and dispatch the next bytecode.
     */
    virtual void emitBuiltinResult() = 0;

    // --- dispatch ----------------------------------------------------------

    /**
     * One dispatcher copy, recorded as a dispatch range: fetch into s10,
     * hook check, (bop with SCD), decode into t1, bound check, table
     * load, indirect jump. @p scdApplied false emits the plain form even
     * in SCD builds.
     */
    void emitDispatcher(uint8_t bank = 0, bool scdApplied = true);

    /** Handler epilogue: a dispatcher copy when threaded, else a jump. */
    void emitNext();

    void bindHandler(unsigned op);

    /** Builtin call: jump to the body whose id is in @p id. */
    void emitBuiltinSwitch(uint8_t id, uint8_t tmp);

    /** @p tag / @p pay = the TValue at @p off(@p base). */
    void loadValue(uint8_t tag, uint8_t pay, uint8_t base, int32_t off = 0);

    /** Store @p tag / @p pay as the TValue at @p off(@p base). */
    void storeValue(uint8_t tag, uint8_t pay, uint8_t base, int32_t off = 0);

    // --- shared handler pieces (t3/a2 = left tag/payload, t4/a4 = right) --

    /**
     * Integer fast path of @p op: both ints give a0/a1 = the int result
     * and jump to @p done; anything else falls through (DIV always does).
     * Leaves t6 = the int tag.
     */
    void emitIntArith(vm::ArithOp op, isa::Label done);

    /** f0/f1 = both numeric operands as doubles; @p intTag holds kTagInt. */
    void emitPromote(uint8_t intTag);

    /** Jump to @p notNumeric unless @p tag is int or float; clobbers t0. */
    void emitNumericCheck(uint8_t tag, isa::Label notNumeric);

    /** a0 = (left @p op right) as 0/1, numbers across int/float, strings
     * lexicographically (Eq by identity: strings are interned). */
    void emitCompareCore(CmpOp op);

    /** t2/t3 = -(t2/t3) for an int or float; other tags trap. */
    void emitNegate();

    /** t3 = length of the string or table t2/t3 (its tag stays in t2). */
    void emitLength();

    /** Push a CallInfo saving vpc (through @p tmp), s3 and s7. */
    void emitPushCallInfo(uint8_t tmp);

    /** Pop the CallInfo, restoring vpc, s3, s7, s4; t4 = its ret info. */
    void emitPopCallInfo();

    /** s4 and vpc from the proto in s7 (@p tmp is clobbered). */
    void emitLoadProto(uint8_t tmp);

    /** Nil the frame slots from index t1 up to t4 (t1, t6 clobbered). */
    void emitNilFill();

    isa::Assembler as_;
    DataImage data_;
    RuntimeLib rt_;
    const DispatchKind kind_;
    const DispatchShape shape_;
    const SerializedModule serialized_;
    isa::Label exit_;

  private:
    void emitEntry();
    void emitTrapHandlers();
    void emitBuiltins();
    void emitExit();
    GuestProgram finish();

    isa::Label dispatch_;
    std::vector<isa::Label> handlers_;
    std::vector<bool> bound_;
    std::array<isa::Label, size_t(vm::Builtin::NumBuiltins)> builtins_;
    std::vector<std::pair<isa::Label, isa::Label>> ranges_;
    std::vector<isa::Label> jumpPcs_;
};

} // namespace scd::guest

#endif // SCD_GUEST_INTERP_BUILDER_HH
