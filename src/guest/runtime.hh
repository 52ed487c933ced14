/**
 * @file
 * The guest runtime library: SRV64 assembly subroutines shared by the two
 * guest interpreters (RLua and SJS). Provides the dynamic-language
 * substrate the bytecode handlers lean on: bump allocation, string
 * interning and concatenation, Lua-style tables (array + open-addressed
 * hash parts with growth), arithmetic slow paths (mixed int/float), value
 * printing, and the trap exit.
 *
 * Calling convention: arguments/results in a0..a5; subroutines may clobber
 * t0-t6 and a0-a7 but preserve every s-register and sp. Non-leaf routines
 * spill to the native stack (sp).
 */

#ifndef SCD_GUEST_RUNTIME_HH
#define SCD_GUEST_RUNTIME_HH

#include "data_image.hh"
#include "isa/assembler.hh"
#include "vm/arith.hh"

namespace scd::guest
{

/** Labels of the emitted runtime entry points. */
class RuntimeLib
{
  public:
    /**
     * Create the runtime against an assembler and data image. Call
     * emit() once to lay down the subroutine bodies (typically after the
     * interpreter's hot loop so the hot code stays contiguous).
     */
    RuntimeLib(isa::Assembler &as, DataImage &data);

    /** Emit all subroutine bodies. */
    void emit();

    // a0 = size -> a0 = zeroed storage (bump allocator, 8-aligned).
    isa::Label alloc;
    // a0 = byte ptr, a1 = len -> a0 = interned string object.
    isa::Label internBytes;
    // a0, a1 = string objects -> a0 = interned concatenation.
    isa::Label concat;
    // a0, a1 = string objects -> a0 = negative/zero/positive.
    isa::Label strCmp;
    // -> a0 = fresh empty table.
    isa::Label tableNew;
    // a0 = table, a1 = key tag, a2 = key payload -> a0 = val tag, a1 = val.
    isa::Label tableGet;
    // a0 = table, a1..a2 = key, a3..a4 = value.
    isa::Label tableSet;
    // a1 = tagL, a2 = payL, a3 = tagR, a4 = payR -> a0 = tag, a1 = payload.
    isa::Label arithSlowAdd;
    isa::Label arithSlowSub;
    isa::Label arithSlowMul;
    isa::Label arithSlowDiv;  ///< also the fast path: DIV is always float
    isa::Label arithSlowIDiv;
    isa::Label arithSlowMod;
    // a0 = tag, a1 = payload; prints like the host's toDisplayString.
    isa::Label printValue;
    // a0 = string obj, a1 = i, a2 = j -> a0 = substring object.
    isa::Label strSub;
    // Fatal guest error: prints a message and exits with code 1.
    isa::Label trap;

    /** Interned empty string (guest address). */
    uint64_t emptyString() const { return emptyString_; }

  private:
    void emitAlloc();
    void emitInternBytes();
    void emitConcat();
    void emitStrCmp();
    void emitTableNew();
    void emitTableGet();
    void emitTableSet();
    void emitTableGrowArray();
    void emitTableRehash();
    void emitTableAbsorb();
    void emitArithSlow();
    void emitPrintValue();
    void emitStrSub();
    void emitTrap();

    isa::Assembler &as_;
    DataImage &data_;
    isa::Label growArray_;
    isa::Label rehash_;
    isa::Label absorb_;
    uint64_t emptyString_;
    uint64_t nilStr_, trueStr_, falseStr_, tableStr_, funcStr_, trapStr_;
};

/**
 * f2 = f0 @p op f1 for a binary Lua operator, IDIV and MOD flooring via
 * truncate-and-adjust (clobbers t0-t2, f3, f4). Shared by the runtime's
 * arithmetic slow paths and the RLua handlers' inline float path.
 */
void emitFloatArith(isa::Assembler &as, vm::ArithOp op);

} // namespace scd::guest

#endif // SCD_GUEST_RUNTIME_HH
