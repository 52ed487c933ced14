#include "sjs_guest.hh"

#include "interp_builder.hh"
#include "layout.hh"

namespace scd::guest
{

using namespace scd::isa;
using namespace scd::isa::reg;
using vm::ArithOp;
using vm::sjs::Op;

namespace
{

/**
 * Byte opcodes decoded against the full 229-entry opcode space, and
 * three SCD banks: the main dispatcher (0), the branch handler's own
 * tail (1) and the FUNCALL site (2).
 */
constexpr DispatchShape kSjsShape = {1, 255, vm::sjs::kNumOps, 3};

/**
 * Emits the SJS guest interpreter: SpiderMonkey-style stack-machine
 * handlers on the shared skeleton (register plan in interp_builder.hh),
 * with s1 = operand stack top (address of the next free TValue slot),
 * s3 = the current frame's locals, and s10 = the current opcode byte.
 */
class SjsBuilder : public InterpBuilder
{
  public:
    SjsBuilder(const vm::sjs::Module &module, DispatchKind kind)
        : InterpBuilder(
              kind, kSjsShape,
              [&](DataImage &data) { return serializeSjsModule(data, module); },
              [](unsigned n) { return vm::sjs::opName(Op(n)); }),
          uncovered_(as_.newLabel("dispatch_uncovered"))
    {
    }

  private:
    // --- operand stack helpers ---------------------------------------------

    void
    emitPush(uint8_t tagReg, uint8_t payReg)
    {
        storeValue(tagReg, payReg, s1);
        as_.addi(s1, s1, kTValueSize);
    }

    void
    emitPop(uint8_t tagReg, uint8_t payReg)
    {
        as_.addi(s1, s1, -int(kTValueSize));
        loadValue(tagReg, payReg, s1);
    }

    void emitPushTag(uint8_t tagReg) { emitPush(tagReg, zero); }

    void
    emitPushImmTag(int64_t tag)
    {
        as_.li(t1, tag);
        emitPushTag(t1);
    }

    // --- operand decoding -----------------------------------------------------

    /** Read a u8 operand into @p dst and advance the virtual PC. */
    void
    emitReadU8(uint8_t dst, uint8_t tmp)
    {
        as_.ld(tmp, kVmVpc, s0);
        as_.lbu(dst, 0, tmp);
        as_.addi(tmp, tmp, 1);
        as_.sd(tmp, kVmVpc, s0);
    }

    /** Read a signed 8-bit operand. */
    void
    emitReadS8(uint8_t dst, uint8_t tmp)
    {
        as_.ld(tmp, kVmVpc, s0);
        as_.lb(dst, 0, tmp);
        as_.addi(tmp, tmp, 1);
        as_.sd(tmp, kVmVpc, s0);
    }

    /** Read an unsigned 16-bit operand. */
    void
    emitReadU16(uint8_t dst, uint8_t tmp)
    {
        as_.ld(tmp, kVmVpc, s0);
        as_.lhu(dst, 0, tmp);
        as_.addi(tmp, tmp, 2);
        as_.sd(tmp, kVmVpc, s0);
    }

    /** t1 = &constants[u16 operand]. */
    void
    emitConstAddr()
    {
        emitReadU16(t1, t3);
        as_.slli(t1, t1, 4);
        as_.add(t1, t1, s4);
    }

    /** t1 = &locals[u8 operand]. */
    void
    emitLocalAddr()
    {
        emitReadU8(t1, t3);
        as_.slli(t1, t1, 4);
        as_.add(t1, t1, s3);
    }

    /** t1 = the vpc past a 16-bit branch offset, t2 = that offset. */
    void
    emitReadBranchOffset()
    {
        as_.ld(t1, kVmVpc, s0);
        as_.lh(t2, 0, t1);
        as_.addi(t1, t1, 2);
    }

    // --- dispatch paths ---------------------------------------------------------

    /**
     * Epilogue via the dispatch path SCD was not applied to (a distinct
     * code path into the dispatcher, as several SpiderMonkey handlers
     * have; paper Section VI-A1). In threaded builds it behaves like any
     * other copy.
     */
    void
    emitNextUncovered()
    {
        if (kind_ == DispatchKind::Threaded)
            emitDispatcher();
        else
            as_.j(uncovered_);
    }

    // --- skeleton ------------------------------------------------------------

    /** The operand stack begins above the main chunk's locals. */
    void
    emitFrameSetup() override
    {
        as_.ld(t0, kProtoFrameSize, s7);
        as_.slli(t0, t0, 4);
        as_.add(s1, s3, t0);
    }

    void
    bindHandler(Op op)
    {
        InterpBuilder::bindHandler(unsigned(op));
        // SpiderMonkey-style per-op bookkeeping: bump this opcode's
        // execution counter (standing in for SM17's type-inference and
        // profiling hooks) and keep regs.sp mirrored in memory the way
        // the C++ interpreter does.
        uint64_t slot =
            serialized_.profileTable + static_cast<unsigned>(op) * 8;
        as_.li(t6, static_cast<int64_t>(slot));
        as_.ld(t0, 0, t6);
        as_.addi(t0, t0, 1);
        as_.sd(t0, 0, t6);
        as_.sd(s1, kVmOpSp, s0);
    }

    // --- handlers ---------------------------------------------------------------

    void
    emitHandlers() override
    {
        // The dispatcher copy the SCD retargeting does not reach.
        if (kind_ != DispatchKind::Threaded) {
            as_.bind(uncovered_);
            emitDispatcher(0, /*scdApplied=*/false);
        }

        bindHandler(Op::NOP);
        emitNext();

        // Constant pushes.
        bindHandler(Op::PUSH_NIL);
        emitPushImmTag(kTagNil);
        emitNext();
        bindHandler(Op::PUSH_TRUE);
        emitPushImmTag(kTagTrue);
        emitNext();
        bindHandler(Op::PUSH_FALSE);
        emitPushImmTag(kTagFalse);
        emitNext();
        bindHandler(Op::PUSH_INT0);
        emitPushImmTag(kTagInt);
        emitNext();

        bindHandler(Op::PUSH_INT1);
        as_.li(t1, kTagInt);
        as_.li(t2, 1);
        emitPush(t1, t2);
        emitNext();

        bindHandler(Op::PUSH_INT8);
        emitReadS8(t2, t3);
        as_.li(t1, kTagInt);
        emitPush(t1, t2);
        emitNext();

        bindHandler(Op::PUSH_CONST);
        emitConstAddr();
        loadValue(t2, t3, t1);
        emitPush(t2, t3);
        emitNext();

        // Locals.
        bindHandler(Op::GET_LOCAL);
        emitLocalAddr();
        loadValue(t2, t3, t1);
        emitPush(t2, t3);
        emitNext();

        bindHandler(Op::SET_LOCAL);
        emitLocalAddr();
        emitPop(t2, t3);
        storeValue(t2, t3, t1);
        emitNext();

        for (unsigned slot = 0; slot < 4; ++slot) {
            bindHandler(Op(unsigned(Op::GET_LOCAL0) + slot));
            loadValue(t2, t3, s3, int32_t(slot * 16));
            emitPush(t2, t3);
            emitNext();
        }
        for (unsigned slot = 0; slot < 4; ++slot) {
            bindHandler(Op(unsigned(Op::SET_LOCAL0) + slot));
            emitPop(t2, t3);
            storeValue(t2, t3, s3, int32_t(slot * 16));
            emitNext();
        }

        // Globals.
        bindHandler(Op::GET_GLOBAL);
        emitConstAddr();
        as_.mv(a0, s5);
        loadValue(a1, a2, t1);
        as_.call(rt_.tableGet);
        emitPush(a0, a1);
        emitNext();

        bindHandler(Op::SET_GLOBAL);
        emitConstAddr();
        loadValue(a1, a2, t1);
        emitPop(a3, a4);
        as_.mv(a0, s5);
        as_.call(rt_.tableSet);
        emitNext();

        // Arithmetic.
        emitArith(Op::ADD, ArithOp::Add, rt_.arithSlowAdd);
        emitArith(Op::SUB, ArithOp::Sub, rt_.arithSlowSub);
        emitArith(Op::MUL, ArithOp::Mul, rt_.arithSlowMul);
        emitArith(Op::DIV, ArithOp::Div, rt_.arithSlowDiv);
        emitArith(Op::IDIV, ArithOp::IDiv, rt_.arithSlowIDiv);
        emitArith(Op::MOD, ArithOp::Mod, rt_.arithSlowMod);

        bindHandler(Op::NEG);
        emitPop(t2, t3);
        emitNegate();
        emitPush(t2, t3);
        emitNext();

        bindHandler(Op::NOT);
        emitPop(t2, t3);
        as_.sltiu(t2, t2, 2);
        as_.addi(t2, t2, kTagFalse);
        emitPushTag(t2);
        emitNext();

        bindHandler(Op::LEN);
        emitPop(t2, t3);
        emitLength();
        as_.li(t2, kTagInt);
        emitPush(t2, t3);
        emitNext();

        bindHandler(Op::CONCAT);
        emitPop(t2, a1);
        as_.li(t4, kTagStr);
        as_.bne(t2, t4, rt_.trap);
        emitPop(t2, a0);
        as_.bne(t2, t4, rt_.trap);
        as_.call(rt_.concat);
        as_.li(t1, kTagStr);
        emitPush(t1, a0);
        emitNext();

        emitCompare(Op::EQ);
        emitCompare(Op::NE);
        emitCompare(Op::LT);
        emitCompare(Op::LE);
        emitCompare(Op::GT);
        emitCompare(Op::GE);

        // Control flow.
        bindHandler(Op::JUMP);
        emitReadBranchOffset();
        as_.add(t1, t1, t2);
        as_.sd(t1, kVmVpc, s0);
        emitNextUncovered();

        bindHandler(Op::JUMP_IF_FALSE);
        emitConditionalJump(/*onTruthy=*/false);
        // SpiderMonkey-style: the branch handler re-dispatches itself.
        emitDispatcher(1);

        bindHandler(Op::JUMP_IF_TRUE);
        emitConditionalJump(/*onTruthy=*/true);
        emitNextUncovered();

        emitCallHandler();
        emitReturnHandlers();

        // Tables.
        bindHandler(Op::NEW_TABLE);
        as_.call(rt_.tableNew);
        as_.li(t1, kTagTab);
        emitPush(t1, a0);
        emitNext();

        bindHandler(Op::GET_ELEM);
        emitPop(a1, a2); // key
        emitPop(t2, a0); // table
        as_.li(t4, kTagTab);
        as_.bne(t2, t4, rt_.trap);
        as_.call(rt_.tableGet);
        emitPush(a0, a1);
        emitNext();

        bindHandler(Op::SET_ELEM);
        emitPop(a3, a4); // value
        emitPop(a1, a2); // key
        emitPop(t2, a0); // table
        as_.li(t4, kTagTab);
        as_.bne(t2, t4, rt_.trap);
        as_.call(rt_.tableSet);
        emitNext();

        bindHandler(Op::POP);
        as_.addi(s1, s1, -int(kTValueSize));
        emitNext();

        bindHandler(Op::DUP);
        loadValue(t2, t3, s1, -16);
        emitPush(t2, t3);
        emitNext();

        bindHandler(Op::HALT);
        as_.j(exit_);
        // The reserved opcodes (the SpiderMonkey-sized tail) are left to
        // the skeleton, which routes every unbound opcode to the trap.
    }

    /** Pop the condition; take the branch when its truthiness is @p onTruthy. */
    void
    emitConditionalJump(bool onTruthy)
    {
        emitPop(t3, t4);
        emitReadBranchOffset();
        Label notTaken = as_.newLabel();
        as_.sltiu(t3, t3, 2); // 1 when falsy
        if (onTruthy)
            as_.bnez(t3, notTaken);
        else
            as_.beqz(t3, notTaken);
        as_.add(t1, t1, t2);
        as_.bind(notTaken);
        as_.sd(t1, kVmVpc, s0);
    }

    void
    emitArith(Op op, ArithOp arith, Label slowTarget)
    {
        bindHandler(op);
        emitPop(t4, a4); // rhs
        emitPop(t3, a2); // lhs
        Label push = as_.newLabel();
        emitIntArith(arith, push);
        as_.mv(a1, t3);
        as_.mv(a3, t4);
        as_.call(slowTarget);
        as_.bind(push);
        emitPush(a0, a1);
        emitNext();
    }

    /** Pop two values, push the boolean comparison result. */
    void
    emitCompare(Op op)
    {
        bindHandler(op);
        emitPop(t4, a4); // rhs
        emitPop(t3, a2); // lhs
        // Normalize GT/GE into LT/LE by swapping.
        if (op == Op::GT || op == Op::GE) {
            as_.mv(t0, t3);
            as_.mv(t3, t4);
            as_.mv(t4, t0);
            as_.mv(t0, a2);
            as_.mv(a2, a4);
            as_.mv(a4, t0);
        }
        if (op == Op::EQ || op == Op::NE)
            emitCompareCore(CmpOp::Eq);
        else if (op == Op::LE || op == Op::GE)
            emitCompareCore(CmpOp::Le);
        else
            emitCompareCore(CmpOp::Lt);
        if (op == Op::NE)
            as_.xori(a0, a0, 1);
        as_.addi(a0, a0, kTagFalse);
        emitPushTag(a0);
        // LT and LE are on the retargeted path (the paper applies .op to
        // the LT macro); the other comparisons reach the dispatcher
        // through code SCD does not cover.
        if (op == Op::LT || op == Op::LE)
            emitNext();
        else
            emitNextUncovered();
    }

    void
    emitCallHandler()
    {
        bindHandler(Op::CALL);
        emitReadU8(t1, t3); // nargs
        // callee slot = s1 - (nargs+1)*16
        as_.addi(t2, t1, 1);
        as_.slli(t2, t2, 4);
        as_.sub(t2, s1, t2); // &callee
        as_.ld(t3, 0, t2);
        as_.li(t4, kTagFun);
        as_.bne(t3, t4, rt_.trap);
        as_.ld(t3, 8, t2); // proto descriptor
        as_.ld(t4, kProtoKind, t3);
        Label bytecode = as_.newLabel();
        as_.beqz(t4, bytecode);
        // Builtin: spill &callee and nargs, then jump by id.
        as_.addi(sp, sp, -16);
        as_.sd(t2, 0, sp);
        as_.sd(t1, 8, sp);
        as_.ld(t4, kProtoBuiltinId, t3);
        emitBuiltinSwitch(t4, t5);

        as_.bind(bytecode);
        // Push a CallInfo; its ret info is the callee slot address.
        emitPushCallInfo(t4);
        as_.sd(t2, kCiRetInfo, s6);
        // New locals base = first argument slot.
        as_.addi(s3, t2, kTValueSize);
        as_.mv(s7, t3);
        emitLoadProto(t4);
        // Nil-fill locals beyond the passed arguments.
        as_.ld(t4, kProtoFrameSize, s7); // numLocals
        emitNilFill();
        // Operand stack restarts above the locals.
        as_.slli(t4, t4, 4);
        as_.add(s1, s3, t4);
        // FUNCALL dispatch site (bank 2).
        emitDispatcher(2);
    }

    void
    emitReturnHandlers()
    {
        Label unwind = as_.newLabel("return_unwind");

        bindHandler(Op::RETURN);
        emitPop(a3, a4);
        as_.j(unwind);

        bindHandler(Op::RETURN_NIL);
        as_.li(a3, kTagNil);
        as_.li(a4, 0);

        as_.bind(unwind);
        emitPopCallInfo();
        // Pop callee + args + locals + temps, then push the result.
        as_.mv(s1, t4);
        emitPush(a3, a4);
        emitNextUncovered();
    }

    /**
     * A builtin cuts the operand stack back to the callee slot (t0),
     * pushes its result, and returns through the FUNCALL dispatch site.
     */
    void
    emitBuiltinResult() override
    {
        as_.mv(s1, t0);
        emitPush(a0, a1);
        emitDispatcher(2);
    }

    Label uncovered_;
};

} // namespace

GuestProgram
buildSjsGuest(const vm::sjs::Module &module, DispatchKind kind)
{
    return SjsBuilder(module, kind).build();
}

} // namespace scd::guest
