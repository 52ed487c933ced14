#include "rlua_guest.hh"

#include "interp_builder.hh"
#include "layout.hh"

namespace scd::guest
{

using namespace scd::isa;
using namespace scd::isa::reg;
using vm::ArithOp;
using vm::rlua::Op;

namespace
{

/** 32-bit instruction words, 6-bit opcode field, one SCD bank. */
constexpr DispatchShape kRluaShape = {4, 63, vm::rlua::kNumOps, 1};

/**
 * Emits the RLua guest interpreter: Lua-style register-machine handlers
 * on the shared skeleton (register plan in interp_builder.hh), with s10
 * holding the current instruction word and s3 = &R[0].
 */
class RluaBuilder : public InterpBuilder
{
  public:
    RluaBuilder(const vm::rlua::Module &module, DispatchKind kind)
        : InterpBuilder(
              kind, kRluaShape,
              [&](DataImage &data) { return serializeRluaModule(data, module); },
              [](unsigned n) { return vm::rlua::opName(Op(n)); })
    {
    }

  private:
    // --- operand access -------------------------------------------------------

    /** dst = &R[field] for a plain register field at @p shift. */
    void
    emitRegAddr(uint8_t dst, unsigned shift)
    {
        as_.srli(dst, s10, static_cast<int32_t>(shift));
        as_.andi(dst, dst, 255);
        as_.slli(dst, dst, 4);
        as_.add(dst, dst, s3);
    }

    /** dst = &R[A] (A field of s10). */
    void emitRaAddr(uint8_t dst) { emitRegAddr(dst, 6); }

    /**
     * dst = address of RK(field) at @p shift (23 for B, 14 for C):
     * registers resolve against s3, constants against s4.
     */
    void
    emitRkAddr(uint8_t dst, uint8_t tmp, unsigned shift)
    {
        as_.srli(dst, s10, static_cast<int32_t>(shift));
        if (shift != 23)
            as_.andi(dst, dst, 511);
        as_.andi(tmp, dst, 256);
        as_.andi(dst, dst, 255);
        as_.slli(dst, dst, 4);
        Label useK = as_.newLabel();
        Label have = as_.newLabel();
        as_.bnez(tmp, useK);
        as_.add(dst, dst, s3);
        as_.j(have);
        as_.bind(useK);
        as_.add(dst, dst, s4);
        as_.bind(have);
    }

    /** t3/a2 = RK(B), t4/a4 = RK(C) (addresses left in t1/t2). */
    void
    emitLoadRkOperands()
    {
        emitRkAddr(t1, t3, 23);
        emitRkAddr(t2, t3, 14);
        loadValue(t3, a2, t1);
        loadValue(t4, a4, t2);
    }

    /** vpc += delta (memory-held virtual PC). */
    void
    emitVpcAdd(uint8_t deltaReg, uint8_t tmp)
    {
        as_.ld(tmp, kVmVpc, s0);
        as_.add(tmp, tmp, deltaReg);
        as_.sd(tmp, kVmVpc, s0);
    }

    /** Skip the next bytecode (vpc += 4). */
    void
    emitSkipNext(uint8_t tmp)
    {
        as_.ld(tmp, kVmVpc, s0);
        as_.addi(tmp, tmp, 4);
        as_.sd(tmp, kVmVpc, s0);
    }

    /** vpc += sBx * 4 (shared by JMP / FORLOOP / FORPREP). */
    void
    emitJumpBySBx(uint8_t tmpA, uint8_t tmpB)
    {
        as_.srli(tmpA, s10, 14);
        as_.li(tmpB, vm::rlua::kSBxBias);
        as_.sub(tmpA, tmpA, tmpB);
        as_.slli(tmpA, tmpA, 2);
        emitVpcAdd(tmpA, tmpB);
    }

    void bindHandler(Op op) { InterpBuilder::bindHandler(unsigned(op)); }

    // --- handlers ---------------------------------------------------------------

    void
    emitHandlers() override
    {
        emitMove();
        emitLoadK();
        emitLoadBool();
        emitLoadNil();
        emitGetTabUp();
        emitGetTable();
        emitSetTabUp();
        emitSetTable();
        emitNewTable();
        emitArith(Op::ADD, ArithOp::Add);
        emitArith(Op::SUB, ArithOp::Sub);
        emitArith(Op::MUL, ArithOp::Mul);
        emitArith(Op::MOD, ArithOp::Mod);
        emitArith(Op::DIV, ArithOp::Div);
        emitArith(Op::IDIV, ArithOp::IDiv);
        emitUnm();
        emitNot();
        emitLen();
        emitConcat();
        emitJmp();
        emitCompare(Op::EQ, CmpOp::Eq);
        emitCompare(Op::LT, CmpOp::Lt);
        emitCompare(Op::LE, CmpOp::Le);
        emitTest();
        emitCall();
        emitReturn();
        emitForLoop();
        emitForPrep();
        emitClosure();
    }

    void
    emitMove()
    {
        bindHandler(Op::MOVE);
        emitRaAddr(t5);
        emitRegAddr(t1, 23);
        loadValue(t2, t3, t1);
        storeValue(t2, t3, t5);
        emitNext();
    }

    void
    emitLoadK()
    {
        bindHandler(Op::LOADK);
        emitRaAddr(t5);
        as_.srli(t1, s10, 14); // Bx
        as_.slli(t1, t1, 4);
        as_.add(t1, t1, s4);
        loadValue(t2, t3, t1);
        storeValue(t2, t3, t5);
        emitNext();
    }

    void
    emitLoadBool()
    {
        bindHandler(Op::LOADBOOL);
        emitRaAddr(t5);
        as_.srli(t1, s10, 23);
        as_.andi(t1, t1, 1);
        as_.addi(t1, t1, kTagFalse); // 1 -> True(2), 0 -> False(1)
        storeValue(t1, zero, t5);
        // C != 0: skip the next instruction.
        as_.srli(t1, s10, 14);
        as_.andi(t1, t1, 511);
        Label noSkip = as_.newLabel();
        as_.beqz(t1, noSkip);
        emitSkipNext(t2);
        as_.bind(noSkip);
        emitNext();
    }

    void
    emitLoadNil()
    {
        bindHandler(Op::LOADNIL);
        emitRaAddr(t5);
        storeValue(zero, zero, t5);
        emitNext();
    }

    void
    emitGetTabUp()
    {
        bindHandler(Op::GETTABUP);
        emitRkAddr(t1, t2, 14); // key = RK(C)
        as_.mv(a0, s5);
        loadValue(a1, a2, t1);
        as_.call(rt_.tableGet);
        emitRaAddr(t5);
        storeValue(a0, a1, t5);
        emitNext();
    }

    /** Table handlers' inline array-part test: int key in [1, size]. */
    void
    emitArrayIndex(Label generic)
    {
        as_.li(t3, kTagInt);
        as_.bne(a1, t3, generic);
        as_.ld(t4, kTabArrSize, a0);
        as_.addi(t6, a2, -1);
        as_.bgeu(t6, t4, generic);
        as_.ld(t4, kTabArrPtr, a0);
        as_.slli(t6, t6, 4);
        as_.add(t4, t4, t6);
    }

    void
    emitGetTable()
    {
        bindHandler(Op::GETTABLE);
        emitRegAddr(t1, 23); // R[B]: the table
        as_.ld(t2, 0, t1);
        as_.li(t3, kTagTab);
        as_.bne(t2, t3, rt_.trap);
        as_.ld(a0, 8, t1);
        emitRkAddr(t1, t2, 14); // key = RK(C)
        loadValue(a1, a2, t1);
        // Inline array-part fast path (Lua's luaV_fastget).
        Label generic = as_.newLabel();
        Label storeRes = as_.newLabel();
        emitArrayIndex(generic);
        loadValue(a0, a1, t4);
        as_.j(storeRes);
        as_.bind(generic);
        as_.call(rt_.tableGet);
        as_.bind(storeRes);
        emitRaAddr(t5);
        storeValue(a0, a1, t5);
        emitNext();
    }

    void
    emitSetTabUp()
    {
        bindHandler(Op::SETTABUP);
        emitRkAddr(t1, t2, 14); // key = RK(C)
        loadValue(a1, a2, t1);
        emitRkAddr(t1, t2, 23); // value = RK(B)
        loadValue(a3, a4, t1);
        as_.mv(a0, s5);
        as_.call(rt_.tableSet);
        emitNext();
    }

    void
    emitSetTable()
    {
        bindHandler(Op::SETTABLE);
        emitRaAddr(t5); // R[A]: the table
        as_.ld(t2, 0, t5);
        as_.li(t3, kTagTab);
        as_.bne(t2, t3, rt_.trap);
        as_.ld(a0, 8, t5);
        emitRkAddr(t1, t2, 23); // key = RK(B)
        loadValue(a1, a2, t1);
        emitRkAddr(t1, t2, 14); // value = RK(C)
        loadValue(a3, a4, t1);
        // Inline in-range array store (Lua's luaV_fastset).
        Label generic = as_.newLabel();
        Label done = as_.newLabel();
        emitArrayIndex(generic);
        storeValue(a3, a4, t4);
        as_.j(done);
        as_.bind(generic);
        as_.call(rt_.tableSet);
        as_.bind(done);
        emitNext();
    }

    void
    emitNewTable()
    {
        bindHandler(Op::NEWTABLE);
        as_.call(rt_.tableNew);
        emitRaAddr(t5);
        as_.li(t1, kTagTab);
        storeValue(t1, a0, t5);
        emitNext();
    }

    /**
     * Arithmetic handler with the integer fast path inline (the common
     * case the paper's handlers optimize for) and the mixed/float path
     * inlined like Lua's luai_num* macros; values that are not numbers
     * at all fall to the cold metamethod stub.
     */
    void
    emitArith(Op op, ArithOp arith)
    {
        bindHandler(op);
        emitLoadRkOperands();
        Label store = as_.newLabel();
        emitIntArith(arith, store);
        Label metamethod = as_.newLabel();
        emitNumericCheck(t3, metamethod);
        emitNumericCheck(t4, metamethod);
        emitPromote(t6);
        emitFloatArith(as_, arith);
        as_.fmvXD(a1, 2);
        as_.li(a0, kTagFloat);

        as_.bind(store);
        emitRaAddr(t5);
        storeValue(a0, a1, t5);
        emitNext();

        // Cold stub mirroring Lua's luaT_trybinTM metamethod fallback:
        // it re-materializes the operand addresses and event id the way
        // the real fallback would before raising the type error.
        as_.bind(metamethod);
        emitRkAddr(t1, t0, 23);
        emitRkAddr(t2, t0, 14);
        as_.addi(sp, sp, -32);
        as_.sd(t1, 0, sp);
        as_.sd(t2, 8, sp);
        as_.sd(s10, 16, sp);
        as_.li(a0, static_cast<int64_t>(op));
        as_.j(rt_.trap);
    }

    void
    emitUnm()
    {
        bindHandler(Op::UNM);
        emitRegAddr(t1, 23);
        loadValue(t2, t3, t1);
        emitNegate();
        emitRaAddr(t5);
        storeValue(t2, t3, t5);
        emitNext();
    }

    void
    emitNot()
    {
        bindHandler(Op::NOT);
        emitRegAddr(t1, 23);
        as_.ld(t2, 0, t1);
        as_.sltiu(t2, t2, 2); // 1 when falsy (nil or false)
        as_.addi(t2, t2, kTagFalse);
        emitRaAddr(t5);
        storeValue(t2, zero, t5);
        emitNext();
    }

    void
    emitLen()
    {
        bindHandler(Op::LEN);
        emitRegAddr(t1, 23);
        loadValue(t2, t3, t1);
        emitLength();
        emitRaAddr(t5);
        as_.li(t4, kTagInt);
        storeValue(t4, t3, t5);
        emitNext();
    }

    void
    emitConcat()
    {
        bindHandler(Op::CONCAT);
        emitRegAddr(t1, 23);
        as_.ld(t2, 0, t1);
        as_.li(t4, kTagStr);
        as_.bne(t2, t4, rt_.trap);
        as_.ld(a0, 8, t1);
        emitRegAddr(t1, 14);
        as_.ld(t2, 0, t1);
        as_.bne(t2, t4, rt_.trap);
        as_.ld(a1, 8, t1);
        as_.call(rt_.concat);
        emitRaAddr(t5);
        as_.li(t1, kTagStr);
        storeValue(t1, a0, t5);
        emitNext();
    }

    void
    emitJmp()
    {
        bindHandler(Op::JMP);
        emitJumpBySBx(t1, t2);
        emitNext();
    }

    /** EQ/LT/LE A B C: when (RK(B) op RK(C)) != A, skip the next JMP. */
    void
    emitCompare(Op op, CmpOp cmp)
    {
        bindHandler(op);
        emitLoadRkOperands();
        emitCompareCore(cmp);
        as_.srli(t1, s10, 6);
        as_.andi(t1, t1, 255); // A flag
        Label fallthrough = as_.newLabel();
        as_.beq(a0, t1, fallthrough);
        emitSkipNext(t2);
        as_.bind(fallthrough);
        emitNext();
    }

    void
    emitTest()
    {
        bindHandler(Op::TEST);
        emitRaAddr(t5);
        as_.ld(t1, 0, t5);
        as_.sltiu(t1, t1, 2);
        as_.xori(t1, t1, 1); // truthiness
        as_.srli(t2, s10, 14);
        as_.andi(t2, t2, 1); // C
        Label fallthrough = as_.newLabel();
        as_.beq(t1, t2, fallthrough);
        emitSkipNext(t3);
        as_.bind(fallthrough);
        emitNext();
    }

    void
    emitCall()
    {
        bindHandler(Op::CALL);
        emitRaAddr(t5);
        as_.ld(t1, 0, t5);
        as_.li(t2, kTagFun);
        as_.bne(t1, t2, rt_.trap);
        as_.ld(t2, 8, t5); // proto descriptor
        as_.ld(t3, kProtoKind, t2);
        Label bytecode = as_.newLabel();
        as_.beqz(t3, bytecode);
        // Builtin: spill &R[A] (the bodies call runtime subroutines).
        as_.ld(t3, kProtoBuiltinId, t2);
        as_.addi(sp, sp, -16);
        as_.sd(t5, 0, sp);
        emitBuiltinSwitch(t3, t4);

        as_.bind(bytecode);
        emitPushCallInfo(t3);
        as_.srli(t3, s10, 6);
        as_.andi(t3, t3, 255); // return register A
        as_.srli(t4, s10, 14);
        as_.andi(t4, t4, 511);
        as_.sltiu(t4, t4, 2);
        as_.xori(t4, t4, 1); // wantResult = (C >= 2)
        as_.slli(t4, t4, 8);
        as_.or_(t3, t3, t4);
        as_.sd(t3, kCiRetInfo, s6);
        // Activate the callee frame.
        as_.srli(t1, s10, 23);
        as_.addi(t1, t1, -1); // nargs = B - 1
        as_.ld(t4, kProtoNumParams, t2);
        as_.addi(s3, t5, 16); // new base = &R[A+1]
        // Value-stack overflow guard (Lua's luaD_growstack check).
        as_.li(t6, kCallInfoBase - 0x10000);
        as_.bgeu(s3, t6, rt_.trap);
        as_.mv(s7, t2);
        emitLoadProto(t6);
        emitNilFill(); // missing arguments read as nil
        emitNext();
    }

    /** A builtin's result goes to R[A] (t0 = &R[A]). */
    void
    emitBuiltinResult() override
    {
        storeValue(a0, a1, t0);
        emitNext();
    }

    void
    emitReturn()
    {
        bindHandler(Op::RETURN);
        // Result into a3/a4 (nil when B < 2).
        as_.li(a3, kTagNil);
        as_.li(a4, 0);
        as_.srli(t1, s10, 23);
        Label noValue = as_.newLabel();
        as_.sltiu(t2, t1, 2);
        as_.bnez(t2, noValue);
        emitRaAddr(t5);
        loadValue(a3, a4, t5);
        as_.bind(noValue);
        // Returning from the main chunk ends the program.
        as_.li(t2, kCallInfoBase);
        as_.beq(s6, t2, exit_);
        emitPopCallInfo();
        as_.srli(t6, t4, 8);
        Label store = as_.newLabel();
        as_.bnez(t6, store);
        emitNext();
        as_.bind(store);
        as_.andi(t4, t4, 255);
        as_.slli(t4, t4, 4);
        as_.add(t4, t4, s3);
        storeValue(a3, a4, t4);
        emitNext();
    }

    void
    emitForPrep()
    {
        bindHandler(Op::FORPREP);
        emitRaAddr(t5); // &R[A]; limit at +16, step at +32
        as_.ld(t1, 0, t5);  // start tag
        as_.ld(t2, 16, t5); // limit tag
        as_.ld(t3, 32, t5); // step tag
        as_.li(t6, kTagInt);
        Label floatPath = as_.newLabel();
        Label done = as_.newLabel();
        as_.bne(t1, t6, floatPath);
        as_.bne(t2, t6, floatPath);
        as_.bne(t3, t6, floatPath);
        // Integer loop: start -= step.
        as_.ld(t1, 8, t5);
        as_.ld(t3, 40, t5);
        as_.sub(t1, t1, t3);
        as_.sd(t1, 8, t5);
        as_.j(done);
        as_.bind(floatPath);
        {
            // Convert all three control values to float, then subtract.
            auto toFloat = [&](int off) {
                Label isInt = as_.newLabel();
                Label next = as_.newLabel();
                loadValue(t1, t2, t5, off);
                as_.li(t6, kTagInt);
                as_.beq(t1, t6, isInt);
                as_.li(t6, kTagFloat);
                as_.bne(t1, t6, rt_.trap);
                as_.j(next);
                as_.bind(isInt);
                as_.fcvtDL(0, t2);
                as_.fmvXD(t2, 0);
                as_.li(t6, kTagFloat);
                storeValue(t6, t2, t5, off);
                as_.bind(next);
            };
            toFloat(0);
            toFloat(16);
            toFloat(32);
            as_.ld(t1, 8, t5);
            as_.ld(t3, 40, t5);
            as_.fmvDX(0, t1);
            as_.fmvDX(1, t3);
            as_.fsub(0, 0, 1);
            as_.fmvXD(t1, 0);
            as_.sd(t1, 8, t5);
        }
        as_.bind(done);
        emitJumpBySBx(t1, t2);
        emitNext();
    }

    void
    emitForLoop()
    {
        bindHandler(Op::FORLOOP);
        emitRaAddr(t5);
        as_.ld(t1, 0, t5); // control tag (int or float after FORPREP)
        as_.li(t6, kTagInt);
        Label floatPath = as_.newLabel();
        Label continueLoop = as_.newLabel();
        Label exitLoop = as_.newLabel();
        as_.bne(t1, t6, floatPath);
        // Integer loop.
        as_.ld(t2, 8, t5);  // index
        as_.ld(t3, 40, t5); // step
        as_.add(t2, t2, t3);
        as_.sd(t2, 8, t5);
        as_.ld(t4, 24, t5); // limit
        {
            Label negStep = as_.newLabel();
            as_.bltz(t3, negStep);
            as_.ble(t2, t4, continueLoop);
            as_.j(exitLoop);
            as_.bind(negStep);
            as_.bge(t2, t4, continueLoop);
            as_.j(exitLoop);
        }
        as_.bind(floatPath);
        as_.ld(t2, 8, t5);
        as_.ld(t3, 40, t5);
        as_.fmvDX(0, t2);
        as_.fmvDX(1, t3);
        as_.fadd(0, 0, 1);
        as_.fmvXD(t2, 0);
        as_.sd(t2, 8, t5);
        as_.ld(t4, 24, t5);
        as_.fmvDX(2, t4);
        {
            Label negStep = as_.newLabel();
            as_.fmvDX(3, zero);
            as_.flt(t1, 1, 3); // step < 0.0 ?
            as_.bnez(t1, negStep);
            as_.fle(t1, 0, 2); // idx <= limit
            as_.bnez(t1, continueLoop);
            as_.j(exitLoop);
            as_.bind(negStep);
            as_.fle(t1, 2, 0); // limit <= idx
            as_.bnez(t1, continueLoop);
            as_.j(exitLoop);
        }
        as_.bind(continueLoop);
        // Copy the control value into the loop variable R[A+3].
        loadValue(t1, t2, t5);
        storeValue(t1, t2, t5, 48);
        emitJumpBySBx(t1, t2);
        as_.bind(exitLoop);
        emitNext();
    }

    void
    emitClosure()
    {
        bindHandler(Op::CLOSURE);
        as_.srli(t1, s10, 14); // Bx = proto index
        as_.slli(t1, t1, 3);
        as_.li(t2, static_cast<int64_t>(serialized_.protoDescTable));
        as_.add(t1, t1, t2);
        as_.ld(t2, 0, t1);
        emitRaAddr(t5);
        as_.li(t1, kTagFun);
        storeValue(t1, t2, t5);
        emitNext();
    }
};

} // namespace

GuestProgram
buildRluaGuest(const vm::rlua::Module &module, DispatchKind kind)
{
    return RluaBuilder(module, kind).build();
}

} // namespace scd::guest
