#include "interp_builder.hh"

#include <string>

#include "common/logging.hh"
#include "cpu/syscalls.hh"
#include "layout.hh"

namespace scd::guest
{

using namespace scd::isa;
using namespace scd::isa::reg;
using vm::ArithOp;

InterpBuilder::InterpBuilder(
    DispatchKind kind, const DispatchShape &shape,
    const std::function<SerializedModule(DataImage &)> &serialize,
    const char *(*opName)(unsigned))
    : as_(kTextBase), data_(kDataBase), rt_(as_, data_), kind_(kind),
      shape_(shape), serialized_(serialize(data_)),
      exit_(as_.newLabel("exit_program")), dispatch_(as_.newLabel("dispatch")),
      bound_(shape.numOps, false)
{
    for (unsigned n = 0; n < shape.numOps; ++n)
        handlers_.push_back(as_.newLabel(std::string("op_") + opName(n)));
    for (size_t n = 0; n < builtins_.size(); ++n)
        builtins_[n] = as_.newLabel("builtin_" + std::to_string(n));
}

GuestProgram
InterpBuilder::build()
{
    emitEntry();
    emitHandlers();
    emitTrapHandlers();
    emitBuiltins();
    emitExit();
    rt_.emit();
    return finish();
}

void
InterpBuilder::emitDispatcher(uint8_t bank, bool scdApplied)
{
    bool scd = kind_ == DispatchKind::Scd && scdApplied;
    Label start = as_.bindHere();
    // Bytecode fetch (the virtual PC lives in the VM struct, as the
    // compiled Lua loop of Figure 1(b) keeps it in memory).
    as_.ld(t5, kVmVpc, s0);
    if (shape_.fetchBytes == 4) {
        if (scd)
            as_.lwOp(s10, 0, t5, bank);
        else
            as_.lwu(s10, 0, t5);
    } else if (scd) {
        as_.lbuOp(s10, 0, t5, bank);
    } else {
        as_.lbu(s10, 0, t5);
    }
    as_.addi(t5, t5, static_cast<int32_t>(shape_.fetchBytes));
    as_.sd(t5, kVmVpc, s0);
    // Mirror Lua's ci->u.l.savedpc bookkeeping on every fetch.
    as_.sd(t5, kVmSavedPc, s0);
    // Debug-hook check (never taken; Lua tests hookmask here).
    as_.lbu(t2, kVmHookMask, s0);
    as_.bnez(t2, rt_.trap);
    if (scd)
        as_.bop(bank); // fast path: a JTE hit redirects straight away
    // Slow path: decode, bound check, table load, indirect jump.
    as_.andi(t1, s10, static_cast<int32_t>(shape_.opMask));
    as_.sltiu(t2, t1, static_cast<int32_t>(shape_.numOps));
    as_.beqz(t2, rt_.trap);
    as_.slli(t3, t1, 3);
    as_.add(t3, t3, s2);
    as_.ld(t4, 0, t3);
    jumpPcs_.push_back(as_.bindHere());
    if (scd)
        as_.jru(t4, bank);
    else
        as_.jalr(zero, t4, 0);
    ranges_.emplace_back(start, as_.bindHere());
}

void
InterpBuilder::emitNext()
{
    if (kind_ == DispatchKind::Threaded)
        emitDispatcher();
    else
        as_.j(dispatch_);
}

void
InterpBuilder::bindHandler(unsigned op)
{
    as_.bind(handlers_[op]);
    bound_[op] = true;
}

void
InterpBuilder::emitEntry()
{
    as_.li(sp, kNativeStackTop);
    as_.li(s8, static_cast<int64_t>(data_.internTable()));
    as_.li(s11, kHeapBase);
    as_.li(s5, static_cast<int64_t>(serialized_.globalsTable));
    as_.li(s0, static_cast<int64_t>(serialized_.vmStruct));
    as_.li(s2, static_cast<int64_t>(serialized_.jumpTable));
    as_.li(s6, kCallInfoBase);
    as_.li(s3, kValueStackBase);
    as_.li(s7, static_cast<int64_t>(serialized_.protoDescs[0]));
    emitLoadProto(t0);
    emitFrameSetup();
    if (kind_ == DispatchKind::Scd) {
        as_.li(t0, shape_.opMask);
        for (unsigned bank = 0; bank < shape_.numBanks; ++bank)
            as_.setmask(t0, static_cast<uint8_t>(bank));
    }
    // Switch and SCD builds enter the one shared dispatcher; threaded
    // builds fall into the first of their per-handler copies.
    if (kind_ != DispatchKind::Threaded)
        as_.bind(dispatch_);
    emitDispatcher();
}

/** Every opcode without a handler routes to the runtime trap. */
void
InterpBuilder::emitTrapHandlers()
{
    for (unsigned n = 0; n < handlers_.size(); ++n) {
        if (!bound_[n]) {
            as_.bind(handlers_[n]);
            as_.j(rt_.trap);
        }
    }
}

void
InterpBuilder::emitBuiltinSwitch(uint8_t id, uint8_t tmp)
{
    for (unsigned n = 0; n < builtins_.size(); ++n) {
        as_.li(tmp, static_cast<int64_t>(n));
        as_.beq(id, tmp, builtins_[n]);
    }
    as_.j(rt_.trap);
}

/**
 * Builtin bodies. Entered with the call's result address spilled at
 * 0(sp) (its first argument sits 16 bytes above it); each leaves a0 =
 * tag, a1 = payload for the shared result store.
 */
void
InterpBuilder::emitBuiltins()
{
    Label storeResult = as_.newLabel("builtin_store");

    // print(v)
    as_.bind(builtins_[size_t(vm::Builtin::Print)]);
    as_.ld(t0, 0, sp);
    loadValue(a0, a1, t0, 16);
    as_.call(rt_.printValue);
    as_.li(a0, '\n');
    as_.li(a7, static_cast<int64_t>(cpu::Syscall::PutChar));
    as_.ecall();
    as_.li(a0, kTagNil);
    as_.li(a1, 0);
    as_.j(storeResult);

    // sqrt(x)
    as_.bind(builtins_[size_t(vm::Builtin::Sqrt)]);
    as_.ld(t0, 0, sp);
    loadValue(t1, t2, t0, 16);
    {
        Label flt = as_.newLabel();
        Label go = as_.newLabel();
        as_.li(t3, kTagInt);
        as_.bne(t1, t3, flt);
        as_.fcvtDL(0, t2);
        as_.j(go);
        as_.bind(flt);
        as_.li(t3, kTagFloat);
        as_.bne(t1, t3, rt_.trap);
        as_.fmvDX(0, t2);
        as_.bind(go);
        as_.fsqrt(0, 0);
        as_.fmvXD(a1, 0);
        as_.li(a0, kTagFloat);
        as_.j(storeResult);
    }

    // strsub(s, i, j)
    as_.bind(builtins_[size_t(vm::Builtin::StrSub)]);
    as_.ld(t0, 0, sp);
    as_.ld(t1, 16, t0);
    as_.li(t2, kTagStr);
    as_.bne(t1, t2, rt_.trap);
    as_.ld(a0, 24, t0);
    as_.ld(a1, 40, t0); // second argument's payload (int checked loosely)
    as_.ld(a2, 56, t0); // third argument's payload
    as_.call(rt_.strSub);
    as_.mv(a1, a0);
    as_.li(a0, kTagStr);
    as_.j(storeResult);

    // strbyte(s, i)
    as_.bind(builtins_[size_t(vm::Builtin::StrByte)]);
    as_.ld(t0, 0, sp);
    as_.ld(t1, 16, t0);
    as_.li(t2, kTagStr);
    as_.bne(t1, t2, rt_.trap);
    as_.ld(t3, 24, t0); // string object
    as_.ld(t4, 40, t0); // index
    {
        Label nil = as_.newLabel();
        as_.ld(t5, kStrLen, t3);
        as_.addi(t6, t4, -1);
        as_.bgeu(t6, t5, nil); // i < 1 or i > len
        as_.add(t3, t3, t6);
        as_.lbu(a1, kStrBytes, t3);
        as_.li(a0, kTagInt);
        as_.j(storeResult);
        as_.bind(nil);
        as_.li(a0, kTagNil);
        as_.li(a1, 0);
        as_.j(storeResult);
    }

    // strchar(i)
    as_.bind(builtins_[size_t(vm::Builtin::StrChar)]);
    as_.ld(t0, 0, sp);
    as_.ld(t1, 24, t0);
    as_.addi(sp, sp, -16);
    as_.sb(t1, 0, sp);
    as_.mv(a0, sp);
    as_.li(a1, 1);
    as_.call(rt_.internBytes);
    as_.addi(sp, sp, 16);
    as_.mv(a1, a0);
    as_.li(a0, kTagStr);
    as_.j(storeResult);

    // tofloat(x)
    as_.bind(builtins_[size_t(vm::Builtin::ToFloat)]);
    as_.ld(t0, 0, sp);
    loadValue(t1, t2, t0, 16);
    {
        Label flt = as_.newLabel();
        as_.li(t3, kTagInt);
        as_.bne(t1, t3, flt);
        as_.fcvtDL(0, t2);
        as_.fmvXD(a1, 0);
        as_.li(a0, kTagFloat);
        as_.j(storeResult);
        as_.bind(flt);
        as_.li(t3, kTagFloat);
        as_.bne(t1, t3, rt_.trap);
        as_.mv(a1, t2);
        as_.li(a0, kTagFloat);
        as_.j(storeResult);
    }

    as_.bind(storeResult);
    as_.ld(t0, 0, sp);
    as_.addi(sp, sp, 16);
    emitBuiltinResult();
}

void
InterpBuilder::emitExit()
{
    as_.bind(exit_);
    if (kind_ == DispatchKind::Scd)
        as_.jteFlush();
    as_.li(a0, 0);
    as_.li(a7, static_cast<int64_t>(cpu::Syscall::Exit));
    as_.ecall();
}

GuestProgram
InterpBuilder::finish()
{
    GuestProgram out;
    out.text = as_.finish();
    out.dataBase = data_.base();
    // Patch the jump table with the final handler addresses.
    for (unsigned n = 0; n < handlers_.size(); ++n)
        data_.write64(serialized_.jumpTable + n * 8, as_.address(handlers_[n]));
    out.data = data_.bytes();
    // Dispatcher metadata for Figures 2 and 3 and for VBBI.
    for (auto [start, end] : ranges_)
        out.meta.dispatchRanges.push_back(
            {as_.address(start), as_.address(end)});
    for (Label l : jumpPcs_) {
        uint64_t pc = as_.address(l);
        out.meta.dispatchJumpPcs.insert(pc);
        out.meta.vbbiHints[pc] = t1; // t1 holds the decoded opcode
    }
    return out;
}

void
InterpBuilder::loadValue(uint8_t tag, uint8_t pay, uint8_t base, int32_t off)
{
    as_.ld(tag, off, base);
    as_.ld(pay, off + 8, base);
}

void
InterpBuilder::storeValue(uint8_t tag, uint8_t pay, uint8_t base, int32_t off)
{
    as_.sd(tag, off, base);
    as_.sd(pay, off + 8, base);
}

void
InterpBuilder::emitIntArith(ArithOp op, Label done)
{
    Label slow = as_.newLabel();
    as_.li(t6, kTagInt);
    if (op != ArithOp::Div) {
        as_.bne(t3, t6, slow);
        as_.bne(t4, t6, slow);
        switch (op) {
          case ArithOp::Add:
            as_.add(a1, a2, a4);
            break;
          case ArithOp::Sub:
            as_.sub(a1, a2, a4);
            break;
          case ArithOp::Mul:
            as_.mul(a1, a2, a4);
            break;
          case ArithOp::IDiv: {
            as_.beqz(a4, rt_.trap); // division by zero
            as_.div(a1, a2, a4);
            as_.rem(t0, a2, a4);
            Label ok = as_.newLabel();
            as_.beqz(t0, ok);
            as_.xor_(t0, a2, a4);
            as_.bgez(t0, ok);
            as_.addi(a1, a1, -1); // floor adjustment
            as_.bind(ok);
            break;
          }
          case ArithOp::Mod: {
            as_.beqz(a4, rt_.trap);
            as_.rem(a1, a2, a4);
            Label ok = as_.newLabel();
            as_.beqz(a1, ok);
            as_.xor_(t0, a1, a4);
            as_.bgez(t0, ok);
            as_.add(a1, a1, a4); // sign follows the divisor
            as_.bind(ok);
            break;
          }
          default:
            panic("not a binary arith op");
        }
        as_.mv(a0, t6); // result tag: int
        as_.j(done);
    }
    as_.bind(slow);
}

void
InterpBuilder::emitPromote(uint8_t intTag)
{
    Label lFloat = as_.newLabel();
    Label lDone = as_.newLabel();
    as_.bne(t3, intTag, lFloat);
    as_.fcvtDL(0, a2);
    as_.j(lDone);
    as_.bind(lFloat);
    as_.fmvDX(0, a2);
    as_.bind(lDone);
    Label rFloat = as_.newLabel();
    Label rDone = as_.newLabel();
    as_.bne(t4, intTag, rFloat);
    as_.fcvtDL(1, a4);
    as_.j(rDone);
    as_.bind(rFloat);
    as_.fmvDX(1, a4);
    as_.bind(rDone);
}

void
InterpBuilder::emitNumericCheck(uint8_t tag, Label notNumeric)
{
    as_.addi(t0, tag, -kTagInt);
    as_.sltiu(t0, t0, 2); // tag in {Int, Float}
    as_.beqz(t0, notNumeric);
}

void
InterpBuilder::emitCompareCore(CmpOp op)
{
    Label slow = as_.newLabel();
    Label decide = as_.newLabel();
    as_.li(t6, kTagInt);
    as_.bne(t3, t6, slow);
    as_.bne(t4, t6, slow);
    switch (op) {
      case CmpOp::Eq:
        as_.xor_(a0, a2, a4);
        as_.seqz(a0, a0);
        break;
      case CmpOp::Lt:
        as_.slt(a0, a2, a4);
        break;
      case CmpOp::Le:
        as_.slt(a0, a4, a2);
        as_.xori(a0, a0, 1);
        break;
    }
    as_.j(decide);

    // Both numeric (int/float mix): float compare.
    as_.bind(slow);
    Label notNumeric = as_.newLabel();
    emitNumericCheck(t3, notNumeric);
    emitNumericCheck(t4, notNumeric);
    as_.li(t0, kTagInt);
    emitPromote(t0);
    switch (op) {
      case CmpOp::Eq:
        as_.feq(a0, 0, 1);
        break;
      case CmpOp::Lt:
        as_.flt(a0, 0, 1);
        break;
      case CmpOp::Le:
        as_.fle(a0, 0, 1);
        break;
    }
    as_.j(decide);

    as_.bind(notNumeric);
    if (op == CmpOp::Eq) {
        // Same tag: identity comparison covers nil/bool/str/tab/fun
        // (strings are interned; nil/false/true payloads are always
        // zero). Different tags: not equal.
        Label differ = as_.newLabel();
        as_.bne(t3, t4, differ);
        as_.xor_(a0, a2, a4);
        as_.seqz(a0, a0);
        as_.j(decide);
        as_.bind(differ);
        as_.li(a0, 0);
        as_.j(decide);
    } else {
        // Strings compare lexicographically; anything else traps.
        Label bad = as_.newLabel();
        as_.li(t0, kTagStr);
        as_.bne(t3, t0, bad);
        as_.bne(t4, t0, bad);
        as_.mv(a0, a2);
        as_.mv(a1, a4);
        as_.call(rt_.strCmp);
        as_.slti(a0, a0, op == CmpOp::Lt ? 0 : 1);
        as_.j(decide);
        as_.bind(bad);
        as_.j(rt_.trap);
    }
    as_.bind(decide);
}

void
InterpBuilder::emitNegate()
{
    Label flt = as_.newLabel();
    Label done = as_.newLabel();
    as_.li(t4, kTagInt);
    as_.bne(t2, t4, flt);
    as_.neg(t3, t3);
    as_.j(done);
    as_.bind(flt);
    as_.li(t4, kTagFloat);
    as_.bne(t2, t4, rt_.trap);
    as_.fmvDX(0, t3);
    as_.fneg(0, 0);
    as_.fmvXD(t3, 0);
    as_.bind(done);
}

void
InterpBuilder::emitLength()
{
    Label isTab = as_.newLabel();
    Label done = as_.newLabel();
    as_.li(t4, kTagStr);
    as_.bne(t2, t4, isTab);
    as_.ld(t3, kStrLen, t3);
    as_.j(done);
    as_.bind(isTab);
    as_.li(t4, kTagTab);
    as_.bne(t2, t4, rt_.trap);
    as_.ld(t3, kTabArrSize, t3);
    as_.bind(done);
}

void
InterpBuilder::emitPushCallInfo(uint8_t tmp)
{
    as_.addi(s6, s6, kCiSize);
    as_.ld(tmp, kVmVpc, s0);
    as_.sd(tmp, kCiSavedVpc, s6);
    as_.sd(s3, kCiSavedBase, s6);
    as_.sd(s7, kCiSavedProto, s6);
}

void
InterpBuilder::emitPopCallInfo()
{
    as_.ld(t3, kCiSavedVpc, s6);
    as_.sd(t3, kVmVpc, s0);
    as_.ld(s3, kCiSavedBase, s6);
    as_.ld(s7, kCiSavedProto, s6);
    as_.ld(s4, kProtoConsts, s7);
    as_.ld(t4, kCiRetInfo, s6);
    as_.addi(s6, s6, -int(kCiSize));
}

void
InterpBuilder::emitLoadProto(uint8_t tmp)
{
    as_.ld(s4, kProtoConsts, s7);
    as_.ld(tmp, kProtoCode, s7);
    as_.sd(tmp, kVmVpc, s0);
}

void
InterpBuilder::emitNilFill()
{
    Label fill = as_.newLabel();
    Label done = as_.newLabel();
    as_.bind(fill);
    as_.bge(t1, t4, done);
    as_.slli(t6, t1, 4);
    as_.add(t6, t6, s3);
    as_.sd(zero, 0, t6);
    as_.sd(zero, 8, t6);
    as_.addi(t1, t1, 1);
    as_.j(fill);
    as_.bind(done);
}

} // namespace scd::guest
