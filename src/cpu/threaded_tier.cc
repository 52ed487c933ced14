/**
 * @file
 * Threaded-code executor of the FunctionalCore (see threaded_tier.hh for
 * the design). The file has two parts: the handler-threaded executor
 * (ThreadedTier::exec, one handler per opcode over the core's own slots,
 * chained with GNU computed gotos) and the run around it.
 */

#include "threaded_tier.hh"

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>

#include "common/logging.hh"
#include "functional_core_inl.hh"
#include "inorder_timing.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"

namespace scd::cpu
{

using isa::Opcode;
using Slot = FunctionalCore::Slot;

/** SRV64 division/multiply corner-case semantics. */
inline uint64_t
sdivVal(int64_t a, int64_t b)
{
    if (b == 0)
        return ~uint64_t(0);
    if (a == INT64_MIN && b == -1)
        return uint64_t(INT64_MIN);
    return uint64_t(a / b);
}

inline uint64_t
sremVal(int64_t a, int64_t b)
{
    if (b == 0)
        return uint64_t(a);
    if (a == INT64_MIN && b == -1)
        return 0;
    return uint64_t(a % b);
}

inline uint64_t
mulhVal(int64_t a, int64_t b)
{
    return uint64_t((static_cast<__int128>(a) * static_cast<__int128>(b)) >>
                    64);
}

// ---------------------------------------------------------------------------
// The executor.
// ---------------------------------------------------------------------------

namespace
{

/** The bits of a slot's flag word that are its opcode's isa::OpFlags. */
constexpr uint32_t kOpFlagBits =
    (1u << FunctionalCore::kDispatchRangeShift) - 1;

/**
 * The per-kind fields of a slot's retirement, at RetireInfo's defaults
 * and as constants. Each handler family's event type derives from it and
 * makes data members of only the fields it sets (the handler overwrites
 * their defaults); with its control kind it fixes the rest at compile
 * time, so the retire body never reads them and they are never stored.
 * (Initialized at run time they would be written on every retire: GCC's
 * dead-store elimination stops at the first branch in the retire body
 * whose two arms both store.)
 */
struct NoEvent
{
    static constexpr CtrlKind ctrl = CtrlKind::None;
    static constexpr BranchClass cls = BranchClass::Conditional;
    static constexpr bool taken = false;
    static constexpr bool isReturn = false;
    static constexpr uint64_t memAddr = 0;
    static constexpr int16_t hintReg = -1;
    static constexpr uint64_t hintValue = 0;
    static constexpr uint32_t ropStall = 0;
    static constexpr bool bopProbed = false;
    static constexpr bool bopHit = false;
    static constexpr bool jteInsert = false;
    static constexpr uint64_t jteOpcode = 0;
};

struct MemEvent : NoEvent
{
    uint64_t memAddr = 0;
};

struct BranchEvent : NoEvent
{
    static constexpr CtrlKind ctrl = CtrlKind::Conditional;
    bool taken = false;
};

struct JalEvent : NoEvent
{
    static constexpr CtrlKind ctrl = CtrlKind::Jal;
    static constexpr BranchClass cls = BranchClass::DirectJump;
};

struct JalrEvent : NoEvent
{
    static constexpr CtrlKind ctrl = CtrlKind::Jalr;
    BranchClass cls = BranchClass::Conditional;
    bool isReturn = false;
    int16_t hintReg = -1;
    uint64_t hintValue = 0;
};

struct BopEvent : NoEvent
{
    static constexpr CtrlKind ctrl = CtrlKind::Bop;
    static constexpr BranchClass cls = BranchClass::Bop;
    uint32_t ropStall = 0;
    bool bopProbed = false;
    bool bopHit = false;
    uint64_t jteOpcode = 0;
};

struct JruEvent : NoEvent
{
    static constexpr CtrlKind ctrl = CtrlKind::Jru;
    static constexpr BranchClass cls = BranchClass::IndirectDispatch;
    bool jteInsert = false;
    uint64_t jteOpcode = 0;
};

struct JteFlushEvent : NoEvent
{
    static constexpr CtrlKind ctrl = CtrlKind::JteFlush;
};

/**
 * One slot's retirement under RetireInfo's field names. What its handler
 * family knows is static constexpr: the latency class, the opcode's flag
 * bits with what follows from them (hasMem, memIsStore, writesFp), and
 * through its Event the control kind and every per-kind field it does
 * not set. The timed executor hands it to retireFamily (below), so the
 * retire body folds every test of those facts; the recording executor
 * stores it with recordTo() instead.
 */
template <uint32_t kFlags, LatClass kLat, class Event>
struct SlotRetire : Event
{
    using EventType = Event;
    static constexpr uint32_t kOpFlags = kFlags;
    static_assert((kOpFlags & ~kOpFlagBits) == 0);

    static constexpr LatClass lat = kLat;
    static constexpr bool writesFp = kOpFlags & isa::FlagFpWritesRd;
    static constexpr bool hasMem =
        kOpFlags & (isa::FlagLoad | isa::FlagStore);
    static constexpr bool memIsStore = kOpFlags & isa::FlagStore;

    // Always inlined, like the retire body, so rec never needs an address
    // and its fields become scalars (an out-of-line constructor call
    // would keep the record in memory).
    [[gnu::always_inline]] SlotRetire(const Slot &s, uint64_t pcv,
                                      uint64_t next)
        : pc(pcv), nextPc(next), flags((s.flags & ~kOpFlagBits) | kOpFlags),
          rd(s.rd), rs1(s.rs1), rs2(s.rs2), bank(s.bank), op(uint8_t(s.op)),
          writesInt((kOpFlags & isa::FlagWritesRd) && s.rd != 0)
    {
    }

    uint64_t pc;
    uint64_t nextPc;
    /** The slot's flag word. Its opcode bits are the opcode's opFlags in
     *  every slot (FunctionalCore caches them at decode); here they are
     *  the constant kOpFlags, so the scoreboard's flag tests fold. */
    uint32_t flags;
    uint8_t rd;
    uint8_t rs1;
    uint8_t rs2;
    uint8_t bank;
    uint8_t op;
    bool writesInt;

    /** Write the slot's RetireInfo in place (the recording executor):
     *  reset, then every field, so constant ones merge into the reset. */
    [[gnu::always_inline]] void
    recordTo(RetireInfo &ri) const
    {
        ri = RetireInfo{};
        ri.pc = pc;
        ri.nextPc = nextPc;
        ri.flags = flags;
        ri.rd = rd;
        ri.rs1 = rs1;
        ri.rs2 = rs2;
        ri.bank = bank;
        ri.op = op;
        ri.ctrl = this->ctrl;
        ri.lat = lat;
        ri.cls = this->cls;
        ri.taken = this->taken;
        ri.isReturn = this->isReturn;
        ri.writesInt = writesInt;
        ri.writesFp = writesFp;
        ri.hasMem = hasMem;
        ri.memIsStore = memIsStore;
        ri.memAddr = this->memAddr;
        ri.hintReg = this->hintReg;
        ri.hintValue = this->hintValue;
        ri.ropStall = this->ropStall;
        ri.bopProbed = this->bopProbed;
        ri.bopHit = this->bopHit;
        ri.jteInsert = this->jteInsert;
        ri.jteOpcode = this->jteOpcode;
    }
};

/**
 * The timed retire of one handler family, out of line. A family is one
 * SlotRetire type: handlers with the same flag bits, latency class and
 * event type (all ten register-register ALU ops, every load width, all
 * six branches, ...) share one copy of the retire body specialized to
 * those facts, rather than each inlining its own: a copy in every
 * handler makes exec<true> about four times larger (58 KB against 14 KB
 * with GCC 12), and on a loaded shared host that form runs slower and
 * varies more from run to run. The record's run-time fields come in
 * registers: the slot, pc, successor pc and the event's few fields.
 */
template <class Rec>
[[gnu::noinline]] void
retireFamily(InOrderTiming &timing, const Slot &s, uint64_t pc,
             uint64_t nextPc, typename Rec::EventType event)
{
    Rec rec(s, pc, nextPc);
    static_cast<typename Rec::EventType &>(rec) = event;
    timing.retireAs(rec);
}

} // namespace

template <bool kTimed>
void
ThreadedTier::exec(FunctionalCore &c, Cursor &cur, RetireInfo *ri,
                   InOrderTiming *timing, uint64_t budget)
{
    // One label per slot op: the opcodes in isa::Opcode order, then the
    // two sentinels. Slots token-thread through it.
    static const void *const kLabels[] = {
#define SCD_OP_LABEL(name, mnem, fmt, flags) &&L_##name,
        SCD_OPCODE_LIST(SCD_OP_LABEL)
#undef SCD_OP_LABEL
        &&L_EndOfText,
        &&L_BadPc,
    };
    static_assert(size_t(FunctionalCore::kEndOfText) == isa::kNumOpcodes &&
                  size_t(FunctionalCore::kBadPc) == isa::kNumOpcodes + 1 &&
                  std::size(kLabels) == isa::kNumOpcodes + 2);

    const Slot *const base = c.slots_.data();
    const uint64_t tb = c.textBase_;
    const uint64_t limit = c.textLimit_;
    const Slot *const badSlot = base + (limit >> 2) + 1;
    const Slot *ip = base + cur.idx;
    uint64_t retired = cur.retired;

// The architectural pc of the current slot — handlers only materialize it
// when an instruction actually needs one.
#define SCD_PC() (tb + (uint64_t(ip - base) << 2))

#define SCD_CASE(name) L_##name:
#define SCD_DISPATCH() goto *const_cast<void *>(kLabels[uint8_t(ip->op)])

// Retire slot `slot` (the current one, or a store's fetched copy): build
// its SlotRetire `rec` for opcode `name` (successor pc, latency class,
// event type), run the trailing statements on it, then account it —
// identical to the reference interpreter's tail. The timed executor
// passes the record's run-time fields to its family's retire body, the
// recording one stores it. The timed executor retires before the next
// slot dispatches, so a bop sees the JTE insert of the jru retired just
// before it, as in the reference step()-then-retire loop.
#define SCD_RETIRE_SLOT(slot, name, nextv, latv, event, ...)                 \
    do {                                                                     \
        SlotRetire<isa::opFlags(Opcode::name), latv, event> rec(             \
            (slot), SCD_PC(), (nextv));                                      \
        __VA_ARGS__;                                                         \
        ++retired;                                                           \
        if constexpr (kTimed)                                                \
            retireFamily<decltype(rec)>(*timing, (slot), rec.pc,             \
                                        rec.nextPc, rec);                    \
        else                                                                 \
            rec.recordTo(*ri++);                                             \
    } while (0)

#define SCD_RETIRE(name, ...) SCD_RETIRE_SLOT(*ip, name, __VA_ARGS__)

// Chain into the slot ip now points at.
#define SCD_CHAIN()                                                          \
    do {                                                                     \
        if (--budget == 0)                                                   \
            goto pause;                                                      \
        SCD_DISPATCH();                                                      \
    } while (0)

// Chain into the slot at `slotp`.
#define SCD_NEXT(slotp)                                                      \
    do {                                                                     \
        ip = (slotp);                                                        \
        SCD_CHAIN();                                                         \
    } while (0)

// Write the executor's position back to the cursor: at a pause, and
// before a call that can fault, so the core then reports the faulting
// instruction and the count retired before it, as step() does.
#define SCD_SAVE()                                                           \
    do {                                                                     \
        cur.idx = size_t(ip - base);                                         \
        cur.retired = retired;                                               \
    } while (0)

// Point ip at a target pc: in-text targets go straight to their slot,
// anything else parks the fault in the kBadPc sentinel so it throws at
// the next fetch, like the reference slotAt().
#define SCD_SEEK_PC(targetExpr)                                              \
    do {                                                                     \
        uint64_t targ_ = (targetExpr);                                       \
        uint64_t off_ = targ_ - tb;                                          \
        if (off_ < limit && (off_ & 3) == 0) [[likely]] {                    \
            ip = base + (off_ >> 2);                                         \
        } else {                                                             \
            cur.pendingBadPc = targ_;                                        \
            ip = badSlot;                                                    \
        }                                                                    \
    } while (0)

// ---- handler families ------------------------------------------------------

// Integer-writing ALU/FP-compare/move ops (all carry FlagWritesRd).
#define SCD_H_INTOP(name, latv, ...)                                         \
    SCD_CASE(name) {                                                         \
        [[maybe_unused]] uint64_t urs1 = c.x_[ip->rs1];                      \
        [[maybe_unused]] uint64_t urs2 = c.x_[ip->rs2];                      \
        [[maybe_unused]] int64_t srs1 = int64_t(urs1);                       \
        [[maybe_unused]] int64_t srs2 = int64_t(urs2);                       \
        [[maybe_unused]] int64_t imm = ip->imm;                              \
        [[maybe_unused]] double fa = c.f_[ip->rs1];                          \
        [[maybe_unused]] double fb = c.f_[ip->rs2];                          \
        uint64_t val = (__VA_ARGS__);                                        \
        SCD_RETIRE(name, SCD_PC() + 4, latv, NoEvent);                       \
        if (ip->rd != 0)                                                     \
            c.x_[ip->rd] = val;                                              \
        SCD_NEXT(ip + 1);                                                    \
    }

// FP-register-writing ops (FlagFpWritesRd: write unconditionally).
#define SCD_H_FPOP(name, latv, ...)                                          \
    SCD_CASE(name) {                                                         \
        [[maybe_unused]] double fa = c.f_[ip->rs1];                          \
        [[maybe_unused]] double fb = c.f_[ip->rs2];                          \
        [[maybe_unused]] uint64_t urs1 = c.x_[ip->rs1];                      \
        [[maybe_unused]] int64_t srs1 = int64_t(urs1);                       \
        double val = (__VA_ARGS__);                                          \
        SCD_RETIRE(name, SCD_PC() + 4, latv, NoEvent);                       \
        c.f_[ip->rd] = val;                                                  \
        SCD_NEXT(ip + 1);                                                    \
    }

#define SCD_H_LOAD_TAIL(name)                                                \
    SCD_RETIRE(name, SCD_PC() + 4, LatClass::Load, MemEvent,                 \
               rec.memAddr = addr);                                          \
    if (ip->rd != 0)                                                         \
        c.x_[ip->rd] = val;                                                  \
    SCD_NEXT(ip + 1)

#define SCD_H_LOAD(name, ...)                                                \
    SCD_CASE(name) {                                                         \
        uint64_t addr = c.x_[ip->rs1] + uint64_t(ip->imm);                   \
        uint64_t val = (__VA_ARGS__);                                        \
        SCD_H_LOAD_TAIL(name);                                               \
    }

// .op loads additionally latch Rop; ropWriteIndex is the pre-retire
// count, as in stepImpl.
#define SCD_H_OPLOAD(name, ...)                                              \
    SCD_CASE(name) {                                                         \
        uint64_t addr = c.x_[ip->rs1] + uint64_t(ip->imm);                   \
        uint64_t val = (__VA_ARGS__);                                        \
        FunctionalCore::ScdBank &bk = c.banks_[ip->bank];                    \
        bk.ropData = val & bk.rmask;                                         \
        bk.ropValid = true;                                                  \
        bk.ropWriteIndex = retired;                                          \
        SCD_H_LOAD_TAIL(name);                                               \
    }

// A store into text re-lowers the written slots in place
// (FunctionalCore::noteIfTextWrite), its own slot included, so the store
// retires from its slot as fetched, `s`; the next dispatch reads the new
// code.
#define SCD_H_STORE(name, width, ...)                                        \
    SCD_CASE(name) {                                                         \
        const Slot s = *ip;                                                  \
        uint64_t addr = c.x_[s.rs1] + uint64_t(s.imm);                       \
        __VA_ARGS__;                                                         \
        c.noteIfTextWrite(addr, (width));                                    \
        SCD_RETIRE_SLOT(s, name, SCD_PC() + 4, LatClass::Alu, MemEvent,      \
                        rec.memAddr = addr);                                 \
        SCD_NEXT(ip + 1);                                                    \
    }

#define SCD_H_BR(name, ...)                                                  \
    SCD_CASE(name) {                                                         \
        [[maybe_unused]] uint64_t urs1 = c.x_[ip->rs1];                      \
        [[maybe_unused]] uint64_t urs2 = c.x_[ip->rs2];                      \
        [[maybe_unused]] int64_t srs1 = int64_t(urs1);                       \
        [[maybe_unused]] int64_t srs2 = int64_t(urs2);                       \
        bool taken = (__VA_ARGS__);                                          \
        uint64_t pcv = SCD_PC();                                             \
        SCD_RETIRE(name, taken ? pcv + uint64_t(ip->imm) : pcv + 4,          \
                   LatClass::Alu, BranchEvent, rec.taken = taken);           \
        if (taken)                                                           \
            SCD_SEEK_PC(pcv + uint64_t(ip->imm));                            \
        else                                                                 \
            ip = ip + 1;                                                     \
        SCD_CHAIN();                                                         \
    }

    // ---- handlers ---------------------------------------------------------

    SCD_DISPATCH();

    SCD_H_INTOP(ADD, LatClass::Alu, urs1 + urs2)
    SCD_H_INTOP(SUB, LatClass::Alu, urs1 - urs2)
    SCD_H_INTOP(AND, LatClass::Alu, urs1 & urs2)
    SCD_H_INTOP(OR, LatClass::Alu, urs1 | urs2)
    SCD_H_INTOP(XOR, LatClass::Alu, urs1 ^ urs2)
    SCD_H_INTOP(SLL, LatClass::Alu, urs1 << (urs2 & 63))
    SCD_H_INTOP(SRL, LatClass::Alu, urs1 >> (urs2 & 63))
    SCD_H_INTOP(SRA, LatClass::Alu, uint64_t(srs1 >> (urs2 & 63)))
    SCD_H_INTOP(SLT, LatClass::Alu, uint64_t(srs1 < srs2))
    SCD_H_INTOP(SLTU, LatClass::Alu, uint64_t(urs1 < urs2))
    SCD_H_INTOP(MUL, LatClass::Mul, urs1 * urs2)
    SCD_H_INTOP(MULH, LatClass::Mul, mulhVal(srs1, srs2))
    SCD_H_INTOP(DIV, LatClass::Div, sdivVal(srs1, srs2))
    SCD_H_INTOP(DIVU, LatClass::Div, urs2 == 0 ? ~uint64_t(0) : urs1 / urs2)
    SCD_H_INTOP(REM, LatClass::Div, sremVal(srs1, srs2))
    SCD_H_INTOP(REMU, LatClass::Div, urs2 == 0 ? urs1 : urs1 % urs2)

    SCD_H_INTOP(ADDI, LatClass::Alu, urs1 + uint64_t(imm))
    SCD_H_INTOP(ANDI, LatClass::Alu, urs1 & uint64_t(imm))
    SCD_H_INTOP(ORI, LatClass::Alu, urs1 | uint64_t(imm))
    SCD_H_INTOP(XORI, LatClass::Alu, urs1 ^ uint64_t(imm))
    SCD_H_INTOP(SLLI, LatClass::Alu, urs1 << (imm & 63))
    SCD_H_INTOP(SRLI, LatClass::Alu, urs1 >> (imm & 63))
    SCD_H_INTOP(SRAI, LatClass::Alu, uint64_t(srs1 >> (imm & 63)))
    SCD_H_INTOP(SLTI, LatClass::Alu, uint64_t(srs1 < imm))
    SCD_H_INTOP(SLTIU, LatClass::Alu, uint64_t(urs1 < uint64_t(imm)))
    SCD_H_INTOP(LUI, LatClass::Alu, uint64_t(imm) << 13)

    SCD_H_LOAD(LB, uint64_t(int64_t(int8_t(c.mem_.read8(addr)))))
    SCD_H_LOAD(LBU, c.mem_.read8(addr))
    SCD_H_LOAD(LH, uint64_t(int64_t(int16_t(c.mem_.read16(addr)))))
    SCD_H_LOAD(LHU, c.mem_.read16(addr))
    SCD_H_LOAD(LW, uint64_t(int64_t(int32_t(c.mem_.read32(addr)))))
    SCD_H_LOAD(LWU, c.mem_.read32(addr))
    SCD_H_LOAD(LD, c.mem_.read64(addr))

    SCD_H_STORE(SB, 1, c.mem_.write8(addr, uint8_t(c.x_[s.rs2])))
    SCD_H_STORE(SH, 2, c.mem_.write16(addr, uint16_t(c.x_[s.rs2])))
    SCD_H_STORE(SW, 4, c.mem_.write32(addr, uint32_t(c.x_[s.rs2])))
    SCD_H_STORE(SD, 8, c.mem_.write64(addr, c.x_[s.rs2]))

    SCD_H_BR(BEQ, urs1 == urs2)
    SCD_H_BR(BNE, urs1 != urs2)
    SCD_H_BR(BLT, srs1 < srs2)
    SCD_H_BR(BGE, srs1 >= srs2)
    SCD_H_BR(BLTU, urs1 < urs2)
    SCD_H_BR(BGEU, urs1 >= urs2)

    SCD_CASE(JAL) {
        uint64_t pcv = SCD_PC();
        uint64_t target = pcv + uint64_t(ip->imm);
        SCD_RETIRE(JAL, target, LatClass::Alu, JalEvent);
        if (ip->rd != 0)
            c.x_[ip->rd] = pcv + 4;
        SCD_SEEK_PC(target);
        SCD_CHAIN();
    }

    SCD_CASE(JALR) {
        uint64_t pcv = SCD_PC();
        // Operand reads precede the link write, as in the reference
        // (rs1 == rd and hintReg == rd read the pre-link value).
        uint64_t target = c.x_[ip->rs1] + uint64_t(ip->imm);
        bool isRet = ip->rd == 0 && ip->rs1 == isa::reg::ra;
        int16_t hintReg = -1;
        uint64_t hintValue = 0;
        BranchClass cls;
        if (isRet) {
            cls = BranchClass::Return;
        } else {
            cls = (ip->flags & FunctionalCore::PcFlagDispatchJump)
                      ? BranchClass::IndirectDispatch
                      : BranchClass::IndirectOther;
            hintReg = FunctionalCore::vbbiHintOf(ip->flags);
            if (hintReg >= 0)
                hintValue = c.x_[hintReg];
        }
        SCD_RETIRE(JALR, target, LatClass::Alu, JalrEvent,
                   rec.cls = cls; rec.isReturn = isRet;
                   rec.hintReg = hintReg; rec.hintValue = hintValue);
        if (ip->rd != 0)
            c.x_[ip->rd] = pcv + 4;
        SCD_SEEK_PC(target);
        SCD_CHAIN();
    }

    SCD_CASE(FLD) {
        uint64_t addr = c.x_[ip->rs1] + uint64_t(ip->imm);
        double val = std::bit_cast<double>(c.mem_.read64(addr));
        SCD_RETIRE(FLD, SCD_PC() + 4, LatClass::Load, MemEvent,
                   rec.memAddr = addr);
        c.f_[ip->rd] = val;
        SCD_NEXT(ip + 1);
    }

    SCD_H_STORE(FSD, 8,
                c.mem_.write64(addr, std::bit_cast<uint64_t>(c.f_[s.rs2])))

    SCD_H_FPOP(FADD, LatClass::Fp, fa + fb)
    SCD_H_FPOP(FSUB, LatClass::Fp, fa - fb)
    SCD_H_FPOP(FMUL, LatClass::Fp, fa * fb)
    SCD_H_FPOP(FDIV, LatClass::FpDiv, fa / fb)
    SCD_H_FPOP(FSQRT, LatClass::FpDiv, std::sqrt(fa))
    SCD_H_FPOP(FMIN, LatClass::Fp, std::fmin(fa, fb))
    SCD_H_FPOP(FMAX, LatClass::Fp, std::fmax(fa, fb))
    SCD_H_FPOP(FNEG, LatClass::Fp, -fa)
    SCD_H_FPOP(FABS, LatClass::Fp, std::fabs(fa))
    SCD_H_INTOP(FEQ, LatClass::Fp, uint64_t(fa == fb))
    SCD_H_INTOP(FLT, LatClass::Fp, uint64_t(fa < fb))
    SCD_H_INTOP(FLE, LatClass::Fp, uint64_t(fa <= fb))
    SCD_H_FPOP(FCVT_D_L, LatClass::Fp, double(srs1))
    SCD_H_INTOP(FCVT_L_D, LatClass::Fp, uint64_t(int64_t(fa)))
    SCD_H_INTOP(FMV_X_D, LatClass::Alu, std::bit_cast<uint64_t>(fa))
    SCD_H_FPOP(FMV_D_X, LatClass::Alu, std::bit_cast<double>(urs1))

    SCD_CASE(ECALL) {
        SCD_SAVE();
        c.handleSyscall();
        SCD_RETIRE(ECALL, SCD_PC() + 4, LatClass::Alu, NoEvent);
        ip = ip + 1;
        if (c.exited_) [[unlikely]]
            goto pause;
        SCD_CHAIN();
    }

    SCD_CASE(EBREAK) {
        // Guest-placed trap instruction: contain it as a guest error.
        SCD_SAVE();
        fatal("ebreak executed at pc=", SCD_PC());
    }

    SCD_CASE(SETMASK) {
        c.banks_[ip->bank].rmask = c.x_[ip->rs1];
        SCD_RETIRE(SETMASK, SCD_PC() + 4, LatClass::Alu, NoEvent);
        SCD_NEXT(ip + 1);
    }

    SCD_H_OPLOAD(LBU_OP, c.mem_.read8(addr))
    SCD_H_OPLOAD(LHU_OP, c.mem_.read16(addr))
    SCD_H_OPLOAD(LW_OP, c.mem_.read32(addr))
    SCD_H_OPLOAD(LD_OP, c.mem_.read64(addr))

    SCD_CASE(BOP) {
        uint64_t pcv = SCD_PC();
        uint32_t ropStall = 0;
        bool bopProbed = false;
        bool bopHit = false;
        uint64_t jteOpcode = 0;
        // The timed executor probes its InOrderTiming directly; recording
        // goes through the core's TimingModel port.
        std::optional<uint64_t> target;
        if constexpr (kTimed) {
            target = c.bopExec(*timing, ip->bank, pcv, retired, ropStall,
                               bopProbed, bopHit, jteOpcode);
        } else {
            target = c.bopExec(c.timing_, ip->bank, pcv, retired, ropStall,
                               bopProbed, bopHit, jteOpcode);
        }
        SCD_RETIRE(BOP, target ? *target : pcv + 4, LatClass::Alu, BopEvent,
                   rec.ropStall = ropStall; rec.bopProbed = bopProbed;
                   rec.bopHit = bopHit; rec.jteOpcode = jteOpcode);
        if (target)
            SCD_SEEK_PC(*target);
        else
            ip = ip + 1;
        SCD_CHAIN();
    }

    SCD_CASE(JRU) {
        uint64_t target = c.x_[ip->rs1];
        uint64_t jteOpcode = 0;
        bool jteIns = c.jruConsume(ip->bank, jteOpcode);
        SCD_RETIRE(JRU, target, LatClass::Alu, JruEvent,
                   rec.jteInsert = jteIns; rec.jteOpcode = jteOpcode);
        SCD_SEEK_PC(target);
        SCD_CHAIN();
    }

    SCD_CASE(JTE_FLUSH) {
        for (FunctionalCore::ScdBank &bk : c.banks_)
            bk.ropValid = false;
        SCD_RETIRE(JTE_FLUSH, SCD_PC() + 4, LatClass::Alu, JteFlushEvent);
        SCD_NEXT(ip + 1);
    }

    SCD_CASE(EndOfText) {
        // Sequential fall-through past the last instruction: fault at
        // the same pc the reference fetch would have.
        SCD_SAVE();
        c.badFetch(tb + limit);
    }

    SCD_CASE(BadPc) {
        SCD_SAVE();
        c.badFetch(cur.pendingBadPc);
    }

  pause:
    SCD_SAVE();

#undef SCD_H_BR
#undef SCD_H_STORE
#undef SCD_H_OPLOAD
#undef SCD_H_LOAD
#undef SCD_H_LOAD_TAIL
#undef SCD_H_FPOP
#undef SCD_H_INTOP
#undef SCD_SEEK_PC
#undef SCD_SAVE
#undef SCD_NEXT
#undef SCD_CHAIN
#undef SCD_RETIRE
#undef SCD_RETIRE_SLOT
#undef SCD_DISPATCH
#undef SCD_CASE
#undef SCD_PC
}

// ---------------------------------------------------------------------------
// The run around the executor.
// ---------------------------------------------------------------------------

ThreadedTier::Cursor
ThreadedTier::makeCursor(const FunctionalCore &c)
{
    Cursor cur{};
    cur.retired = c.retired_;
    uint64_t off = c.pc_ - c.textBase_;
    if (off < c.textLimit_ && (off & 3) == 0) {
        cur.idx = size_t(off >> 2);
    } else {
        // Invalid entry pc: route through the kBadPc sentinel so the run
        // faults exactly like the reference fetch would.
        cur.idx = size_t(c.textLimit_ >> 2) + 1;
        cur.pendingBadPc = c.pc_;
    }
    return cur;
}

void
ThreadedTier::syncCore(FunctionalCore &c, const Cursor &cur)
{
    c.retired_ = cur.retired;
    c.pc_ = cur.idx == size_t(c.textLimit_ >> 2) + 1
                ? cur.pendingBadPc
                : c.textBase_ + uint64_t(cur.idx) * 4;
}

template <bool kTimed>
size_t
ThreadedTier::run(FunctionalCore &c, RetireInfo *out, InOrderTiming *timing,
                  size_t cap)
{
    if (cap == 0)
        return 0;
    Cursor cur = makeCursor(c);
    uint64_t start = cur.retired;
    try {
        exec<kTimed>(c, cur, out, timing, cap);
    } catch (...) {
        syncCore(c, cur);
        throw;
    }
    syncCore(c, cur);
    return size_t(cur.retired - start);
}

size_t
ThreadedTier::runRecorded(FunctionalCore &core, RetireInfo *out, size_t cap)
{
    return run<false>(core, out, nullptr, cap);
}

size_t
ThreadedTier::runTimed(FunctionalCore &core, InOrderTiming &timing,
                       size_t cap)
{
    return run<true>(core, nullptr, &timing, cap);
}

} // namespace scd::cpu
