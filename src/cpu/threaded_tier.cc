/**
 * @file
 * Threaded-code executor of the FunctionalCore (see threaded_tier.hh for
 * the design). The file has three parts: the slot representation, its
 * lowering and the process-global translation cache; the handler-threaded
 * executor (ThreadedTier::exec, one handler per opcode, chained with GNU
 * computed gotos); and the run loop that bursts the executor between
 * budget boundaries and retranslation pauses.
 */

#include "threaded_tier.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "functional_core_inl.hh"
#include "inorder_timing.hh"
#include "isa/instruction.hh"
#include "isa/opcode.hh"

namespace scd::cpu
{

using isa::Opcode;

/**
 * Handler index of a translated slot. Real opcodes map by identity (the
 * list below reuses SCD_OPCODE_LIST, so the enum values coincide with
 * isa::Opcode); the two extras are the sentinel slots appended past the
 * translated text: EndOfText faults a fall-through off the last
 * instruction, BadPc faults a computed transfer whose target was outside
 * text — one instruction *after* the transfer retired, exactly when the
 * reference interpreter's next fetch would have faulted.
 */
enum class HOp : uint8_t
{
#define SCD_HOP_ENUM(name, mnem, fmt, flags) name,
    SCD_OPCODE_LIST(SCD_HOP_ENUM)
#undef SCD_HOP_ENUM
    EndOfText,
    BadPc,
    NumHops
};

static_assert(size_t(HOp::EndOfText) == isa::kNumOpcodes,
              "HOp must mirror the opcode list");

/** TSlot::aux value meaning "taken target is outside text". */
constexpr uint32_t kNoTarget = UINT32_MAX;

/**
 * One translated instruction: the handler index for its opcode plus the
 * operands pre-decoded so no handler ever touches the original text. aux
 * pre-resolves the taken-successor *slot index* of direct branches and
 * jal, turning a taken transfer into one pointer assignment. Padded to 32
 * bytes so slot indexing is a shift.
 */
struct alignas(32) TSlot
{
    int64_t imm = 0;          ///< sign-extended immediate
    uint32_t aux = kNoTarget; ///< taken-target slot index (direct only)
    uint32_t flags = 0;       ///< FunctionalCore's cached flag word
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t bank = 0;
    uint8_t hop = 0;          ///< HOp handler index
    uint8_t op = 0;           ///< original isa::Opcode (RetireInfo::op)
};
static_assert(sizeof(TSlot) == 32, "TSlot indexing wants a power of two");

/** A translated text segment: nReal lowered slots + the two sentinels. */
struct TProgram
{
    uint64_t textBase = 0;
    size_t nReal = 0;
    std::vector<TSlot> slots; ///< size nReal + 2
};

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

namespace
{

TSlot
lowerSlot(const isa::Instruction &inst, uint32_t flags, size_t idx,
          uint64_t limitBytes)
{
    TSlot ts;
    ts.imm = inst.imm;
    ts.flags = flags;
    ts.rd = inst.rd;
    ts.rs1 = inst.rs1;
    ts.rs2 = inst.rs2;
    ts.bank = inst.bank;
    ts.hop = uint8_t(inst.op);
    ts.op = uint8_t(inst.op);
    switch (inst.op) {
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::BLTU:
      case Opcode::BGEU:
      case Opcode::JAL: {
        // Pre-resolve the pc-relative taken target to a slot index; a
        // target outside text keeps kNoTarget and the handler routes the
        // (retired) transfer to the BadPc sentinel instead.
        int64_t toff = int64_t(idx) * 4 + inst.imm;
        if (toff >= 0 && uint64_t(toff) < limitBytes && (toff & 3) == 0)
            ts.aux = uint32_t(uint64_t(toff) >> 2);
        break;
      }
      default:
        break;
    }
    return ts;
}

TSlot
sentinelSlot(HOp hop)
{
    TSlot ts;
    ts.op = uint8_t(Opcode::EBREAK);
    ts.hop = uint8_t(hop);
    return ts;
}

/**
 * Process-global translation cache, mirroring the harness's guest
 * compile cache: translations are immutable and shared (a plan point re-
 * running the same guest reuses the lowering), keyed by a hash of the
 * decoded slots with an exact per-field comparison as collision guard
 * (isa::Instruction has padding bytes, so raw-byte hashing is unsound).
 */
struct TranslationCache
{
    std::mutex mu;
    std::unordered_multimap<uint64_t, std::shared_ptr<const TProgram>> map;
    uint64_t hits = 0;
    uint64_t compiles = 0;
};

TranslationCache &
cache()
{
    static TranslationCache tc;
    return tc;
}

} // namespace

ThreadedCacheStats
threadedCacheStats()
{
    TranslationCache &tc = cache();
    std::lock_guard<std::mutex> lock(tc.mu);
    return {tc.hits, tc.compiles, uint64_t(tc.map.size())};
}

void
resetThreadedCache()
{
    TranslationCache &tc = cache();
    std::lock_guard<std::mutex> lock(tc.mu);
    tc.map.clear();
    tc.hits = 0;
    tc.compiles = 0;
}

// ---------------------------------------------------------------------------
// The executor.
// ---------------------------------------------------------------------------

template <bool kTimed>
ThreadedTier::ExecStatus
ThreadedTier::exec(Cursor &cur, RetireInfo *ri, InOrderTiming *timing,
                   uint64_t budget)
{
    // One label per handler, in HOp order; slots token-thread through it.
    static const void *const kLabels[] = {
#define SCD_HOP_LABEL(name, mnem, fmt, flags) &&L_##name,
        SCD_OPCODE_LIST(SCD_HOP_LABEL)
#undef SCD_HOP_LABEL
        &&L_EndOfText,
        &&L_BadPc,
    };
    static_assert(std::size(kLabels) == size_t(HOp::NumHops));

    FunctionalCore &c = core_;
    const TProgram &p = prog();
    const TSlot *const base = p.slots.data();
    const TSlot *const badSlot = base + p.nReal + 1;
    const uint64_t tb = p.textBase;
    const uint64_t limit = uint64_t(p.nReal) * 4;
    const TSlot *ip = base + cur.idx;
    uint64_t retired = cur.retired;

// The architectural pc of the current slot — handlers only materialize it
// when an instruction actually needs one.
#define SCD_PC() (tb + (uint64_t(ip - base) << 2))

#define SCD_CASE(name) L_##name:
#define SCD_DISPATCH() goto *const_cast<void *>(kLabels[ip->hop])

// Retire accounting, identical to the reference interpreter's tail. The
// timed executor retires the record before the next slot dispatches, so a
// bop sees the JTE insert of the jru retired just before it, as in the
// reference step()-then-retire loop.
#define SCD_ACCOUNT()                                                        \
    do {                                                                     \
        ++retired;                                                           \
        if constexpr (kTimed)                                                \
            timing->retire(*ri);                                             \
        else                                                                 \
            ++ri;                                                            \
    } while (0)

// Retire the current instruction and chain into the slot at `slotp`.
#define SCD_NEXT(slotp)                                                      \
    do {                                                                     \
        SCD_ACCOUNT();                                                       \
        ip = (slotp);                                                        \
        if (--budget == 0)                                                   \
            goto pause_budget;                                               \
        SCD_DISPATCH();                                                      \
    } while (0)

// RetireInfo base fields; value-init first so every field is defined
// with the same defaults stepImpl's locals start from.
#define SCD_SET_RI(pcv, nextv)                                               \
    do {                                                                     \
        *ri = RetireInfo{};                                                  \
        ri->pc = (pcv);                                                      \
        ri->nextPc = (nextv);                                                \
        ri->flags = ip->flags;                                               \
        ri->rd = ip->rd;                                                     \
        ri->rs1 = ip->rs1;                                                   \
        ri->rs2 = ip->rs2;                                                   \
        ri->bank = ip->bank;                                                 \
        ri->op = ip->op;                                                     \
    } while (0)

// Retire, then transfer to a *computed* target pc: in-text targets chain
// straight to their slot, anything else parks the fault in the BadPc
// sentinel so it throws at the next fetch, like the reference slotAt().
#define SCD_GOTO_PC(targetExpr)                                              \
    do {                                                                     \
        uint64_t targ_ = (targetExpr);                                       \
        uint64_t off_ = targ_ - tb;                                          \
        if (off_ < limit && (off_ & 3) == 0) [[likely]]                      \
            SCD_NEXT(base + (off_ >> 2));                                    \
        cur.pendingBadPc = targ_;                                            \
        SCD_NEXT(badSlot);                                                   \
    } while (0)

// Same for a pre-resolved direct target (aux), bad targets pre-detected.
#define SCD_TAKE_AUX(badPcExpr)                                              \
    do {                                                                     \
        if (ip->aux != kNoTarget) [[likely]]                                 \
            SCD_NEXT(base + ip->aux);                                        \
        cur.pendingBadPc = (badPcExpr);                                      \
        SCD_NEXT(badSlot);                                                   \
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
        SCD_SET_RI(SCD_PC(), SCD_PC() + 4);                                  \
        ri->lat = (latv);                                                    \
        ri->writesInt = ip->rd != 0;                                         \
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
        SCD_SET_RI(SCD_PC(), SCD_PC() + 4);                                  \
        ri->lat = (latv);                                                    \
        ri->writesFp = true;                                                 \
        c.f_[ip->rd] = val;                                                  \
        SCD_NEXT(ip + 1);                                                    \
    }

#define SCD_H_LOAD_TAIL()                                                    \
    SCD_SET_RI(SCD_PC(), SCD_PC() + 4);                                      \
    ri->lat = LatClass::Load;                                                \
    ri->writesInt = ip->rd != 0;                                             \
    ri->hasMem = true;                                                       \
    ri->memAddr = addr;                                                      \
    if (ip->rd != 0)                                                         \
        c.x_[ip->rd] = val;                                                  \
    SCD_NEXT(ip + 1)

#define SCD_H_LOAD(name, ...)                                                \
    SCD_CASE(name) {                                                         \
        uint64_t addr = c.x_[ip->rs1] + uint64_t(ip->imm);                   \
        uint64_t val = (__VA_ARGS__);                                        \
        SCD_H_LOAD_TAIL();                                                   \
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
        SCD_H_LOAD_TAIL();                                                   \
    }

// Stores retire normally, then pause for retranslation if they dirtied
// text (FunctionalCore::noteIfTextWrite re-decoded the slots and flagged
// us) — the slot stream stays valid to the burst boundary.
#define SCD_H_STORE(name, width, ...)                                        \
    SCD_CASE(name) {                                                         \
        uint64_t addr = c.x_[ip->rs1] + uint64_t(ip->imm);                   \
        __VA_ARGS__;                                                         \
        c.noteIfTextWrite(addr, (width));                                    \
        SCD_SET_RI(SCD_PC(), SCD_PC() + 4);                                  \
        ri->hasMem = true;                                                   \
        ri->memIsStore = true;                                               \
        ri->memAddr = addr;                                                  \
        SCD_ACCOUNT();                                                       \
        ip = ip + 1;                                                         \
        if (dirtyPending_) [[unlikely]]                                      \
            goto pause_retranslate;                                          \
        if (--budget == 0)                                                   \
            goto pause_budget;                                               \
        SCD_DISPATCH();                                                      \
    }

#define SCD_H_BR(name, ...)                                                  \
    SCD_CASE(name) {                                                         \
        [[maybe_unused]] uint64_t urs1 = c.x_[ip->rs1];                      \
        [[maybe_unused]] uint64_t urs2 = c.x_[ip->rs2];                      \
        [[maybe_unused]] int64_t srs1 = int64_t(urs1);                       \
        [[maybe_unused]] int64_t srs2 = int64_t(urs2);                       \
        bool taken = (__VA_ARGS__);                                          \
        uint64_t pcv = SCD_PC();                                             \
        SCD_SET_RI(pcv, taken ? pcv + uint64_t(ip->imm) : pcv + 4);          \
        ri->ctrl = CtrlKind::Conditional;                                    \
        ri->taken = taken;                                                   \
        if (taken)                                                           \
            SCD_TAKE_AUX(pcv + uint64_t(ip->imm));                           \
        SCD_NEXT(ip + 1);                                                    \
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

    SCD_H_STORE(SB, 1, c.mem_.write8(addr, uint8_t(c.x_[ip->rs2])))
    SCD_H_STORE(SH, 2, c.mem_.write16(addr, uint16_t(c.x_[ip->rs2])))
    SCD_H_STORE(SW, 4, c.mem_.write32(addr, uint32_t(c.x_[ip->rs2])))
    SCD_H_STORE(SD, 8, c.mem_.write64(addr, c.x_[ip->rs2]))

    SCD_H_BR(BEQ, urs1 == urs2)
    SCD_H_BR(BNE, urs1 != urs2)
    SCD_H_BR(BLT, srs1 < srs2)
    SCD_H_BR(BGE, srs1 >= srs2)
    SCD_H_BR(BLTU, urs1 < urs2)
    SCD_H_BR(BGEU, urs1 >= urs2)

    SCD_CASE(JAL) {
        uint64_t pcv = SCD_PC();
        uint64_t target = pcv + uint64_t(ip->imm);
        SCD_SET_RI(pcv, target);
        ri->ctrl = CtrlKind::Jal;
        ri->cls = BranchClass::DirectJump;
        ri->writesInt = ip->rd != 0;
        if (ip->rd != 0)
            c.x_[ip->rd] = pcv + 4;
        SCD_TAKE_AUX(target);
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
        SCD_SET_RI(pcv, target);
        ri->ctrl = CtrlKind::Jalr;
        ri->cls = cls;
        ri->isReturn = isRet;
        ri->writesInt = ip->rd != 0;
        ri->hintReg = hintReg;
        ri->hintValue = hintValue;
        if (ip->rd != 0)
            c.x_[ip->rd] = pcv + 4;
        SCD_GOTO_PC(target);
    }

    SCD_CASE(FLD) {
        uint64_t addr = c.x_[ip->rs1] + uint64_t(ip->imm);
        double val = std::bit_cast<double>(c.mem_.read64(addr));
        SCD_SET_RI(SCD_PC(), SCD_PC() + 4);
        ri->lat = LatClass::Load;
        ri->writesFp = true;
        ri->hasMem = true;
        ri->memAddr = addr;
        c.f_[ip->rd] = val;
        SCD_NEXT(ip + 1);
    }

    SCD_H_STORE(FSD, 8,
                c.mem_.write64(addr, std::bit_cast<uint64_t>(c.f_[ip->rs2])))

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
        c.handleSyscall();
        SCD_SET_RI(SCD_PC(), SCD_PC() + 4);
        SCD_ACCOUNT();
        ip = ip + 1;
        if (c.exited_) [[unlikely]]
            goto pause_exited;
        if (--budget == 0)
            goto pause_budget;
        SCD_DISPATCH();
    }

    SCD_CASE(EBREAK) {
        // Guest-placed trap instruction: contain it as a guest error.
        fatal("ebreak executed at pc=", SCD_PC());
    }

    SCD_CASE(SETMASK) {
        c.banks_[ip->bank].rmask = c.x_[ip->rs1];
        SCD_SET_RI(SCD_PC(), SCD_PC() + 4);
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
        std::optional<uint64_t> target = c.bopExec(
            ip->bank, pcv, retired, ropStall, bopProbed, bopHit, jteOpcode);
        SCD_SET_RI(pcv, target ? *target : pcv + 4);
        ri->ctrl = CtrlKind::Bop;
        ri->cls = BranchClass::Bop;
        ri->ropStall = ropStall;
        ri->bopProbed = bopProbed;
        ri->bopHit = bopHit;
        ri->jteOpcode = jteOpcode;
        if (target)
            SCD_GOTO_PC(*target);
        SCD_NEXT(ip + 1);
    }

    SCD_CASE(JRU) {
        uint64_t pcv = SCD_PC();
        uint64_t target = c.x_[ip->rs1];
        uint64_t jteOpcode = 0;
        bool jteIns = c.jruConsume(ip->bank, jteOpcode);
        SCD_SET_RI(pcv, target);
        ri->ctrl = CtrlKind::Jru;
        ri->cls = BranchClass::IndirectDispatch;
        ri->jteInsert = jteIns;
        ri->jteOpcode = jteOpcode;
        SCD_GOTO_PC(target);
    }

    SCD_CASE(JTE_FLUSH) {
        for (FunctionalCore::ScdBank &bk : c.banks_)
            bk.ropValid = false;
        SCD_SET_RI(SCD_PC(), SCD_PC() + 4);
        ri->ctrl = CtrlKind::JteFlush;
        SCD_NEXT(ip + 1);
    }

    SCD_CASE(EndOfText) {
        // Sequential fall-through past the last instruction: fault at
        // the same pc the reference fetch would have.
        c.badFetch(tb + limit);
    }

    SCD_CASE(BadPc) {
        c.badFetch(cur.pendingBadPc);
    }

  pause_budget:
    cur.idx = size_t(ip - base);
    cur.retired = retired;
    return ExecStatus::Budget;

  pause_exited:
    cur.idx = size_t(ip - base);
    cur.retired = retired;
    return ExecStatus::Exited;

  pause_retranslate:
    cur.idx = size_t(ip - base);
    cur.retired = retired;
    return ExecStatus::Retranslate;

#undef SCD_H_BR
#undef SCD_H_STORE
#undef SCD_H_OPLOAD
#undef SCD_H_LOAD
#undef SCD_H_LOAD_TAIL
#undef SCD_H_FPOP
#undef SCD_H_INTOP
#undef SCD_TAKE_AUX
#undef SCD_GOTO_PC
#undef SCD_SET_RI
#undef SCD_NEXT
#undef SCD_ACCOUNT
#undef SCD_DISPATCH
#undef SCD_CASE
#undef SCD_PC
}

// ---------------------------------------------------------------------------
// Translation + cache.
// ---------------------------------------------------------------------------

std::shared_ptr<const TProgram>
ThreadedTier::translate(const FunctionalCore &core)
{
    const auto &slots = core.slots_;

    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(core.textBase_);
    mix(slots.size());
    for (const auto &s : slots) {
        mix(uint64_t(uint8_t(s.inst.op)) | uint64_t(s.inst.rd) << 8 |
            uint64_t(s.inst.rs1) << 16 | uint64_t(s.inst.rs2) << 24 |
            uint64_t(s.inst.bank) << 32);
        mix(uint64_t(uint32_t(s.inst.imm)) | uint64_t(s.flags) << 32);
    }

    auto matches = [&](const TProgram &p) {
        if (p.textBase != core.textBase_ || p.nReal != slots.size())
            return false;
        for (size_t i = 0; i < p.nReal; ++i) {
            const TSlot &ts = p.slots[i];
            const auto &s = slots[i];
            if (ts.op != uint8_t(s.inst.op) || ts.rd != s.inst.rd ||
                ts.rs1 != s.inst.rs1 || ts.rs2 != s.inst.rs2 ||
                ts.bank != s.inst.bank || ts.imm != s.inst.imm ||
                ts.flags != s.flags)
                return false;
        }
        return true;
    };

    TranslationCache &tc = cache();
    {
        std::lock_guard<std::mutex> lock(tc.mu);
        auto [lo, hi] = tc.map.equal_range(h);
        for (auto it = lo; it != hi; ++it) {
            if (matches(*it->second)) {
                ++tc.hits;
                return it->second;
            }
        }
    }

    // Translate outside the lock, like the harness's guest compile cache;
    // a racing duplicate insert is harmless in the multimap.
    auto prog = std::make_shared<TProgram>();
    prog->textBase = core.textBase_;
    prog->nReal = slots.size();
    prog->slots.reserve(slots.size() + 2);
    uint64_t limitBytes = uint64_t(slots.size()) * 4;
    for (size_t i = 0; i < slots.size(); ++i)
        prog->slots.push_back(
            lowerSlot(slots[i].inst, slots[i].flags, i, limitBytes));
    prog->slots.push_back(sentinelSlot(HOp::EndOfText));
    prog->slots.push_back(sentinelSlot(HOp::BadPc));

    std::lock_guard<std::mutex> lock(tc.mu);
    ++tc.compiles;
    tc.map.emplace(h, prog);
    return prog;
}

// ---------------------------------------------------------------------------
// The tier object and its run loop.
// ---------------------------------------------------------------------------

ThreadedTier::ThreadedTier(FunctionalCore &core)
    : core_(core), prog_(translate(core))
{
}

ThreadedTier::~ThreadedTier() = default;

const TProgram &
ThreadedTier::prog() const
{
    return owned_ ? *owned_ : *prog_;
}

void
ThreadedTier::noteTextWrite(size_t first, size_t last)
{
    if (!dirtyPending_) {
        dirtyFirst_ = first;
        dirtyLast_ = last;
        dirtyPending_ = true;
    } else {
        dirtyFirst_ = std::min(dirtyFirst_, first);
        dirtyLast_ = std::max(dirtyLast_, last);
    }
}

void
ThreadedTier::applyDirty()
{
    if (!dirtyPending_)
        return;
    if (!owned_) {
        // First text write: stop sharing the cached translation (other
        // cores running the same guest keep the pristine copy) and own a
        // clone that dirty ranges retranslate in place.
        owned_ = std::make_unique<TProgram>(*prog_);
        prog_.reset();
    }
    uint64_t limitBytes = uint64_t(owned_->nReal) * 4;
    size_t lo = std::min(dirtyFirst_, owned_->nReal);
    size_t hi = std::min(dirtyLast_, owned_->nReal);
    for (size_t i = lo; i < hi; ++i) {
        const auto &s = core_.slots_[i];
        owned_->slots[i] = lowerSlot(s.inst, s.flags, i, limitBytes);
    }
    dirtyPending_ = false;
}

ThreadedTier::Cursor
ThreadedTier::makeCursor() const
{
    const TProgram &p = prog();
    Cursor cur{};
    cur.retired = core_.retired_;
    uint64_t off = core_.pc_ - p.textBase;
    if (off < uint64_t(p.nReal) * 4 && (off & 3) == 0) {
        cur.idx = size_t(off >> 2);
    } else {
        // Invalid entry pc: route through the BadPc sentinel so the run
        // faults exactly like the reference fetch would.
        cur.idx = p.nReal + 1;
        cur.pendingBadPc = core_.pc_;
    }
    return cur;
}

void
ThreadedTier::syncCore(const Cursor &cur)
{
    const TProgram &p = prog();
    core_.retired_ = cur.retired;
    core_.pc_ = cur.idx == p.nReal + 1 ? cur.pendingBadPc
                                       : p.textBase + uint64_t(cur.idx) * 4;
}

template <bool kTimed>
size_t
ThreadedTier::run(RetireInfo *out, InOrderTiming *timing, size_t cap)
{
    Cursor cur = makeCursor();
    uint64_t start = cur.retired;
    try {
        while (cur.retired - start < cap) {
            uint64_t done = cur.retired - start;
            ExecStatus st = exec<kTimed>(cur, kTimed ? out : out + done,
                                         timing, cap - done);
            if (st == ExecStatus::Exited)
                break;
            if (st == ExecStatus::Retranslate)
                applyDirty();
        }
    } catch (...) {
        syncCore(cur);
        throw;
    }
    syncCore(cur);
    return size_t(cur.retired - start);
}

size_t
ThreadedTier::runRecorded(RetireInfo *out, size_t cap)
{
    return run<false>(out, nullptr, cap);
}

size_t
ThreadedTier::runTimed(InOrderTiming &timing, size_t cap)
{
    RetireInfo ri;
    return run<true>(&ri, &timing, cap);
}

} // namespace scd::cpu
