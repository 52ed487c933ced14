#include "functional_core.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "functional_core_inl.hh"
#include "inorder_timing.hh"
#include "syscalls.hh"
#include "threaded_tier.hh"

namespace scd::cpu
{

using isa::Instruction;
using isa::Opcode;

FunctionalCore::FunctionalCore(const CoreConfig &config,
                               mem::GuestMemory &memory, TimingModel &timing)
    : config_(config), mem_(memory), timing_(timing)
{
}

FunctionalCore::Slot
FunctionalCore::lower(uint32_t word)
{
    Instruction inst = isa::decode(word);
    Slot slot;
    slot.op = inst.op;
    slot.rd = inst.rd;
    slot.rs1 = inst.rs1;
    slot.rs2 = inst.rs2;
    slot.bank = inst.bank;
    slot.imm = inst.imm;
    // Cache the opcode's flag word next to the operands so the
    // per-instruction path never touches the opcodeInfo table.
    slot.flags = isa::opcodeInfo(inst.op).flags;
    return slot;
}

void
FunctionalCore::loadProgram(const isa::Program &prog)
{
    textBase_ = prog.base;
    textLimit_ = uint64_t(prog.words.size()) * 4;
    slots_.clear();
    slots_.reserve(prog.words.size() + 2);
    for (uint32_t word : prog.words)
        slots_.push_back(lower(word));
    // The threaded tier's sentinels: a fall-through off the last
    // instruction lands on kEndOfText, a transfer out of text on kBadPc.
    slots_.push_back(Slot{.op = kEndOfText});
    slots_.push_back(Slot{.op = kBadPc});
    mem_.loadProgram(prog);
    pc_ = prog.entry();
}

void
FunctionalCore::setDispatchMeta(const DispatchMeta &meta)
{
    SCD_ASSERT(!slots_.empty(), "setDispatchMeta before loadProgram");

    size_t textSlots = size_t(textLimit_ / 4);
    for (auto [lo, hi] : meta.dispatchRanges) {
        for (uint64_t pc = lo; pc < hi; pc += 4) {
            size_t idx = (pc - textBase_) / 4;
            if (idx < textSlots)
                slots_[idx].flags |= PcFlagInDispatchRange;
        }
    }
    for (uint64_t pc : meta.dispatchJumpPcs) {
        size_t idx = (pc - textBase_) / 4;
        if (idx < textSlots)
            slots_[idx].flags |= PcFlagDispatchJump;
    }
    for (auto [pc, reg] : meta.vbbiHints) {
        size_t idx = (pc - textBase_) / 4;
        if (idx < textSlots)
            slots_[idx].flags |= uint32_t(reg + 1) << kVbbiHintShift;
    }
}

void
FunctionalCore::badFetch(uint64_t pc) const
{
    // Reachable from a malformed guest program (e.g. a computed jump
    // past the text segment), so this is a guest error, not a
    // simulator bug: throw instead of aborting the whole plan.
    fatal("instruction fetch outside text at pc=", pc);
}

void
FunctionalCore::textWritten(uint64_t addr, unsigned width)
{
    // Clamp the written span to the text segment; noteIfTextWrite's fringe
    // admits stores that merely straddle its edges, rejected here.
    uint64_t end = addr + width;
    if (end <= textBase_ || addr - textBase_ >= textLimit_)
        return;
    uint64_t lo = addr > textBase_ ? addr - textBase_ : 0;
    uint64_t hi = std::min(end - textBase_, textLimit_);
    size_t first = size_t(lo >> 2);
    size_t last = size_t((hi + 3) >> 2); // slot index bound, exclusive
    for (size_t i = first; i < last; ++i) {
        // Keep the dispatch-metadata bits: guest builders assign them per
        // PC range, which self-modification does not move.
        uint32_t meta = slots_[i].flags & 0xFF000000u;
        slots_[i] = lower(mem_.read32(textBase_ + uint64_t(i) * 4));
        slots_[i].flags |= meta;
    }
}

inline uint64_t
FunctionalCore::loadValue(Opcode op, uint64_t addr)
{
    switch (op) {
      case Opcode::LB:
        return static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int8_t>(mem_.read8(addr))));
      case Opcode::LBU:
      case Opcode::LBU_OP:
        return mem_.read8(addr);
      case Opcode::LH:
        return static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int16_t>(mem_.read16(addr))));
      case Opcode::LHU:
      case Opcode::LHU_OP:
        return mem_.read16(addr);
      case Opcode::LW:
        return static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int32_t>(mem_.read32(addr))));
      case Opcode::LWU:
      case Opcode::LW_OP:
        return mem_.read32(addr);
      case Opcode::LD:
      case Opcode::LD_OP:
        return mem_.read64(addr);
      default:
        panic("not a load: ", isa::mnemonic(op));
    }
}

inline void
FunctionalCore::storeValue(const Slot &slot, uint64_t addr)
{
    uint64_t v = x_[slot.rs2];
    unsigned width;
    switch (slot.op) {
      case Opcode::SB:
        mem_.write8(addr, static_cast<uint8_t>(v));
        width = 1;
        break;
      case Opcode::SH:
        mem_.write16(addr, static_cast<uint16_t>(v));
        width = 2;
        break;
      case Opcode::SW:
        mem_.write32(addr, static_cast<uint32_t>(v));
        width = 4;
        break;
      case Opcode::SD:
        mem_.write64(addr, v);
        width = 8;
        break;
      default:
        panic("not a store: ", isa::mnemonic(slot.op));
    }
    noteIfTextWrite(addr, width);
}

void
FunctionalCore::handleSyscall()
{
    switch (static_cast<Syscall>(x_[17])) {
      case Syscall::Exit:
        exited_ = true;
        exitCode_ = static_cast<int>(x_[10]);
        break;
      case Syscall::PutChar:
        // Print-heavy guests emit one syscall per character; grow the
        // buffer in slabs instead of riding the allocator's small-size
        // growth curve.
        if (output_.size() == output_.capacity())
            output_.reserve(output_.size() + 4096);
        output_ += static_cast<char>(x_[10]);
        break;
      case Syscall::PrintInt: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(x_[10]));
        output_ += buf;
        break;
      }
      case Syscall::PrintDouble: {
        double d;
        uint64_t bitsv = x_[10];
        std::memcpy(&d, &bitsv, sizeof(d));
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", d);
        output_ += buf;
        break;
      }
      case Syscall::PrintStr: {
        uint64_t ptr = x_[10];
        uint64_t len = x_[11];
        output_.reserve(output_.size() + len);
        for (uint64_t n = 0; n < len; ++n)
            output_ += static_cast<char>(mem_.read8(ptr + n));
        break;
      }
      default:
        // Guest-controlled register value: a guest error, not a bug.
        fatal("unknown syscall ", x_[17]);
    }
}

bool
FunctionalCore::stepImpl(RetireInfo *ri, HotState &hs)
{
    const uint64_t pc = hs.pc;
    // A copy, not a reference: a store may re-lower its own slot, and the
    // record describes the instruction as fetched.
    const Slot inst = slotAt(pc);
    const uint32_t flags = inst.flags;

    uint64_t nextPc = pc + 4;
    LatClass lat = LatClass::Alu;
    bool writesInt = (flags & isa::FlagWritesRd) && inst.rd != 0;
    bool writesFp = flags & isa::FlagFpWritesRd;
    uint64_t intResult = 0;
    double fpResult = 0.0;

    CtrlKind ctrl = CtrlKind::None;
    BranchClass cls = BranchClass::Conditional;
    bool taken = false;
    bool isReturn = false;
    bool hasMem = false;
    bool memIsStore = false;
    uint64_t memAddr = 0;
    int16_t hintReg = -1;
    uint64_t hintValue = 0;
    uint32_t ropStall = 0;
    bool jteIns = false;
    bool bopProbed = false;
    bool bopHit = false;
    uint64_t jteOpcode = 0;

    auto srs1 = static_cast<int64_t>(x_[inst.rs1]);
    auto srs2 = static_cast<int64_t>(x_[inst.rs2]);
    uint64_t urs1 = x_[inst.rs1];
    uint64_t urs2 = x_[inst.rs2];
    int64_t imm = inst.imm;

    switch (inst.op) {
      case Opcode::ADD: intResult = urs1 + urs2; break;
      case Opcode::SUB: intResult = urs1 - urs2; break;
      case Opcode::AND: intResult = urs1 & urs2; break;
      case Opcode::OR: intResult = urs1 | urs2; break;
      case Opcode::XOR: intResult = urs1 ^ urs2; break;
      case Opcode::SLL: intResult = urs1 << (urs2 & 63); break;
      case Opcode::SRL: intResult = urs1 >> (urs2 & 63); break;
      case Opcode::SRA:
        intResult = static_cast<uint64_t>(srs1 >> (urs2 & 63));
        break;
      case Opcode::SLT: intResult = srs1 < srs2; break;
      case Opcode::SLTU: intResult = urs1 < urs2; break;
      case Opcode::MUL:
        intResult = urs1 * urs2;
        lat = LatClass::Mul;
        break;
      case Opcode::MULH:
        intResult = static_cast<uint64_t>(
            (static_cast<__int128>(srs1) * static_cast<__int128>(srs2)) >>
            64);
        lat = LatClass::Mul;
        break;
      case Opcode::DIV:
        if (urs2 == 0)
            intResult = ~uint64_t(0);
        else if (srs1 == INT64_MIN && srs2 == -1)
            intResult = static_cast<uint64_t>(INT64_MIN);
        else
            intResult = static_cast<uint64_t>(srs1 / srs2);
        lat = LatClass::Div;
        break;
      case Opcode::DIVU:
        intResult = urs2 == 0 ? ~uint64_t(0) : urs1 / urs2;
        lat = LatClass::Div;
        break;
      case Opcode::REM:
        if (urs2 == 0)
            intResult = urs1;
        else if (srs1 == INT64_MIN && srs2 == -1)
            intResult = 0;
        else
            intResult = static_cast<uint64_t>(srs1 % srs2);
        lat = LatClass::Div;
        break;
      case Opcode::REMU:
        intResult = urs2 == 0 ? urs1 : urs1 % urs2;
        lat = LatClass::Div;
        break;

      case Opcode::ADDI: intResult = urs1 + imm; break;
      case Opcode::ANDI: intResult = urs1 & static_cast<uint64_t>(imm); break;
      case Opcode::ORI: intResult = urs1 | static_cast<uint64_t>(imm); break;
      case Opcode::XORI: intResult = urs1 ^ static_cast<uint64_t>(imm); break;
      case Opcode::SLLI: intResult = urs1 << (imm & 63); break;
      case Opcode::SRLI: intResult = urs1 >> (imm & 63); break;
      case Opcode::SRAI:
        intResult = static_cast<uint64_t>(srs1 >> (imm & 63));
        break;
      case Opcode::SLTI: intResult = srs1 < imm; break;
      case Opcode::SLTIU:
        intResult = urs1 < static_cast<uint64_t>(imm);
        break;
      case Opcode::LUI:
        intResult = static_cast<uint64_t>(imm) << 13;
        break;

      case Opcode::LB:
      case Opcode::LBU:
      case Opcode::LH:
      case Opcode::LHU:
      case Opcode::LW:
      case Opcode::LWU:
      case Opcode::LD: {
        uint64_t addr = urs1 + imm;
        intResult = loadValue(inst.op, addr);
        lat = LatClass::Load;
        hasMem = true;
        memAddr = addr;
        break;
      }
      case Opcode::LBU_OP:
      case Opcode::LHU_OP:
      case Opcode::LW_OP:
      case Opcode::LD_OP: {
        uint64_t addr = urs1 + imm;
        intResult = loadValue(inst.op, addr);
        lat = LatClass::Load;
        hasMem = true;
        memAddr = addr;
        ScdBank &bank = banks_[inst.bank];
        bank.ropData = intResult & bank.rmask;
        bank.ropValid = true;
        bank.ropWriteIndex = hs.retired;
        break;
      }
      case Opcode::SB:
      case Opcode::SH:
      case Opcode::SW:
      case Opcode::SD: {
        uint64_t addr = urs1 + imm;
        storeValue(inst, addr);
        hasMem = true;
        memIsStore = true;
        memAddr = addr;
        break;
      }
      case Opcode::FLD: {
        uint64_t addr = urs1 + imm;
        uint64_t raw = mem_.read64(addr);
        std::memcpy(&fpResult, &raw, sizeof(fpResult));
        lat = LatClass::Load;
        hasMem = true;
        memAddr = addr;
        break;
      }
      case Opcode::FSD: {
        uint64_t addr = urs1 + imm;
        uint64_t raw;
        std::memcpy(&raw, &f_[inst.rs2], sizeof(raw));
        mem_.write64(addr, raw);
        noteIfTextWrite(addr, 8);
        hasMem = true;
        memIsStore = true;
        memAddr = addr;
        break;
      }

      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::BLTU:
      case Opcode::BGEU: {
        switch (inst.op) {
          case Opcode::BEQ: taken = urs1 == urs2; break;
          case Opcode::BNE: taken = urs1 != urs2; break;
          case Opcode::BLT: taken = srs1 < srs2; break;
          case Opcode::BGE: taken = srs1 >= srs2; break;
          case Opcode::BLTU: taken = urs1 < urs2; break;
          case Opcode::BGEU: taken = urs1 >= urs2; break;
          default: break;
        }
        if (taken)
            nextPc = pc + imm;
        ctrl = CtrlKind::Conditional;
        cls = BranchClass::Conditional;
        break;
      }

      case Opcode::JAL:
        intResult = pc + 4;
        writesInt = inst.rd != 0;
        nextPc = pc + imm;
        ctrl = CtrlKind::Jal;
        cls = BranchClass::DirectJump;
        break;

      case Opcode::JALR: {
        intResult = pc + 4;
        writesInt = inst.rd != 0;
        isReturn = inst.rd == 0 && inst.rs1 == isa::reg::ra;
        if (isReturn) {
            cls = BranchClass::Return;
        } else {
            cls = (flags & PcFlagDispatchJump)
                      ? BranchClass::IndirectDispatch
                      : BranchClass::IndirectOther;
            hintReg = vbbiHintOf(flags);
            if (hintReg >= 0)
                hintValue = x_[hintReg];
        }
        nextPc = urs1 + imm;
        ctrl = CtrlKind::Jalr;
        break;
      }

      case Opcode::FADD: fpResult = f_[inst.rs1] + f_[inst.rs2];
        lat = LatClass::Fp; break;
      case Opcode::FSUB: fpResult = f_[inst.rs1] - f_[inst.rs2];
        lat = LatClass::Fp; break;
      case Opcode::FMUL: fpResult = f_[inst.rs1] * f_[inst.rs2];
        lat = LatClass::Fp; break;
      case Opcode::FDIV: fpResult = f_[inst.rs1] / f_[inst.rs2];
        lat = LatClass::FpDiv; break;
      case Opcode::FSQRT: fpResult = std::sqrt(f_[inst.rs1]);
        lat = LatClass::FpDiv; break;
      case Opcode::FMIN: fpResult = std::fmin(f_[inst.rs1], f_[inst.rs2]);
        lat = LatClass::Fp; break;
      case Opcode::FMAX: fpResult = std::fmax(f_[inst.rs1], f_[inst.rs2]);
        lat = LatClass::Fp; break;
      case Opcode::FNEG: fpResult = -f_[inst.rs1];
        lat = LatClass::Fp; break;
      case Opcode::FABS: fpResult = std::fabs(f_[inst.rs1]);
        lat = LatClass::Fp; break;
      case Opcode::FEQ: intResult = f_[inst.rs1] == f_[inst.rs2];
        lat = LatClass::Fp; break;
      case Opcode::FLT: intResult = f_[inst.rs1] < f_[inst.rs2];
        lat = LatClass::Fp; break;
      case Opcode::FLE: intResult = f_[inst.rs1] <= f_[inst.rs2];
        lat = LatClass::Fp; break;
      case Opcode::FCVT_D_L: fpResult = static_cast<double>(srs1);
        lat = LatClass::Fp; break;
      case Opcode::FCVT_L_D:
        intResult = static_cast<uint64_t>(
            static_cast<int64_t>(f_[inst.rs1]));
        lat = LatClass::Fp;
        break;
      case Opcode::FMV_X_D:
        std::memcpy(&intResult, &f_[inst.rs1], sizeof(intResult));
        break;
      case Opcode::FMV_D_X:
        std::memcpy(&fpResult, &urs1, sizeof(fpResult));
        break;

      case Opcode::ECALL:
        handleSyscall();
        break;
      case Opcode::EBREAK:
        // Guest-placed trap instruction: contain it as a guest error.
        fatal("ebreak executed at pc=", pc);
        break;

      case Opcode::SETMASK:
        banks_[inst.bank].rmask = urs1;
        break;

      case Opcode::BOP: {
        if (auto target = bopExec(timing_, inst.bank, pc, hs.retired,
                                  ropStall, bopProbed, bopHit, jteOpcode))
            nextPc = *target;
        // A bop never causes a pipeline redirect: the JTE hit is known at
        // fetch, and a miss falls through sequentially.
        ctrl = CtrlKind::Bop;
        cls = BranchClass::Bop;
        break;
      }

      case Opcode::JRU: {
        jteIns = jruConsume(inst.bank, jteOpcode);
        nextPc = urs1;
        ctrl = CtrlKind::Jru;
        cls = BranchClass::IndirectDispatch;
        break;
      }

      case Opcode::JTE_FLUSH:
        for (ScdBank &bank : banks_)
            bank.ropValid = false;
        ctrl = CtrlKind::JteFlush;
        break;

      default:
        // Decoded from guest text, so malformed bytecode lands here:
        // a guest error, not a simulator bug.
        fatal("unimplemented opcode ", isa::mnemonic(inst.op), " at pc=",
              pc);
    }

    // ---- retire ----------------------------------------------------------
    if (writesInt)
        x_[inst.rd] = intResult;
    if (writesFp)
        f_[inst.rd] = fpResult;
    ++hs.retired;
    hs.pc = nextPc;

    ri->pc = pc;
    ri->nextPc = nextPc;
    ri->flags = flags;
    ri->rd = inst.rd;
    ri->rs1 = inst.rs1;
    ri->rs2 = inst.rs2;
    ri->bank = inst.bank;
    ri->op = static_cast<uint8_t>(inst.op);
    ri->ctrl = ctrl;
    ri->lat = lat;
    ri->cls = cls;
    ri->taken = taken;
    ri->isReturn = isReturn;
    ri->writesInt = writesInt;
    ri->writesFp = writesFp;
    ri->hasMem = hasMem;
    ri->memIsStore = memIsStore;
    ri->memAddr = memAddr;
    ri->hintReg = hintReg;
    ri->hintValue = hintValue;
    ri->ropStall = ropStall;
    ri->bopProbed = bopProbed;
    ri->bopHit = bopHit;
    ri->jteInsert = jteIns;
    ri->jteOpcode = jteOpcode;
    return !exited_;
}

size_t
FunctionalCore::runRecorded(RetireInfo *out, size_t cap)
{
    if (tier_ != DispatchTier::Switch)
        return ThreadedTier::runRecorded(*this, out, cap);
    HotState hs{pc_, retired_};
    size_t n = 0;
    bool live = true;
    try {
        while (live && n < cap)
            live = stepImpl(&out[n++], hs);
    } catch (...) {
        // A fault leaves hs at the faulting instruction, as step() does.
        pc_ = hs.pc;
        retired_ = hs.retired;
        throw;
    }
    pc_ = hs.pc;
    retired_ = hs.retired;
    return n;
}

size_t
FunctionalCore::runTimed(InOrderTiming &timing, size_t cap)
{
    SCD_ASSERT(static_cast<TimingModel *>(&timing) == &timing_,
               "runTimed must retire into the core's own JTE port");
    // Only retire() carries the trace hooks, so a traced run steps the
    // reference loop; both tiers retire the same stream.
    if (tier_ != DispatchTier::Switch && !timing.tracing())
        return ThreadedTier::runTimed(*this, timing, cap);
    RetireInfo ri;
    size_t n = 0;
    for (; n < cap && !exited_; ++n) {
        step(&ri);
        timing.retire(ri);
    }
    return n;
}

void
FunctionalCore::exportStats(StatGroup &group) const
{
    group.counter("scd.bopFallThroughForced") = bopFallThroughForced_;
}

} // namespace scd::cpu
