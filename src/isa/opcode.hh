/**
 * @file
 * SRV64 opcode definitions.
 *
 * SRV64 is the small RISC-V-flavoured 64-bit ISA executed by the simulated
 * embedded core. It exists so the guest interpreters evaluated in the paper
 * can be expressed as real machine code: fixed 32-bit instructions, 32
 * integer registers (x0 hardwired to zero), 32 double-precision FP
 * registers, and the Short-Circuit Dispatch (SCD) extension from the paper:
 * setmask / .op-suffixed loads / bop / jru / jte.flush (Table I).
 */

#ifndef SCD_ISA_OPCODE_HH
#define SCD_ISA_OPCODE_HH

#include <cstdint>

namespace scd::isa
{

/**
 * Instruction encoding formats. All instructions are 32-bit words with the
 * opcode in bits [31:24]; remaining fields depend on the format.
 */
enum class Format : uint8_t
{
    R,      ///< rd[23:19] rs1[18:14] rs2[13:9]
    I,      ///< rd[23:19] rs1[18:14] imm14[13:0] (ALU-imm, loads, jalr)
    S,      ///< rs1[23:19] rs2[18:14] imm14[13:0] (stores; rs2 is data)
    B,      ///< rs1[23:19] rs2[18:14] imm14[13:0] (PC-relative, x4)
    U,      ///< rd[23:19] imm19[18:0] (lui: rd = signext(imm19) << 13)
    J,      ///< rd[23:19] imm19[18:0] (jal: PC-relative, x4)
    OPLOAD, ///< rd[23:19] rs1[18:14] bank[13:12] imm12[11:0] (.op loads)
    SCDR,   ///< rs1[18:14] bank[13:12] (setmask, jru)
    SCDB,   ///< bank[13:12] (bop)
    SYS,    ///< no operands (ecall, ebreak, jte.flush)
};

/** Per-opcode behavioural flags used by the decoder and the pipeline. */
enum OpFlags : uint32_t
{
    FlagNone = 0,
    FlagWritesRd = 1u << 0,  ///< writes integer register rd
    FlagReadsRs1 = 1u << 1,
    FlagReadsRs2 = 1u << 2,
    FlagLoad = 1u << 3,
    FlagStore = 1u << 4,
    FlagBranch = 1u << 5,    ///< conditional branch
    FlagJump = 1u << 6,      ///< unconditional control transfer
    FlagIndirect = 1u << 7,  ///< target comes from a register
    FlagFp = 1u << 8,        ///< floating-point execution unit
    FlagFpWritesRd = 1u << 9,  ///< writes FP register rd
    FlagFpReadsRs1 = 1u << 10,
    FlagFpReadsRs2 = 1u << 11,
    FlagScd = 1u << 12,      ///< part of the SCD extension
    FlagOpSuffix = 1u << 13, ///< load with the .op suffix (updates Rop)
    FlagMulDiv = 1u << 14,   ///< long-latency integer unit
    FlagSystem = 1u << 15,
};

/**
 * X-macro listing every SRV64 opcode: SCD_OPCODE(name, mnemonic, format,
 * flags). Keep entries grouped; the enum order defines encoding values.
 */
#define SCD_OPCODE_LIST(X)                                                   \
    /* ALU register-register */                                             \
    X(ADD, "add", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(SUB, "sub", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(AND, "and", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(OR, "or", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)               \
    X(XOR, "xor", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(SLL, "sll", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(SRL, "srl", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(SRA, "sra", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(SLT, "slt", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)             \
    X(SLTU, "sltu", R, FlagWritesRd | FlagReadsRs1 | FlagReadsRs2)           \
    X(MUL, "mul", R,                                                         \
      FlagWritesRd | FlagReadsRs1 | FlagReadsRs2 | FlagMulDiv)               \
    X(MULH, "mulh", R,                                                       \
      FlagWritesRd | FlagReadsRs1 | FlagReadsRs2 | FlagMulDiv)               \
    X(DIV, "div", R,                                                         \
      FlagWritesRd | FlagReadsRs1 | FlagReadsRs2 | FlagMulDiv)               \
    X(DIVU, "divu", R,                                                       \
      FlagWritesRd | FlagReadsRs1 | FlagReadsRs2 | FlagMulDiv)               \
    X(REM, "rem", R,                                                         \
      FlagWritesRd | FlagReadsRs1 | FlagReadsRs2 | FlagMulDiv)               \
    X(REMU, "remu", R,                                                       \
      FlagWritesRd | FlagReadsRs1 | FlagReadsRs2 | FlagMulDiv)               \
    /* ALU register-immediate */                                             \
    X(ADDI, "addi", I, FlagWritesRd | FlagReadsRs1)                          \
    X(ANDI, "andi", I, FlagWritesRd | FlagReadsRs1)                          \
    X(ORI, "ori", I, FlagWritesRd | FlagReadsRs1)                            \
    X(XORI, "xori", I, FlagWritesRd | FlagReadsRs1)                          \
    X(SLLI, "slli", I, FlagWritesRd | FlagReadsRs1)                          \
    X(SRLI, "srli", I, FlagWritesRd | FlagReadsRs1)                          \
    X(SRAI, "srai", I, FlagWritesRd | FlagReadsRs1)                          \
    X(SLTI, "slti", I, FlagWritesRd | FlagReadsRs1)                          \
    X(SLTIU, "sltiu", I, FlagWritesRd | FlagReadsRs1)                        \
    X(LUI, "lui", U, FlagWritesRd)                                           \
    /* Loads and stores */                                                   \
    X(LB, "lb", I, FlagWritesRd | FlagReadsRs1 | FlagLoad)                   \
    X(LBU, "lbu", I, FlagWritesRd | FlagReadsRs1 | FlagLoad)                 \
    X(LH, "lh", I, FlagWritesRd | FlagReadsRs1 | FlagLoad)                   \
    X(LHU, "lhu", I, FlagWritesRd | FlagReadsRs1 | FlagLoad)                 \
    X(LW, "lw", I, FlagWritesRd | FlagReadsRs1 | FlagLoad)                   \
    X(LWU, "lwu", I, FlagWritesRd | FlagReadsRs1 | FlagLoad)                 \
    X(LD, "ld", I, FlagWritesRd | FlagReadsRs1 | FlagLoad)                   \
    X(SB, "sb", S, FlagReadsRs1 | FlagReadsRs2 | FlagStore)                  \
    X(SH, "sh", S, FlagReadsRs1 | FlagReadsRs2 | FlagStore)                  \
    X(SW, "sw", S, FlagReadsRs1 | FlagReadsRs2 | FlagStore)                  \
    X(SD, "sd", S, FlagReadsRs1 | FlagReadsRs2 | FlagStore)                  \
    /* Control transfer */                                                   \
    X(BEQ, "beq", B, FlagReadsRs1 | FlagReadsRs2 | FlagBranch)               \
    X(BNE, "bne", B, FlagReadsRs1 | FlagReadsRs2 | FlagBranch)               \
    X(BLT, "blt", B, FlagReadsRs1 | FlagReadsRs2 | FlagBranch)               \
    X(BGE, "bge", B, FlagReadsRs1 | FlagReadsRs2 | FlagBranch)               \
    X(BLTU, "bltu", B, FlagReadsRs1 | FlagReadsRs2 | FlagBranch)             \
    X(BGEU, "bgeu", B, FlagReadsRs1 | FlagReadsRs2 | FlagBranch)             \
    X(JAL, "jal", J, FlagWritesRd | FlagJump)                                \
    X(JALR, "jalr", I, FlagWritesRd | FlagReadsRs1 | FlagJump | FlagIndirect)\
    /* Floating point (double precision) */                                  \
    X(FLD, "fld", I, FlagFpWritesRd | FlagReadsRs1 | FlagLoad | FlagFp)      \
    X(FSD, "fsd", S, FlagReadsRs1 | FlagFpReadsRs2 | FlagStore | FlagFp)     \
    X(FADD, "fadd.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2    \
      | FlagFp)                                                              \
    X(FSUB, "fsub.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2    \
      | FlagFp)                                                              \
    X(FMUL, "fmul.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2    \
      | FlagFp)                                                              \
    X(FDIV, "fdiv.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2    \
      | FlagFp | FlagMulDiv)                                                 \
    X(FSQRT, "fsqrt.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFp          \
      | FlagMulDiv)                                                          \
    X(FMIN, "fmin.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2    \
      | FlagFp)                                                              \
    X(FMAX, "fmax.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2    \
      | FlagFp)                                                              \
    X(FNEG, "fneg.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFp)           \
    X(FABS, "fabs.d", R, FlagFpWritesRd | FlagFpReadsRs1 | FlagFp)           \
    X(FEQ, "feq.d", R, FlagWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2        \
      | FlagFp)                                                              \
    X(FLT, "flt.d", R, FlagWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2        \
      | FlagFp)                                                              \
    X(FLE, "fle.d", R, FlagWritesRd | FlagFpReadsRs1 | FlagFpReadsRs2        \
      | FlagFp)                                                              \
    X(FCVT_D_L, "fcvt.d.l", R, FlagFpWritesRd | FlagReadsRs1 | FlagFp)       \
    X(FCVT_L_D, "fcvt.l.d", R, FlagWritesRd | FlagFpReadsRs1 | FlagFp)       \
    X(FMV_X_D, "fmv.x.d", R, FlagWritesRd | FlagFpReadsRs1 | FlagFp)         \
    X(FMV_D_X, "fmv.d.x", R, FlagFpWritesRd | FlagReadsRs1 | FlagFp)         \
    /* System */                                                             \
    X(ECALL, "ecall", SYS, FlagSystem)                                       \
    X(EBREAK, "ebreak", SYS, FlagSystem)                                     \
    /* Short-Circuit Dispatch extension (paper Table I) */                   \
    X(SETMASK, "setmask", SCDR, FlagReadsRs1 | FlagScd)                      \
    X(LBU_OP, "lbu.op", OPLOAD,                                              \
      FlagWritesRd | FlagReadsRs1 | FlagLoad | FlagScd | FlagOpSuffix)       \
    X(LHU_OP, "lhu.op", OPLOAD,                                              \
      FlagWritesRd | FlagReadsRs1 | FlagLoad | FlagScd | FlagOpSuffix)       \
    X(LW_OP, "lw.op", OPLOAD,                                                \
      FlagWritesRd | FlagReadsRs1 | FlagLoad | FlagScd | FlagOpSuffix)       \
    X(LD_OP, "ld.op", OPLOAD,                                                \
      FlagWritesRd | FlagReadsRs1 | FlagLoad | FlagScd | FlagOpSuffix)       \
    X(BOP, "bop", SCDB, FlagBranch | FlagScd)                                \
    X(JRU, "jru", SCDR,                                                      \
      FlagReadsRs1 | FlagJump | FlagIndirect | FlagScd)                      \
    X(JTE_FLUSH, "jte.flush", SYS, FlagSystem | FlagScd)

/** The SRV64 opcode space. */
enum class Opcode : uint8_t
{
#define SCD_ENUM_ENTRY(name, mnem, fmt, flags) name,
    SCD_OPCODE_LIST(SCD_ENUM_ENTRY)
#undef SCD_ENUM_ENTRY
    NumOpcodes
};

constexpr unsigned kNumOpcodes = static_cast<unsigned>(Opcode::NumOpcodes);

/** Static description of one opcode. */
struct OpcodeInfo
{
    const char *mnemonic;
    Format format;
    uint32_t flags;
};

/**
 * Every opcode's description, indexed by Opcode: the one table that
 * compile-time and run-time callers share.
 */
inline constexpr OpcodeInfo kOpcodeTable[] = {
#define SCD_INFO_ENTRY(name, mnem, fmt, flags) {mnem, Format::fmt, (flags)},
    SCD_OPCODE_LIST(SCD_INFO_ENTRY)
#undef SCD_INFO_ENTRY
};

/** Metadata for @p op (bounds-checked). */
const OpcodeInfo &opcodeInfo(Opcode op);

/** kOpcodeTable's flags for @p op, usable in a constant expression. */
constexpr uint32_t
opFlags(Opcode op)
{
    return kOpcodeTable[static_cast<unsigned>(op)].flags;
}

/** Mnemonic string for @p op. */
inline const char *
mnemonic(Opcode op)
{
    return opcodeInfo(op).mnemonic;
}

/** Test a flag on @p op. */
inline bool
hasFlag(Opcode op, OpFlags flag)
{
    return (opcodeInfo(op).flags & flag) != 0;
}

} // namespace scd::isa

#endif // SCD_ISA_OPCODE_HH
