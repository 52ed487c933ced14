/**
 * @file
 * Decoded SRV64 instruction representation plus register naming helpers.
 */

#ifndef SCD_ISA_INSTRUCTION_HH
#define SCD_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "opcode.hh"

namespace scd::isa
{

/** Integer register indices with RISC-V-style ABI aliases. */
namespace reg
{
constexpr uint8_t zero = 0, ra = 1, sp = 2, gp = 3, tp = 4;
constexpr uint8_t t0 = 5, t1 = 6, t2 = 7;
constexpr uint8_t s0 = 8, fp = 8, s1 = 9;
constexpr uint8_t a0 = 10, a1 = 11, a2 = 12, a3 = 13, a4 = 14, a5 = 15,
                  a6 = 16, a7 = 17;
constexpr uint8_t s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22, s7 = 23,
                  s8 = 24, s9 = 25, s10 = 26, s11 = 27;
constexpr uint8_t t3 = 28, t4 = 29, t5 = 30, t6 = 31;
} // namespace reg

/** ABI name of integer register @p r (e.g. "a0"). */
const char *regName(uint8_t r);

/** FP register name of @p r (e.g. "f3"). */
std::string fregName(uint8_t r);

/**
 * One decoded instruction, as the assembler builds it and decode() reads
 * it back. The simulator lowers each text word into a FunctionalCore
 * slot (the same fields plus the cached flag word) once, at load time.
 */
struct Instruction
{
    Opcode op = Opcode::EBREAK;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t bank = 0;   ///< SCD jump-table bank (multi-table extension)
    int32_t imm = 0;    ///< sign-extended immediate (branch/jal: in bytes)

    bool isBranch() const { return hasFlag(op, FlagBranch); }
};

/**
 * Encode a decoded instruction into its 32-bit memory image.
 * Field ranges are validated; out-of-range immediates panic.
 */
uint32_t encode(const Instruction &inst);

/** Decode a 32-bit word. Unknown opcode bytes decode to EBREAK. */
Instruction decode(uint32_t word);

/** Render one instruction as text (mnemonic + operands). */
std::string toString(const Instruction &inst);

} // namespace scd::isa

#endif // SCD_ISA_INSTRUCTION_HH
