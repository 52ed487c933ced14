/**
 * @file
 * Builder-style macro assembler for SRV64.
 *
 * The guest interpreters (src/guest) are emitted through this class: client
 * code calls mnemonic-shaped member functions, binds labels, and finally
 * calls finish(), which lays the program out, relaxes out-of-range
 * conditional branches into an inverted-branch + jal pair, and patches all
 * label references.
 */

#ifndef SCD_ISA_ASSEMBLER_HH
#define SCD_ISA_ASSEMBLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "instruction.hh"
#include "program.hh"

namespace scd::isa
{

/** Opaque label handle returned by Assembler::newLabel(). */
struct Label
{
    uint32_t id = UINT32_MAX;
    bool valid() const { return id != UINT32_MAX; }
};

/** Two-pass assembler with label fixups and branch relaxation. */
class Assembler
{
  public:
    explicit Assembler(uint64_t base = 0x1000);

    /** Create a fresh (unbound) label; @p name is recorded if non-empty. */
    Label newLabel(const std::string &name = "");

    /** Bind @p label to the current position. */
    void bind(Label label);

    /** Create a label bound right here. */
    Label
    bindHere(const std::string &name = "")
    {
        Label l = newLabel(name);
        bind(l);
        return l;
    }

    // --- raw emission -----------------------------------------------------
    void emit(const Instruction &inst);

    // --- ALU --------------------------------------------------------------
    void add(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void sub(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void and_(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void or_(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void xor_(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void sll(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void srl(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void sra(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void slt(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void sltu(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void mul(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void mulh(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void div(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void divu(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void rem(uint8_t rd, uint8_t rs1, uint8_t rs2);
    void remu(uint8_t rd, uint8_t rs1, uint8_t rs2);

    void addi(uint8_t rd, uint8_t rs1, int32_t imm);
    void andi(uint8_t rd, uint8_t rs1, int32_t imm);
    void ori(uint8_t rd, uint8_t rs1, int32_t imm);
    void xori(uint8_t rd, uint8_t rs1, int32_t imm);
    void slli(uint8_t rd, uint8_t rs1, int32_t imm);
    void srli(uint8_t rd, uint8_t rs1, int32_t imm);
    void srai(uint8_t rd, uint8_t rs1, int32_t imm);
    void slti(uint8_t rd, uint8_t rs1, int32_t imm);
    void sltiu(uint8_t rd, uint8_t rs1, int32_t imm);
    void lui(uint8_t rd, int32_t imm19);

    // --- memory -----------------------------------------------------------
    void lb(uint8_t rd, int32_t off, uint8_t rs1);
    void lbu(uint8_t rd, int32_t off, uint8_t rs1);
    void lh(uint8_t rd, int32_t off, uint8_t rs1);
    void lhu(uint8_t rd, int32_t off, uint8_t rs1);
    void lw(uint8_t rd, int32_t off, uint8_t rs1);
    void lwu(uint8_t rd, int32_t off, uint8_t rs1);
    void ld(uint8_t rd, int32_t off, uint8_t rs1);
    void sb(uint8_t rs2, int32_t off, uint8_t rs1);
    void sh(uint8_t rs2, int32_t off, uint8_t rs1);
    void sw(uint8_t rs2, int32_t off, uint8_t rs1);
    void sd(uint8_t rs2, int32_t off, uint8_t rs1);

    // --- control ----------------------------------------------------------
    void beq(uint8_t rs1, uint8_t rs2, Label target);
    void bne(uint8_t rs1, uint8_t rs2, Label target);
    void blt(uint8_t rs1, uint8_t rs2, Label target);
    void bge(uint8_t rs1, uint8_t rs2, Label target);
    void bltu(uint8_t rs1, uint8_t rs2, Label target);
    void bgeu(uint8_t rs1, uint8_t rs2, Label target);
    void jal(uint8_t rd, Label target);
    void jalr(uint8_t rd, uint8_t rs1, int32_t off = 0);

    // --- floating point ---------------------------------------------------
    void fld(uint8_t frd, int32_t off, uint8_t rs1);
    void fsd(uint8_t frs2, int32_t off, uint8_t rs1);
    void fadd(uint8_t frd, uint8_t frs1, uint8_t frs2);
    void fsub(uint8_t frd, uint8_t frs1, uint8_t frs2);
    void fmul(uint8_t frd, uint8_t frs1, uint8_t frs2);
    void fdiv(uint8_t frd, uint8_t frs1, uint8_t frs2);
    void fsqrt(uint8_t frd, uint8_t frs1);
    void fmin(uint8_t frd, uint8_t frs1, uint8_t frs2);
    void fmax(uint8_t frd, uint8_t frs1, uint8_t frs2);
    void fneg(uint8_t frd, uint8_t frs1);
    void fabs_(uint8_t frd, uint8_t frs1);
    void feq(uint8_t rd, uint8_t frs1, uint8_t frs2);
    void flt(uint8_t rd, uint8_t frs1, uint8_t frs2);
    void fle(uint8_t rd, uint8_t frs1, uint8_t frs2);
    void fcvtDL(uint8_t frd, uint8_t rs1);  ///< int64 -> double
    void fcvtLD(uint8_t rd, uint8_t frs1);  ///< double -> int64 (truncate)
    void fmvXD(uint8_t rd, uint8_t frs1);
    void fmvDX(uint8_t frd, uint8_t rs1);

    // --- system and SCD extension ------------------------------------------
    void ecall();
    void ebreak();
    void setmask(uint8_t rs1, uint8_t bank = 0);
    void lbuOp(uint8_t rd, int32_t off, uint8_t rs1, uint8_t bank = 0);
    void lhuOp(uint8_t rd, int32_t off, uint8_t rs1, uint8_t bank = 0);
    void lwOp(uint8_t rd, int32_t off, uint8_t rs1, uint8_t bank = 0);
    void ldOp(uint8_t rd, int32_t off, uint8_t rs1, uint8_t bank = 0);
    void bop(uint8_t bank = 0);
    void jru(uint8_t rs1, uint8_t bank = 0);
    void jteFlush();

    // --- pseudo instructions ------------------------------------------------
    void nop();
    void mv(uint8_t rd, uint8_t rs);
    void not_(uint8_t rd, uint8_t rs);
    void neg(uint8_t rd, uint8_t rs);
    void seqz(uint8_t rd, uint8_t rs);
    void snez(uint8_t rd, uint8_t rs);
    void li(uint8_t rd, int64_t value);
    void la(uint8_t rd, Label target);     ///< load label address (lui+ori)
    void j(Label target);                  ///< jal zero
    void call(Label target);               ///< jal ra
    void ret();                            ///< jalr zero, 0(ra)
    void jr(uint8_t rs);                   ///< jalr zero, 0(rs)
    void beqz(uint8_t rs, Label target);
    void bnez(uint8_t rs, Label target);
    void bltz(uint8_t rs, Label target);
    void bgez(uint8_t rs, Label target);
    void bgt(uint8_t rs1, uint8_t rs2, Label target);
    void ble(uint8_t rs1, uint8_t rs2, Label target);
    void bgtu(uint8_t rs1, uint8_t rs2, Label target);
    void bleu(uint8_t rs1, uint8_t rs2, Label target);

    /**
     * Lay out, relax, patch, and encode. May only be called once.
     * After finish() label addresses are available via address().
     */
    Program finish();

    /** Final address of @p label (valid after finish()). */
    uint64_t address(Label label) const;

  private:
    /** One emitted slot; label-targeting slots are patched at finish(). */
    struct Item
    {
        Instruction inst;
        uint32_t target = UINT32_MAX; ///< label id or UINT32_MAX
        bool isLa = false;            ///< lui half of an la pair
        bool isLaLo = false;          ///< ori half of an la pair
        bool expanded = false;        ///< branch relaxed to bcc+jal
    };

    struct LabelInfo
    {
        std::string name;
        uint32_t item = UINT32_MAX;   ///< index of first item at the label
        uint64_t address = 0;         ///< final address (after finish)
        bool bound = false;
    };

    void emitBranchTo(Opcode op, uint8_t rs1, uint8_t rs2, Label target);
    static Opcode invertBranch(Opcode op);

    uint64_t base_;
    std::vector<Item> items_;
    std::vector<LabelInfo> labels_;
    bool finished_ = false;
};

} // namespace scd::isa

#endif // SCD_ISA_ASSEMBLER_HH
