/**
 * @file
 * Unit tests for the SRV64 ISA layer: encode/decode round trips, assembler
 * label handling and branch relaxation, pseudo-instruction expansion, and
 * the text assembler front-end.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "isa/disassembler.hh"
#include "isa/instruction.hh"
#include "isa/text_assembler.hh"

namespace
{

using namespace scd;
using namespace scd::isa;

TEST(Encoding, RoundTripAllFormatsSamples)
{
    std::vector<Instruction> samples;
    {
        Instruction i;
        i.op = Opcode::ADD;
        i.rd = 5;
        i.rs1 = 6;
        i.rs2 = 7;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::ADDI;
        i.rd = 10;
        i.rs1 = 11;
        i.imm = -1234;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::SD;
        i.rs1 = 2;
        i.rs2 = 8;
        i.imm = 4088;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::BNE;
        i.rs1 = 3;
        i.rs2 = 4;
        i.imm = -4096;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::JAL;
        i.rd = 1;
        i.imm = 1 << 18;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::LUI;
        i.rd = 9;
        i.imm = (1 << 18) - 1;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::LD_OP;
        i.rd = 12;
        i.rs1 = 13;
        i.imm = -8;
        i.bank = 2;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::JRU;
        i.rs1 = 20;
        i.bank = 1;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::BOP;
        i.bank = 3;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::JTE_FLUSH;
        samples.push_back(i);
    }
    {
        Instruction i;
        i.op = Opcode::FADD;
        i.rd = 1;
        i.rs1 = 2;
        i.rs2 = 3;
        samples.push_back(i);
    }

    for (const Instruction &inst : samples) {
        Instruction back = decode(encode(inst));
        EXPECT_EQ(back.op, inst.op) << toString(inst);
        EXPECT_EQ(back.rd, inst.rd) << toString(inst);
        EXPECT_EQ(back.rs1, inst.rs1) << toString(inst);
        EXPECT_EQ(back.rs2, inst.rs2) << toString(inst);
        EXPECT_EQ(back.imm, inst.imm) << toString(inst);
        EXPECT_EQ(back.bank, inst.bank) << toString(inst);
    }
}

TEST(Encoding, EveryOpcodeRoundTripsItsOpcodeByte)
{
    for (unsigned n = 0; n < kNumOpcodes; ++n) {
        Instruction inst;
        inst.op = static_cast<Opcode>(n);
        Instruction back = decode(encode(inst));
        EXPECT_EQ(back.op, inst.op) << "opcode " << n;
    }
}

TEST(Encoding, UnknownOpcodeByteDecodesToEbreak)
{
    uint32_t word = 0xFFu << 24;
    EXPECT_EQ(decode(word).op, Opcode::EBREAK);
}

TEST(Assembler, ForwardAndBackwardLabels)
{
    Assembler as(0x1000);
    Label top = as.bindHere("top");
    Label fwd = as.newLabel("fwd");
    as.beq(1, 2, fwd);  // forward
    as.addi(3, 3, 1);
    as.bind(fwd);
    as.bne(1, 2, top);  // backward
    Program p = as.finish();

    ASSERT_EQ(p.words.size(), 3u);
    Instruction b0 = decode(p.words[0]);
    EXPECT_EQ(b0.op, Opcode::BEQ);
    EXPECT_EQ(b0.imm, 8); // two instructions forward
    Instruction b2 = decode(p.words[2]);
    EXPECT_EQ(b2.op, Opcode::BNE);
    EXPECT_EQ(b2.imm, -8);
    EXPECT_EQ(p.symbol("top"), 0x1000u);
    EXPECT_EQ(p.symbol("fwd"), 0x1008u);
}

TEST(Assembler, BranchRelaxationBeyondRange)
{
    // A conditional branch over > 32 KiB of code must be relaxed into an
    // inverted branch + jal pair.
    Assembler as(0x1000);
    Label far = as.newLabel("far");
    as.beq(1, 2, far);
    const int filler = 10000; // 40 KB
    for (int n = 0; n < filler; ++n)
        as.addi(3, 3, 1);
    as.bind(far);
    as.addi(4, 4, 1);
    Program p = as.finish();

    ASSERT_EQ(p.words.size(), size_t(filler) + 3);
    Instruction inv = decode(p.words[0]);
    EXPECT_EQ(inv.op, Opcode::BNE); // inverted
    EXPECT_EQ(inv.imm, 8);
    Instruction jump = decode(p.words[1]);
    EXPECT_EQ(jump.op, Opcode::JAL);
    EXPECT_EQ(jump.rd, 0);
    EXPECT_EQ(uint64_t(0x1004 + jump.imm), p.symbol("far"));
}

TEST(Assembler, LiSmallMediumLarge)
{
    Assembler as(0);
    as.li(5, 42);             // one addi
    as.li(6, 0x12345678);     // lui + ori
    as.li(7, -1);             // addi
    as.li(8, 0x123456789ABCDEF0LL); // full path
    Program p = as.finish();
    EXPECT_GE(p.words.size(), 4u);

    // Check expansion choices.
    EXPECT_EQ(decode(p.words[0]).op, Opcode::ADDI);
    EXPECT_EQ(decode(p.words[1]).op, Opcode::LUI);
    EXPECT_EQ(decode(p.words[2]).op, Opcode::ORI);
}

TEST(Assembler, LaResolvesToLabelAddress)
{
    Assembler as(0x1000);
    Label data = as.newLabel("target");
    as.la(10, data);
    as.nop();
    as.bind(data);
    as.nop();
    Program p = as.finish();

    Instruction hi = decode(p.words[0]);
    Instruction lo = decode(p.words[1]);
    uint64_t addr = (uint64_t(hi.imm) << 13) | uint64_t(lo.imm);
    EXPECT_EQ(addr, p.symbol("target"));
}

TEST(Assembler, AddressOfLabelAfterFinish)
{
    Assembler as(0x2000);
    as.nop();
    Label mid = as.bindHere("mid");
    as.nop();
    as.finish();
    EXPECT_EQ(as.address(mid), 0x2004u);
}

TEST(TextAssembler, BasicProgram)
{
    Program p = assembleText(R"(
        # compute 6*7 and exit with it
        li a0, 6
        li a1, 7
        mul a0, a0, a1
        li a7, 0
        ecall
    )");
    ASSERT_EQ(p.words.size(), 5u);
    EXPECT_EQ(decode(p.words[2]).op, Opcode::MUL);
    EXPECT_EQ(decode(p.words[4]).op, Opcode::ECALL);
}

TEST(TextAssembler, LabelsAndBranches)
{
    Program p = assembleText(R"(
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        ret
    )");
    ASSERT_EQ(p.words.size(), 3u);
    Instruction b = decode(p.words[1]);
    EXPECT_EQ(b.op, Opcode::BLT);
    EXPECT_EQ(b.imm, -4);
}

TEST(TextAssembler, MemoryOperands)
{
    Program p = assembleText(R"(
        ld a0, 16(sp)
        sd a0, -8(s0)
        ld.op t0, 0(a1)
        bop
        jru t0
        jte.flush
    )");
    ASSERT_EQ(p.words.size(), 6u);
    EXPECT_EQ(decode(p.words[0]).imm, 16);
    EXPECT_EQ(decode(p.words[1]).imm, -8);
    EXPECT_EQ(decode(p.words[2]).op, Opcode::LD_OP);
    EXPECT_EQ(decode(p.words[3]).op, Opcode::BOP);
    EXPECT_EQ(decode(p.words[4]).op, Opcode::JRU);
    EXPECT_EQ(decode(p.words[5]).op, Opcode::JTE_FLUSH);
}

TEST(TextAssembler, RejectsUnknownMnemonic)
{
    EXPECT_THROW(assembleText("frobnicate a0, a1"), FatalError);
}

TEST(TextAssembler, RejectsOperandsOnOperandlessMnemonics)
{
    // Each of these takes no operand; a stray one (say, a bank number on
    // bop) must not be dropped silently.
    for (const char *line : {"bop 2", "ecall x5", "ebreak 1", "jte.flush 1",
                             "nop 7", "ret ra"})
        EXPECT_THROW(assembleText(line), FatalError) << line;
    Program p = assembleText("bop\necall\nebreak\njte.flush\nnop\nret");
    EXPECT_EQ(p.words.size(), 6u);
}

TEST(Disassembler, ShowsSymbolsAndMnemonics)
{
    Assembler as(0x1000);
    as.bindHere("entry");
    as.addi(10, 0, 5);
    as.ecall();
    Program p = as.finish();
    std::string text = disassemble(p);
    EXPECT_NE(text.find("entry:"), std::string::npos);
    EXPECT_NE(text.find("addi"), std::string::npos);
    EXPECT_NE(text.find("ecall"), std::string::npos);
}

} // namespace
