#include "text_assembler.hh"

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "assembler.hh"
#include "common/logging.hh"

namespace scd::isa
{

namespace
{

/** Tokenized operand list for one source line. */
struct Line
{
    int number;
    std::string mnemonic;
    std::vector<std::string> operands;
};

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

int
parseReg(const std::string &tok, int line)
{
    static const std::map<std::string, int> names = [] {
        std::map<std::string, int> m;
        for (int r = 0; r < 32; ++r) {
            m[regName(r)] = r;
            m["x" + std::to_string(r)] = r;
        }
        m["fp"] = 8;
        return m;
    }();
    auto it = names.find(tok);
    if (it == names.end())
        fatal("line ", line, ": bad register '", tok, "'");
    return it->second;
}

int
parseFreg(const std::string &tok, int line)
{
    if (tok.size() >= 2 && tok[0] == 'f') {
        char *end = nullptr;
        long v = std::strtol(tok.c_str() + 1, &end, 10);
        if (*end == '\0' && v >= 0 && v < 32)
            return static_cast<int>(v);
    }
    fatal("line ", line, ": bad fp register '", tok, "'");
}

int64_t
parseImm(const std::string &tok, int line)
{
    char *end = nullptr;
    long long v = std::strtoll(tok.c_str(), &end, 0);
    if (end == tok.c_str() || *end != '\0')
        fatal("line ", line, ": bad immediate '", tok, "'");
    return v;
}

/** Split "off(reg)" into its parts. */
bool
parseMemOperand(const std::string &tok, int64_t &off, std::string &base)
{
    size_t open = tok.find('(');
    size_t close = tok.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
        return false;
    }
    std::string offStr = trim(tok.substr(0, open));
    if (offStr.empty()) {
        off = 0;
    } else {
        // Reject trailing junk ("12x(sp)") instead of silently
        // truncating it the way a bare strtoll would.
        char *end = nullptr;
        off = std::strtoll(offStr.c_str(), &end, 0);
        if (!end || *end != '\0')
            return false;
    }
    base = trim(tok.substr(open + 1, close - open - 1));
    return true;
}

} // namespace

Program
assembleText(const std::string &source, uint64_t base)
{
    Assembler as(base);
    std::map<std::string, Label> labels;
    auto getLabel = [&](const std::string &name) {
        auto it = labels.find(name);
        if (it != labels.end())
            return it->second;
        Label l = as.newLabel(name);
        labels.emplace(name, l);
        return l;
    };

    std::istringstream in(source);
    std::string raw;
    int lineNo = 0;
    while (std::getline(in, raw)) {
        ++lineNo;
        // Strip comments.
        for (const char *marker : {"#", "//", ";"}) {
            size_t pos = raw.find(marker);
            if (pos != std::string::npos)
                raw = raw.substr(0, pos);
        }
        std::string text = trim(raw);
        // Peel off any leading `label:` definitions.
        while (true) {
            size_t colon = text.find(':');
            if (colon == std::string::npos)
                break;
            std::string head = trim(text.substr(0, colon));
            bool ident = !head.empty();
            for (char c : head)
                ident = ident && (std::isalnum(c) || c == '_' || c == '.');
            if (!ident)
                break;
            as.bind(getLabel(head));
            text = trim(text.substr(colon + 1));
        }
        if (text.empty())
            continue;

        Line line;
        line.number = lineNo;
        size_t sp = text.find_first_of(" \t");
        line.mnemonic = text.substr(0, sp);
        if (sp != std::string::npos) {
            std::string rest = text.substr(sp);
            std::string cur;
            for (char c : rest) {
                if (c == ',') {
                    line.operands.push_back(trim(cur));
                    cur.clear();
                } else {
                    cur += c;
                }
            }
            cur = trim(cur);
            if (!cur.empty())
                line.operands.push_back(cur);
        }

        const std::string &m = line.mnemonic;
        auto &ops = line.operands;
        auto need = [&](size_t n) {
            if (ops.size() != n) {
                fatal("line ", lineNo, ": '", m, "' expects ", n,
                      " operands, got ", ops.size());
            }
        };
        auto r = [&](size_t i) {
            return static_cast<uint8_t>(parseReg(ops[i], lineNo));
        };
        auto f = [&](size_t i) {
            return static_cast<uint8_t>(parseFreg(ops[i], lineNo));
        };
        auto imm = [&](size_t i) { return parseImm(ops[i], lineNo); };
        auto lbl = [&](size_t i) { return getLabel(ops[i]); };
        auto mem = [&](size_t i, int64_t &off, uint8_t &breg) {
            std::string b;
            if (!parseMemOperand(ops[i], off, b))
                fatal("line ", lineNo, ": bad memory operand '", ops[i], "'");
            breg = static_cast<uint8_t>(parseReg(b, lineNo));
        };

        using A = Assembler;
        static const std::map<std::string, void (A::*)(uint8_t, uint8_t,
                                                       uint8_t)>
            rops = {
                {"add", &A::add}, {"sub", &A::sub}, {"and", &A::and_},
                {"or", &A::or_}, {"xor", &A::xor_}, {"sll", &A::sll},
                {"srl", &A::srl}, {"sra", &A::sra}, {"slt", &A::slt},
                {"sltu", &A::sltu}, {"mul", &A::mul}, {"mulh", &A::mulh},
                {"div", &A::div}, {"divu", &A::divu}, {"rem", &A::rem},
                {"remu", &A::remu},
            };
        static const std::map<std::string, void (A::*)(uint8_t, uint8_t,
                                                       int32_t)>
            iops = {
                {"addi", &A::addi}, {"andi", &A::andi}, {"ori", &A::ori},
                {"xori", &A::xori}, {"slli", &A::slli}, {"srli", &A::srli},
                {"srai", &A::srai}, {"slti", &A::slti}, {"sltiu", &A::sltiu},
            };
        static const std::map<std::string, void (A::*)(uint8_t, int32_t,
                                                       uint8_t)>
            loads = {
                {"lb", &A::lb}, {"lbu", &A::lbu}, {"lh", &A::lh},
                {"lhu", &A::lhu}, {"lw", &A::lw}, {"lwu", &A::lwu},
                {"ld", &A::ld},
            };
        static const std::map<std::string, void (A::*)(uint8_t, int32_t,
                                                       uint8_t)>
            stores = {
                {"sb", &A::sb}, {"sh", &A::sh}, {"sw", &A::sw},
                {"sd", &A::sd},
            };
        static const std::map<std::string, void (A::*)(uint8_t, uint8_t,
                                                       Label)>
            branches = {
                {"beq", &A::beq}, {"bne", &A::bne}, {"blt", &A::blt},
                {"bge", &A::bge}, {"bltu", &A::bltu}, {"bgeu", &A::bgeu},
                {"bgt", &A::bgt}, {"ble", &A::ble}, {"bgtu", &A::bgtu},
                {"bleu", &A::bleu},
            };
        static const std::map<std::string, void (A::*)(uint8_t, uint8_t,
                                                       uint8_t)>
            fr3 = {
                {"fadd.d", &A::fadd}, {"fsub.d", &A::fsub},
                {"fmul.d", &A::fmul}, {"fdiv.d", &A::fdiv},
                {"fmin.d", &A::fmin}, {"fmax.d", &A::fmax},
            };

        if (auto it = rops.find(m); it != rops.end()) {
            need(3);
            (as.*it->second)(r(0), r(1), r(2));
        } else if (auto it2 = iops.find(m); it2 != iops.end()) {
            need(3);
            (as.*it2->second)(r(0), r(1),
                              static_cast<int32_t>(imm(2)));
        } else if (auto it3 = loads.find(m); it3 != loads.end()) {
            need(2);
            int64_t off;
            uint8_t breg;
            mem(1, off, breg);
            (as.*it3->second)(r(0), static_cast<int32_t>(off), breg);
        } else if (auto it4 = stores.find(m); it4 != stores.end()) {
            need(2);
            int64_t off;
            uint8_t breg;
            mem(1, off, breg);
            (as.*it4->second)(r(0), static_cast<int32_t>(off), breg);
        } else if (auto it5 = branches.find(m); it5 != branches.end()) {
            need(3);
            (as.*it5->second)(r(0), r(1), lbl(2));
        } else if (auto it6 = fr3.find(m); it6 != fr3.end()) {
            need(3);
            (as.*it6->second)(f(0), f(1), f(2));
        } else if (m == "lui") {
            need(2);
            as.lui(r(0), static_cast<int32_t>(imm(1)));
        } else if (m == "jal") {
            if (ops.size() == 1) {
                as.jal(reg::ra, lbl(0));
            } else {
                need(2);
                as.jal(r(0), lbl(1));
            }
        } else if (m == "jalr") {
            need(2);
            int64_t off;
            uint8_t breg;
            mem(1, off, breg);
            as.jalr(r(0), breg, static_cast<int32_t>(off));
        } else if (m == "fld") {
            need(2);
            int64_t off;
            uint8_t breg;
            mem(1, off, breg);
            as.fld(f(0), static_cast<int32_t>(off), breg);
        } else if (m == "fsd") {
            need(2);
            int64_t off;
            uint8_t breg;
            mem(1, off, breg);
            as.fsd(f(0), static_cast<int32_t>(off), breg);
        } else if (m == "fsqrt.d") {
            need(2);
            as.fsqrt(f(0), f(1));
        } else if (m == "fneg.d") {
            need(2);
            as.fneg(f(0), f(1));
        } else if (m == "fabs.d") {
            need(2);
            as.fabs_(f(0), f(1));
        } else if (m == "feq.d") {
            need(3);
            as.feq(r(0), f(1), f(2));
        } else if (m == "flt.d") {
            need(3);
            as.flt(r(0), f(1), f(2));
        } else if (m == "fle.d") {
            need(3);
            as.fle(r(0), f(1), f(2));
        } else if (m == "fcvt.d.l") {
            need(2);
            as.fcvtDL(f(0), r(1));
        } else if (m == "fcvt.l.d") {
            need(2);
            as.fcvtLD(r(0), f(1));
        } else if (m == "fmv.x.d") {
            need(2);
            as.fmvXD(r(0), f(1));
        } else if (m == "fmv.d.x") {
            need(2);
            as.fmvDX(f(0), r(1));
        } else if (m == "ecall") {
            need(0);
            as.ecall();
        } else if (m == "ebreak") {
            need(0);
            as.ebreak();
        } else if (m == "setmask") {
            need(1);
            as.setmask(r(0));
        } else if (m == "bop") {
            need(0);
            as.bop();
        } else if (m == "jru") {
            need(1);
            as.jru(r(0));
        } else if (m == "jte.flush") {
            need(0);
            as.jteFlush();
        } else if (m == "lbu.op" || m == "lhu.op" || m == "lw.op" ||
                   m == "ld.op") {
            need(2);
            int64_t off;
            uint8_t breg;
            mem(1, off, breg);
            auto o = static_cast<int32_t>(off);
            if (m == "lbu.op")
                as.lbuOp(r(0), o, breg);
            else if (m == "lhu.op")
                as.lhuOp(r(0), o, breg);
            else if (m == "lw.op")
                as.lwOp(r(0), o, breg);
            else
                as.ldOp(r(0), o, breg);
        } else if (m == "nop") {
            need(0);
            as.nop();
        } else if (m == "mv") {
            need(2);
            as.mv(r(0), r(1));
        } else if (m == "not") {
            need(2);
            as.not_(r(0), r(1));
        } else if (m == "neg") {
            need(2);
            as.neg(r(0), r(1));
        } else if (m == "seqz") {
            need(2);
            as.seqz(r(0), r(1));
        } else if (m == "snez") {
            need(2);
            as.snez(r(0), r(1));
        } else if (m == "li") {
            need(2);
            as.li(r(0), imm(1));
        } else if (m == "la") {
            need(2);
            as.la(r(0), lbl(1));
        } else if (m == "j") {
            need(1);
            as.j(lbl(0));
        } else if (m == "call") {
            need(1);
            as.call(lbl(0));
        } else if (m == "ret") {
            need(0);
            as.ret();
        } else if (m == "jr") {
            need(1);
            as.jr(r(0));
        } else if (m == "beqz") {
            need(2);
            as.beqz(r(0), lbl(1));
        } else if (m == "bnez") {
            need(2);
            as.bnez(r(0), lbl(1));
        } else {
            fatal("line ", lineNo, ": unknown mnemonic '", m, "'");
        }
    }

    return as.finish();
}

} // namespace scd::isa
