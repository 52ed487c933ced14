#include "runtime.hh"

#include <utility>

#include "common/logging.hh"
#include "cpu/syscalls.hh"
#include "layout.hh"

namespace scd::guest
{

using namespace scd::isa;
using namespace scd::isa::reg;

namespace
{

constexpr int64_t kIntHashMul = 0x9E3779B97F4A7C15LL;
constexpr int64_t kFnvOffset = 0xcbf29ce484222325LL;
constexpr int64_t kFnvPrime = 0x100000001b3LL;

} // namespace

RuntimeLib::RuntimeLib(Assembler &as, DataImage &data) : as_(as), data_(data)
{
    alloc = as.newLabel("rt_alloc");
    internBytes = as.newLabel("rt_intern");
    concat = as.newLabel("rt_concat");
    strCmp = as.newLabel("rt_strcmp");
    tableNew = as.newLabel("rt_table_new");
    tableGet = as.newLabel("rt_table_get");
    tableSet = as.newLabel("rt_table_set");
    arithSlowAdd = as.newLabel("rt_arith_add");
    arithSlowSub = as.newLabel("rt_arith_sub");
    arithSlowMul = as.newLabel("rt_arith_mul");
    arithSlowDiv = as.newLabel("rt_arith_div");
    arithSlowIDiv = as.newLabel("rt_arith_idiv");
    arithSlowMod = as.newLabel("rt_arith_mod");
    printValue = as.newLabel("rt_print_value");
    strSub = as.newLabel("rt_strsub");
    trap = as.newLabel("rt_trap");
    growArray_ = as.newLabel("rt_grow_array");
    rehash_ = as.newLabel("rt_rehash");
    absorb_ = as.newLabel("rt_absorb");

    emptyString_ = data.internString("");
    nilStr_ = data.internString("nil");
    trueStr_ = data.internString("true");
    falseStr_ = data.internString("false");
    tableStr_ = data.internString("<table>");
    funcStr_ = data.internString("<function>");
    trapStr_ = data.internString("guest runtime trap\n");
}

void
RuntimeLib::emit()
{
    emitAlloc();
    emitInternBytes();
    emitConcat();
    emitStrCmp();
    emitTableNew();
    emitTableGet();
    emitTableSet();
    emitTableGrowArray();
    emitTableRehash();
    emitTableAbsorb();
    emitArithSlow();
    emitPrintValue();
    emitStrSub();
    emitTrap();
}

void
RuntimeLib::emitAlloc()
{
    auto &as = as_;
    as.bind(alloc);
    // Round the size up to 8 and bump s11. Fresh guest pages are zeroed
    // and nothing is ever freed, so allocations come back zero-filled.
    as.addi(a0, a0, 7);
    as.andi(a0, a0, -8);
    as.mv(t0, s11);
    as.add(s11, s11, a0);
    as.mv(a0, t0);
    as.ret();
}

void
RuntimeLib::emitInternBytes()
{
    auto &as = as_;
    as.bind(internBytes);
    // a0 = bytes, a1 = len -> a0 = interned string object.
    // FNV-1a over the bytes.
    as.li(t0, kFnvOffset);
    as.li(t1, kFnvPrime);
    as.mv(t2, a0);          // cursor
    as.add(t3, a0, a1);     // end
    Label hashLoop = as.newLabel();
    Label hashDone = as.newLabel();
    as.bind(hashLoop);
    as.bgeu(t2, t3, hashDone);
    as.lbu(t4, 0, t2);
    as.xor_(t0, t0, t4);
    as.mul(t0, t0, t1);
    as.addi(t2, t2, 1);
    as.j(hashLoop);
    as.bind(hashDone);
    // t0 = hash. Probe the intern table (s8).
    as.li(t1, kInternCapacity - 1);
    as.and_(t2, t0, t1);    // slot index
    Label probe = as.newLabel();
    Label miss = as.newLabel();
    Label next = as.newLabel();
    as.bind(probe);
    as.slli(t3, t2, 3);
    as.add(t3, t3, s8);
    as.ld(t3, 0, t3);       // candidate string object
    as.beqz(t3, miss);
    as.ld(t4, kStrHash, t3);
    as.bne(t4, t0, next);
    as.ld(t4, kStrLen, t3);
    as.bne(t4, a1, next);
    {
        // Byte compare candidate vs input.
        Label cmpLoop = as.newLabel();
        Label cmpDone = as.newLabel();
        as.mv(t4, zero);    // offset
        as.bind(cmpLoop);
        as.bgeu(t4, a1, cmpDone);
        as.add(t5, a0, t4);
        as.lbu(t5, 0, t5);
        as.add(t6, t3, t4);
        as.lbu(t6, kStrBytes, t6);
        as.bne(t5, t6, next);
        as.addi(t4, t4, 1);
        as.j(cmpLoop);
        as.bind(cmpDone);
        as.mv(a0, t3);      // hit: return candidate
        as.ret();
    }
    as.bind(next);
    as.addi(t2, t2, 1);
    as.li(t3, kInternCapacity - 1);
    as.and_(t2, t2, t3);
    as.j(probe);

    as.bind(miss);
    // Create a new string object and install it in slot t2.
    as.addi(sp, sp, -48);
    as.sd(ra, 0, sp);
    as.sd(a0, 8, sp);   // bytes
    as.sd(a1, 16, sp);  // len
    as.sd(t0, 24, sp);  // hash
    as.sd(t2, 32, sp);  // slot index
    as.addi(a0, a1, kStrBytes);
    as.call(alloc);
    as.ld(a1, 16, sp);
    as.sd(a1, kStrLen, a0);
    as.ld(t0, 24, sp);
    as.sd(t0, kStrHash, a0);
    {
        Label cpLoop = as.newLabel();
        Label cpDone = as.newLabel();
        as.ld(t1, 8, sp);   // src
        as.mv(t2, zero);
        as.bind(cpLoop);
        as.bgeu(t2, a1, cpDone);
        as.add(t3, t1, t2);
        as.lbu(t3, 0, t3);
        as.add(t4, a0, t2);
        as.sb(t3, kStrBytes, t4);
        as.addi(t2, t2, 1);
        as.j(cpLoop);
        as.bind(cpDone);
    }
    as.ld(t2, 32, sp);
    as.slli(t2, t2, 3);
    as.add(t2, t2, s8);
    as.sd(a0, 0, t2);
    as.ld(ra, 0, sp);
    as.addi(sp, sp, 48);
    as.ret();
}

void
RuntimeLib::emitConcat()
{
    auto &as = as_;
    as.bind(concat);
    // a0 = strA, a1 = strB -> a0 = interned concatenation.
    as.addi(sp, sp, -32);
    as.sd(ra, 0, sp);
    as.sd(a0, 8, sp);
    as.sd(a1, 16, sp);
    as.ld(t0, kStrLen, a0);
    as.ld(t1, kStrLen, a1);
    as.add(t2, t0, t1);
    as.sd(t2, 24, sp);  // total length
    as.addi(a0, t2, kStrBytes);
    as.call(alloc);     // scratch object (left unreferenced on intern hit)
    as.mv(t6, a0);
    // Copy A.
    as.ld(t0, 8, sp);
    as.ld(t1, kStrLen, t0);
    {
        Label cp = as.newLabel();
        Label done = as.newLabel();
        as.mv(t2, zero);
        as.bind(cp);
        as.bgeu(t2, t1, done);
        as.add(t3, t0, t2);
        as.lbu(t3, kStrBytes, t3);
        as.add(t4, t6, t2);
        as.sb(t3, kStrBytes, t4);
        as.addi(t2, t2, 1);
        as.j(cp);
        as.bind(done);
    }
    // Copy B after A.
    as.ld(t0, 16, sp);
    as.ld(t5, kStrLen, t0);
    {
        Label cp = as.newLabel();
        Label done = as.newLabel();
        as.mv(t2, zero);
        as.bind(cp);
        as.bgeu(t2, t5, done);
        as.add(t3, t0, t2);
        as.lbu(t3, kStrBytes, t3);
        as.add(t4, t6, t2);
        as.add(t4, t4, t1);
        as.sb(t3, kStrBytes, t4);
        as.addi(t2, t2, 1);
        as.j(cp);
        as.bind(done);
    }
    as.addi(a0, t6, kStrBytes);
    as.ld(a1, 24, sp);
    as.call(internBytes);
    as.ld(ra, 0, sp);
    as.addi(sp, sp, 32);
    as.ret();
}

void
RuntimeLib::emitStrCmp()
{
    auto &as = as_;
    as.bind(strCmp);
    // a0, a1 = string objects -> a0 = lexicographic comparison result.
    as.ld(t0, kStrLen, a0);
    as.ld(t1, kStrLen, a1);
    // t2 = min length
    as.mv(t2, t0);
    Label minOk = as.newLabel();
    as.bleu(t0, t1, minOk);
    as.mv(t2, t1);
    as.bind(minOk);
    Label loop = as.newLabel();
    Label tail = as.newLabel();
    Label differ = as.newLabel();
    as.mv(t3, zero);
    as.bind(loop);
    as.bgeu(t3, t2, tail);
    as.add(t4, a0, t3);
    as.lbu(t4, kStrBytes, t4);
    as.add(t5, a1, t3);
    as.lbu(t5, kStrBytes, t5);
    as.bne(t4, t5, differ);
    as.addi(t3, t3, 1);
    as.j(loop);
    as.bind(differ);
    as.sub(a0, t4, t5);
    as.ret();
    as.bind(tail);
    as.sub(a0, t0, t1);
    as.ret();
}

void
RuntimeLib::emitTableNew()
{
    auto &as = as_;
    as.bind(tableNew);
    as.addi(sp, sp, -16);
    as.sd(ra, 0, sp);
    as.li(a0, kTabSize);
    as.call(alloc);
    as.sd(a0, 8, sp);
    as.li(a0, kTabInitHashCap * kNodeSize);
    as.call(alloc);
    as.mv(t0, a0);
    as.ld(a0, 8, sp);
    as.sd(t0, kTabHashPtr, a0);
    as.li(t1, kTabInitHashCap - 1);
    as.sd(t1, kTabHashMask, a0);
    // arrPtr/arrSize/arrCap/hashCount start at zero (fresh storage).
    as.ld(ra, 0, sp);
    as.addi(sp, sp, 16);
    as.ret();
}

void
RuntimeLib::emitTableGet()
{
    auto &as = as_;
    as.bind(tableGet);
    // a0 = table, a1 = key tag, a2 = key payload -> a0/a1 value.
    Label strKey = as.newLabel();
    Label doProbe = as.newLabel();
    Label probe = as.newLabel();
    Label nextSlot = as.newLabel();
    Label missNil = as.newLabel();
    Label arrHit = as.newLabel();

    as.li(t0, kTagInt);
    as.bne(a1, t0, strKey);
    // Integer key: array part first.
    as.ld(t1, kTabArrSize, a0);
    as.addi(t2, a2, -1);
    as.bltu(t2, t1, arrHit);
    as.li(t3, kIntHashMul);
    as.mul(t3, a2, t3);
    as.j(doProbe);

    as.bind(strKey);
    as.li(t0, kTagStr);
    as.bne(a1, t0, trap);
    as.ld(t3, kStrHash, a2);

    as.bind(doProbe);
    as.ld(t4, kTabHashPtr, a0);
    as.ld(t5, kTabHashMask, a0);
    as.and_(t3, t3, t5);
    as.bind(probe);
    as.slli(t6, t3, 5);
    as.add(t6, t6, t4);
    as.ld(t0, 0, t6);           // key tag
    as.beqz(t0, missNil);
    as.bne(t0, a1, nextSlot);
    as.ld(t1, 8, t6);           // key payload
    as.bne(t1, a2, nextSlot);
    as.ld(a0, 16, t6);
    as.ld(a1, 24, t6);
    as.ret();
    as.bind(nextSlot);
    as.addi(t3, t3, 1);
    as.and_(t3, t3, t5);
    as.j(probe);
    as.bind(missNil);
    as.mv(a0, zero);
    as.mv(a1, zero);
    as.ret();

    as.bind(arrHit);
    as.ld(t3, kTabArrPtr, a0);
    as.slli(t2, t2, 4);
    as.add(t3, t3, t2);
    as.ld(a0, 0, t3);
    as.ld(a1, 8, t3);
    as.ret();
}

void
RuntimeLib::emitTableSet()
{
    auto &as = as_;
    as.bind(tableSet);
    // a0 table, a1/a2 key, a3/a4 value. Saves everything and restarts
    // after any growth operation.
    as.addi(sp, sp, -48);
    as.sd(ra, 0, sp);
    as.sd(a0, 8, sp);
    as.sd(a1, 16, sp);
    as.sd(a2, 24, sp);
    as.sd(a3, 32, sp);
    as.sd(a4, 40, sp);

    Label restart = as.newLabel("rt_table_set_restart");
    Label intKey = as.newLabel();
    Label hashSet = as.newLabel();
    Label probe = as.newLabel();
    Label nextSlot = as.newLabel();
    Label insertNew = as.newLabel();
    Label storeNode = as.newLabel();
    Label arrStore = as.newLabel();
    Label append = as.newLabel();
    Label appendStore = as.newLabel();
    Label out = as.newLabel();

    as.bind(restart);
    as.ld(a0, 8, sp);
    as.ld(a1, 16, sp);
    as.ld(a2, 24, sp);
    as.ld(a3, 32, sp);
    as.ld(a4, 40, sp);

    as.li(t0, kTagInt);
    as.beq(a1, t0, intKey);
    as.li(t0, kTagStr);
    as.bne(a1, t0, trap);
    as.ld(t3, kStrHash, a2);
    as.j(hashSet);

    as.bind(intKey);
    as.ld(t1, kTabArrSize, a0);
    as.addi(t2, a2, -1);
    as.bltu(t2, t1, arrStore);
    as.beq(t2, t1, append);
    as.li(t3, kIntHashMul);
    as.mul(t3, a2, t3);

    as.bind(hashSet);
    as.ld(t4, kTabHashPtr, a0);
    as.ld(t5, kTabHashMask, a0);
    as.and_(t3, t3, t5);
    as.bind(probe);
    as.slli(t6, t3, 5);
    as.add(t6, t6, t4);
    as.ld(t0, 0, t6);
    as.beqz(t0, insertNew);
    as.bne(t0, a1, nextSlot);
    as.ld(t1, 8, t6);
    as.bne(t1, a2, nextSlot);
    as.sd(a3, 16, t6);      // update existing
    as.sd(a4, 24, t6);
    as.j(out);
    as.bind(nextSlot);
    as.addi(t3, t3, 1);
    as.and_(t3, t3, t5);
    as.j(probe);

    as.bind(insertNew);
    // Grow when (count+1)*4 >= (mask+1)*3.
    as.ld(t1, kTabHashCount, a0);
    as.addi(t1, t1, 1);
    as.slli(t2, t1, 2);
    as.addi(t0, t5, 1);
    as.slli(t3, t0, 1);
    as.add(t3, t3, t0);     // 3 * capacity
    as.bltu(t2, t3, storeNode);
    as.call(rehash_);
    as.j(restart);
    as.bind(storeNode);
    as.sd(t1, kTabHashCount, a0);
    as.sd(a1, 0, t6);
    as.sd(a2, 8, t6);
    as.sd(a3, 16, t6);
    as.sd(a4, 24, t6);
    as.j(out);

    as.bind(arrStore);
    as.ld(t3, kTabArrPtr, a0);
    as.slli(t2, t2, 4);
    as.add(t3, t3, t2);
    as.sd(a3, 0, t3);
    as.sd(a4, 8, t3);
    as.j(out);

    as.bind(append);
    // t1 = old size (== key-1). Grow the array part when full.
    as.ld(t3, kTabArrCap, a0);
    as.bltu(t1, t3, appendStore);
    as.call(growArray_);
    as.j(restart);
    as.bind(appendStore);
    as.ld(t3, kTabArrPtr, a0);
    as.slli(t2, t1, 4);
    as.add(t3, t3, t2);
    as.sd(a3, 0, t3);
    as.sd(a4, 8, t3);
    as.addi(t1, t1, 1);
    as.sd(t1, kTabArrSize, a0);
    // Pull any consecutive integer keys waiting in the hash part.
    as.call(absorb_);

    as.bind(out);
    as.ld(ra, 0, sp);
    as.addi(sp, sp, 48);
    as.ret();
}

void
RuntimeLib::emitTableGrowArray()
{
    auto &as = as_;
    as.bind(growArray_);
    // a0 = table. Doubles the array part (min 8 slots).
    as.addi(sp, sp, -16);
    as.sd(ra, 0, sp);
    as.sd(a0, 8, sp);
    as.ld(t0, kTabArrCap, a0);
    as.slli(t0, t0, 1);
    Label capOk = as.newLabel();
    as.li(t1, 8);
    as.bgeu(t0, t1, capOk);
    as.mv(t0, t1);
    as.bind(capOk);
    as.mv(a7, t0);          // new capacity (alloc preserves a7)
    as.slli(a0, t0, 4);
    as.call(alloc);
    // Copy old contents (size entries of 16 bytes, as 8-byte words).
    as.ld(t0, 8, sp);
    as.ld(t1, kTabArrPtr, t0);
    as.ld(t2, kTabArrSize, t0);
    as.slli(t2, t2, 4);     // bytes to copy
    Label cp = as.newLabel();
    Label done = as.newLabel();
    as.mv(t3, zero);
    as.bind(cp);
    as.bgeu(t3, t2, done);
    as.add(t4, t1, t3);
    as.ld(t4, 0, t4);
    as.add(t5, a0, t3);
    as.sd(t4, 0, t5);
    as.addi(t3, t3, 8);
    as.j(cp);
    as.bind(done);
    as.sd(a0, kTabArrPtr, t0);
    as.sd(a7, kTabArrCap, t0);
    as.mv(a0, t0);
    as.ld(ra, 0, sp);
    as.addi(sp, sp, 16);
    as.ret();
}

void
RuntimeLib::emitTableRehash()
{
    auto &as = as_;
    as.bind(rehash_);
    // a0 = table. Doubles the hash part, reinserting every live node.
    as.addi(sp, sp, -40);
    as.sd(ra, 0, sp);
    as.sd(a0, 8, sp);
    as.ld(t0, kTabHashPtr, a0);
    as.sd(t0, 16, sp);      // old nodes
    as.ld(t1, kTabHashMask, a0);
    as.sd(t1, 24, sp);      // old mask
    as.addi(t2, t1, 1);
    as.slli(t2, t2, 1);     // new capacity
    as.sd(t2, 32, sp);
    as.slli(a0, t2, 5);     // bytes
    as.call(alloc);
    as.mv(a6, a0);          // new node array
    as.ld(a0, 8, sp);
    as.sd(a6, kTabHashPtr, a0);
    as.ld(t2, 32, sp);
    as.addi(t2, t2, -1);
    as.sd(t2, kTabHashMask, a0);

    // Walk the old nodes and reinsert. Register plan for the loop:
    //   a5 = table, a1 = old node base, a2 = old mask, a3 = index,
    //   a4 = live count, t5 = new mask, t6 = new node base.
    as.mv(a5, a0);
    as.ld(a1, 16, sp);
    as.ld(a2, 24, sp);
    as.mv(a3, zero);
    as.mv(a4, zero);
    as.ld(t5, kTabHashMask, a5);
    as.ld(t6, kTabHashPtr, a5);
    Label walk = as.newLabel();
    Label walkNext = as.newLabel();
    Label walkDone = as.newLabel();
    as.bind(walk);
    as.bgtu(a3, a2, walkDone);
    as.slli(t0, a3, 5);
    as.add(t0, t0, a1);     // old node
    as.ld(t1, 0, t0);       // key tag
    as.beqz(t1, walkNext);
    // Hash of the key (int: multiplicative; string: stored hash).
    as.ld(t3, 8, t0);       // key payload
    {
        Label strHash = as.newLabel();
        Label haveHash = as.newLabel();
        as.li(t2, kTagInt);
        as.bne(t1, t2, strHash);
        as.li(t4, kIntHashMul);
        as.mul(t4, t3, t4);
        as.j(haveHash);
        as.bind(strHash);
        as.ld(t4, kStrHash, t3);
        as.bind(haveHash);
    }
    as.and_(t4, t4, t5);
    {
        // Probe the new table for an empty slot (keys are unique).
        Label probe = as.newLabel();
        Label found = as.newLabel();
        as.bind(probe);
        as.slli(t2, t4, 5);
        as.add(t2, t2, t6);
        as.ld(t1, 0, t2);
        as.beqz(t1, found);
        as.addi(t4, t4, 1);
        as.and_(t4, t4, t5);
        as.j(probe);
        as.bind(found);
        // Copy the 32-byte node.
        as.ld(t1, 0, t0);
        as.sd(t1, 0, t2);
        as.ld(t1, 8, t0);
        as.sd(t1, 8, t2);
        as.ld(t1, 16, t0);
        as.sd(t1, 16, t2);
        as.ld(t1, 24, t0);
        as.sd(t1, 24, t2);
    }
    as.addi(a4, a4, 1);
    as.bind(walkNext);
    as.addi(a3, a3, 1);
    as.j(walk);
    as.bind(walkDone);
    as.sd(a4, kTabHashCount, a5);
    as.ld(ra, 0, sp);
    as.addi(sp, sp, 40);
    as.ret();
}

void
RuntimeLib::emitTableAbsorb()
{
    auto &as = as_;
    as.bind(absorb_);
    // a0 = table. While hash[arrSize+1] exists, append it to the array.
    as.addi(sp, sp, -16);
    as.sd(ra, 0, sp);
    as.sd(a0, 8, sp);
    Label loop = as.newLabel();
    Label done = as.newLabel();
    as.bind(loop);
    as.ld(a0, 8, sp);
    as.ld(t0, kTabArrSize, a0);
    as.addi(t1, t0, 1);     // candidate key
    // Probe the hash part for integer key t1.
    as.li(t2, kIntHashMul);
    as.mul(t2, t1, t2);
    as.ld(t3, kTabHashPtr, a0);
    as.ld(t4, kTabHashMask, a0);
    as.and_(t2, t2, t4);
    Label probe = as.newLabel();
    Label nextSlot = as.newLabel();
    Label found = as.newLabel();
    as.bind(probe);
    as.slli(t5, t2, 5);
    as.add(t5, t5, t3);
    as.ld(t6, 0, t5);
    as.beqz(t6, done);
    as.li(a1, kTagInt);
    as.bne(t6, a1, nextSlot);
    as.ld(t6, 8, t5);
    as.beq(t6, t1, found);
    as.bind(nextSlot);
    as.addi(t2, t2, 1);
    as.and_(t2, t2, t4);
    as.j(probe);
    as.bind(found);
    // Append the node's value directly (growing the array if needed,
    // then retrying the scan so the probe state is rebuilt).
    as.ld(t2, kTabArrCap, a0);
    Label roomOk = as.newLabel();
    as.bltu(t0, t2, roomOk);
    as.call(growArray_);
    as.j(loop);
    as.bind(roomOk);
    as.ld(t2, kTabArrPtr, a0);
    as.slli(t3, t0, 4);
    as.add(t2, t2, t3);
    as.ld(t4, 16, t5);
    as.sd(t4, 0, t2);
    as.ld(t4, 24, t5);
    as.sd(t4, 8, t2);
    as.sd(t1, kTabArrSize, a0);
    as.j(loop);
    as.bind(done);
    as.ld(ra, 0, sp);
    as.addi(sp, sp, 16);
    as.ret();
}

void
RuntimeLib::emitArithSlow()
{
    auto &as = as_;
    // Common helper behaviour: inputs a1=tagL a2=payL a3=tagR a4=payR;
    // both must be numeric; converts to double in f0/f1.
    auto emitLoadDoubles = [&](Label entry) {
        as.bind(entry);
        Label lFloat = as.newLabel();
        Label lDone = as.newLabel();
        Label rFloat = as.newLabel();
        Label rDone = as.newLabel();
        as.li(t0, kTagInt);
        as.li(t1, kTagFloat);
        as.bne(a1, t0, lFloat);
        as.fcvtDL(0, a2);
        as.j(lDone);
        as.bind(lFloat);
        as.bne(a1, t1, trap);
        as.fmvDX(0, a2);
        as.bind(lDone);
        as.bne(a3, t0, rFloat);
        as.fcvtDL(1, a4);
        as.j(rDone);
        as.bind(rFloat);
        as.bne(a3, t1, trap);
        as.fmvDX(1, a4);
        as.bind(rDone);
    };

    auto emitReturnDouble = [&] {
        as.fmvXD(a1, 2);
        as.li(a0, kTagFloat);
        as.ret();
    };

    const std::pair<Label, vm::ArithOp> entries[] = {
        {arithSlowAdd, vm::ArithOp::Add},   {arithSlowSub, vm::ArithOp::Sub},
        {arithSlowMul, vm::ArithOp::Mul},   {arithSlowDiv, vm::ArithOp::Div},
        {arithSlowIDiv, vm::ArithOp::IDiv}, {arithSlowMod, vm::ArithOp::Mod},
    };
    for (auto [entry, op] : entries) {
        emitLoadDoubles(entry);
        emitFloatArith(as, op);
        emitReturnDouble();
    }
}

void
emitFloatArith(Assembler &as, vm::ArithOp op)
{
    // Floor of f2 into f2 (used by the IDIV/MOD float paths).
    auto floorF2 = [&] {
        Label noAdjust = as.newLabel();
        as.fcvtLD(t0, 2);       // trunc
        as.fcvtDL(3, t0);       // back to double
        as.fle(t1, 3, 2);       // trunc <= x ?
        as.bnez(t1, noAdjust);
        as.li(t2, 1);
        as.fcvtDL(4, t2);
        as.fsub(3, 3, 4);
        as.bind(noAdjust);
        as.fmvXD(t0, 3);
        as.fmvDX(2, t0);
    };
    switch (op) {
      case vm::ArithOp::Add:
        as.fadd(2, 0, 1);
        break;
      case vm::ArithOp::Sub:
        as.fsub(2, 0, 1);
        break;
      case vm::ArithOp::Mul:
        as.fmul(2, 0, 1);
        break;
      case vm::ArithOp::Div:
        as.fdiv(2, 0, 1);
        break;
      case vm::ArithOp::IDiv:
        as.fdiv(2, 0, 1);
        floorF2();
        break;
      case vm::ArithOp::Mod:
        // r = a - floor(a/b) * b
        as.fdiv(2, 0, 1);
        floorF2();
        as.fmul(2, 2, 1);
        as.fsub(2, 0, 2);
        break;
      default:
        panic("not a binary arith op");
    }
}

void
RuntimeLib::emitPrintValue()
{
    auto &as = as_;
    as.bind(printValue);
    // a0 = tag, a1 = payload. Leaf; uses syscalls directly.
    Label tagTable[8] = {
        as.newLabel(), as.newLabel(), as.newLabel(), as.newLabel(),
        as.newLabel(), as.newLabel(), as.newLabel(), as.newLabel(),
    };
    // Dispatch on the tag with compares (8 cases).
    for (int tag = 0; tag < 8; ++tag) {
        as.li(t0, tag);
        as.beq(a0, t0, tagTable[tag]);
    }
    as.j(trap);

    auto printStatic = [&](uint64_t strObj, const std::string &text) {
        as.li(a0, static_cast<int64_t>(strObj + kStrBytes));
        as.li(a1, static_cast<int64_t>(text.size()));
        as.li(a7, static_cast<int64_t>(cpu::Syscall::PrintStr));
        as.ecall();
        as.ret();
    };

    as.bind(tagTable[kTagNil]);
    printStatic(nilStr_, "nil");
    as.bind(tagTable[kTagFalse]);
    printStatic(falseStr_, "false");
    as.bind(tagTable[kTagTrue]);
    printStatic(trueStr_, "true");

    as.bind(tagTable[kTagInt]);
    as.mv(a0, a1);
    as.li(a7, static_cast<int64_t>(cpu::Syscall::PrintInt));
    as.ecall();
    as.ret();

    as.bind(tagTable[kTagFloat]);
    as.mv(a0, a1);
    as.li(a7, static_cast<int64_t>(cpu::Syscall::PrintDouble));
    as.ecall();
    as.ret();

    as.bind(tagTable[kTagStr]);
    as.ld(t0, kStrLen, a1);
    as.addi(a0, a1, kStrBytes);
    as.mv(a1, t0);
    as.li(a7, static_cast<int64_t>(cpu::Syscall::PrintStr));
    as.ecall();
    as.ret();

    as.bind(tagTable[kTagTab]);
    printStatic(tableStr_, "<table>");
    as.bind(tagTable[kTagFun]);
    printStatic(funcStr_, "<function>");
}

void
RuntimeLib::emitStrSub()
{
    auto &as = as_;
    as.bind(strSub);
    // a0 = string obj, a1 = i, a2 = j -> a0 = interned substring.
    as.ld(t0, kStrLen, a0);
    // Clamp i to >= 1 and j to <= len.
    Label iOk = as.newLabel();
    Label jOk = as.newLabel();
    Label nonEmpty = as.newLabel();
    as.li(t1, 1);
    as.bge(a1, t1, iOk);
    as.mv(a1, t1);
    as.bind(iOk);
    as.ble(a2, t0, jOk);
    as.mv(a2, t0);
    as.bind(jOk);
    as.ble(a1, a2, nonEmpty);
    as.li(a0, static_cast<int64_t>(emptyString_));
    as.ret();
    as.bind(nonEmpty);
    // Intern directly out of the source bytes (no copy needed).
    as.addi(t1, a1, -1);
    as.add(t2, a0, t1);
    as.addi(t2, t2, kStrBytes); // source pointer
    as.sub(t3, a2, a1);
    as.addi(t3, t3, 1);         // length
    as.mv(a0, t2);
    as.mv(a1, t3);
    as.j(internBytes);          // tail call
}

void
RuntimeLib::emitTrap()
{
    auto &as = as_;
    as.bind(trap);
    as.li(a0, static_cast<int64_t>(trapStr_ + kStrBytes));
    as.li(a1, 19); // strlen("guest runtime trap\n")
    as.li(a7, static_cast<int64_t>(cpu::Syscall::PrintStr));
    as.ecall();
    as.li(a0, 1);
    as.li(a7, static_cast<int64_t>(cpu::Syscall::Exit));
    as.ecall();
}

} // namespace scd::guest
