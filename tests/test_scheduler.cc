/**
 * @file
 * Unit tests for the critical-path-first list scheduler: dependence
 * preservation, long-chain front-loading, memory-ordering rules, and
 * semantic equivalence on random blocks.
 */

#include <gtest/gtest.h>

#include "compiler/scheduler.hh"
#include "exec/interpreter.hh"
#include "ir/builder.hh"
#include "support/rng.hh"

namespace vanguard {
namespace {

size_t
positionOf(const BasicBlock &bb, InstId id)
{
    for (size_t i = 0; i < bb.insts.size(); ++i)
        if (bb.insts[i].id == id)
            return i;
    ADD_FAILURE() << "instruction " << id << " lost";
    return SIZE_MAX;
}

TEST(Scheduler, KeepsTerminatorLast)
{
    Function fn("t");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 1);
    b.movi(1, 2);
    b.add(2, 0, 1);
    b.halt();
    scheduleBlock(fn.block(0));
    EXPECT_EQ(fn.block(0).terminator().op, Opcode::HALT);
    EXPECT_EQ(fn.block(0).insts.size(), 4u);
}

TEST(Scheduler, HoistsLoadAboveIndependentAlu)
{
    // [alu chain][load][use-of-load]: the load (long latency feeding
    // a consumer) should move ahead of the short alu ops.
    Function fn("l");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId a1 = b.movi(0, 1);
    InstId a2 = b.addi(0, 0, 1);
    InstId ld = b.load(2, 5, 0);
    InstId use = b.addi(3, 2, 1);
    b.halt();
    (void)a1;
    scheduleBlock(fn.block(0));
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, ld), positionOf(bb, a2));
    EXPECT_LT(positionOf(bb, ld), positionOf(bb, use));
}

TEST(Scheduler, RespectsRawDependence)
{
    Function fn("raw");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId def = b.movi(0, 7);
    InstId use = b.addi(1, 0, 1);
    b.halt();
    scheduleBlock(fn.block(0));
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, def), positionOf(bb, use));
}

TEST(Scheduler, RespectsWarAndWaw)
{
    Function fn("waw");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId read = b.addi(1, 0, 1);  // reads r0
    InstId write = b.movi(0, 9);    // WAR with read
    InstId write2 = b.movi(0, 11);  // WAW with write
    b.halt();
    scheduleBlock(fn.block(0));
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, read), positionOf(bb, write));
    EXPECT_LT(positionOf(bb, write), positionOf(bb, write2));
}

TEST(Scheduler, LoadsReorderButNotPastStores)
{
    Function fn("mem");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId ld1 = b.load(1, 0, 0);
    InstId st = b.store(0, 8, 1);
    InstId ld2 = b.load(2, 0, 16);
    b.halt();
    scheduleBlock(fn.block(0));
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, ld1), positionOf(bb, st));
    EXPECT_LT(positionOf(bb, st), positionOf(bb, ld2));
}

TEST(Scheduler, StoresNeverReorder)
{
    Function fn("st");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 64);
    b.movi(1, 1);
    InstId s1 = b.store(0, 0, 1);
    InstId s2 = b.store(0, 0, 0);
    b.halt();
    scheduleBlock(fn.block(0));
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, s1), positionOf(bb, s2));
}

TEST(Scheduler, IndependentLoadsMayReorder)
{
    // A load feeding a long chain should beat an unused load.
    Function fn("ll");
    IRBuilder b(fn);
    b.startBlock("entry");
    InstId cheap = b.load(1, 0, 0);
    InstId expensive = b.load(2, 0, 64);
    b.op2(Opcode::MUL, 3, 2, 2);
    b.op2(Opcode::MUL, 3, 3, 3);
    b.halt();
    scheduleBlock(fn.block(0));
    const BasicBlock &bb = fn.block(0);
    EXPECT_LT(positionOf(bb, expensive), positionOf(bb, cheap));
}

TEST(Scheduler, TinyBlocksUntouched)
{
    Function fn("tiny");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 1);
    b.halt();
    EXPECT_FALSE(scheduleBlock(fn.block(0)));
}

TEST(Scheduler, FunctionLevelCountsChangedBlocks)
{
    Function fn("fl");
    IRBuilder b(fn);
    b.startBlock("entry");
    b.movi(0, 1);
    b.addi(1, 0, 1);  // dependent: no reorder possible
    InstId ld = b.load(2, 5, 0);
    (void)ld;
    b.halt();
    unsigned changed = scheduleFunction(fn);
    EXPECT_EQ(changed, 1u); // the load moves up
    EXPECT_EQ(fn.verify(), "");
}

TEST(Scheduler, RandomBlocksPreserveSemantics)
{
    // Property: scheduling any random straight-line block preserves
    // final register state and memory.
    Rng rng(123);
    for (int trial = 0; trial < 50; ++trial) {
        Function fn("rnd");
        IRBuilder b(fn);
        b.startBlock("entry");
        b.movi(0, 256); // base pointer
        for (int i = 0; i < 24; ++i) {
            RegId dst = static_cast<RegId>(1 + rng.below(8));
            RegId s1 = static_cast<RegId>(1 + rng.below(8));
            RegId s2 = static_cast<RegId>(1 + rng.below(8));
            switch (rng.below(6)) {
              case 0:
                b.add(dst, s1, s2);
                break;
              case 1:
                b.mul(dst, s1, s2);
                break;
              case 2:
                b.movi(dst, static_cast<int64_t>(rng.below(100)));
                break;
              case 3:
                b.load(dst, 0, static_cast<int64_t>(rng.below(16)) * 8);
                break;
              case 4:
                b.store(0, static_cast<int64_t>(rng.below(16)) * 8,
                        s1);
                break;
              default:
                b.xorOp(dst, s1, s2);
                break;
            }
        }
        b.halt();

        Function scheduled = fn;
        scheduleFunction(scheduled);
        ASSERT_EQ(scheduled.verify(), "");

        Memory ma(1024), mb(1024);
        Interpreter ia(fn, ma), ib(scheduled, mb);
        ia.run();
        ib.run();
        for (unsigned r = 0; r < 16; ++r)
            ASSERT_EQ(ia.reg(static_cast<RegId>(r)),
                      ib.reg(static_cast<RegId>(r)))
                << "trial " << trial << " r" << r;
        ASSERT_TRUE(ma == mb) << "trial " << trial;
    }
}

} // namespace
} // namespace vanguard
