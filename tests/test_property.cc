/**
 * @file
 * Property-based tests: randomly generated programs pushed through
 * the full compilation pipeline (superblock speculation, decomposed
 * branch transformation, scheduling, layout) must preserve
 * architectural semantics under adversarial branch predictions.
 *
 * This is the library's strongest correctness oracle: each trial
 * compares final architectural registers, the full memory image, and
 * the committed store stream between the original and transformed
 * programs, with the PREDICT oracle swept over always-taken,
 * always-not-taken, and pseudo-random policies.
 */

#include <gtest/gtest.h>

#include "bpred/factory.hh"
#include "compiler/decompose.hh"
#include "compiler/layout.hh"
#include "compiler/scheduler.hh"
#include "compiler/superblock.hh"
#include "exec/interpreter.hh"
#include "ir/builder.hh"
#include "profile/profiler.hh"
#include "support/rng.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

constexpr size_t kMemBytes = 1 << 14;

/**
 * Generate a random fault-free program: a loop over a chain of
 * hammocks with random block contents. All memory accesses are
 * masked into bounds; DIV divisors are forced nonzero.
 */
Function
randomProgram(Rng &rng)
{
    Function fn("rand");
    IRBuilder b(fn);
    unsigned hammocks = 1 + static_cast<unsigned>(rng.below(4));
    uint64_t iters = 40 + rng.below(120);

    b.startBlock("entry");
    std::vector<BlockId> as(hammocks), ts(hammocks), fs(hammocks);
    for (unsigned h = 0; h < hammocks; ++h) {
        as[h] = fn.addBlock();
        ts[h] = fn.addBlock();
        fs[h] = fn.addBlock();
    }
    BlockId latch = fn.addBlock("latch");
    BlockId exit = fn.addBlock("exit");

    // r0 = i, r1 = N, r2..r9 live data regs, r10 = base mask helper.
    b.movi(0, 0);
    b.movi(1, static_cast<int64_t>(iters));
    for (RegId r = 2; r <= 9; ++r)
        b.movi(r, static_cast<int64_t>(rng.below(64)));
    b.jmp(as[0]);

    auto random_body = [&](unsigned depth) {
        for (unsigned k = 0; k < depth; ++k) {
            RegId dst = static_cast<RegId>(2 + rng.below(8));
            RegId s1 = static_cast<RegId>(2 + rng.below(8));
            RegId s2 = static_cast<RegId>(2 + rng.below(8));
            switch (rng.below(8)) {
              case 0:
                b.add(dst, s1, s2);
                break;
              case 1:
                b.sub(dst, s1, s2);
                break;
              case 2:
                b.mul(dst, s1, s2);
                break;
              case 3:
                b.xorOp(dst, s1, s2);
                break;
              case 4: { // bounded load
                b.andi(10, s1, kMemBytes - 16);
                b.load(dst, 10, static_cast<int64_t>(rng.below(2)) * 8);
                break;
              }
              case 5: { // bounded store
                b.andi(10, s1, kMemBytes - 16);
                b.store(10, static_cast<int64_t>(rng.below(2)) * 8, s2);
                break;
              }
              case 6:
                b.select(dst, s1, s2,
                         static_cast<RegId>(2 + rng.below(8)));
                break;
              default:
                b.op2i(Opcode::SHR, dst, s1,
                       static_cast<int64_t>(rng.below(8)));
                break;
            }
        }
    };

    for (unsigned h = 0; h < hammocks; ++h) {
        b.setInsertPoint(as[h]);
        random_body(1 + static_cast<unsigned>(rng.below(5)));
        // Condition: random mix of data and induction variable.
        RegId src = static_cast<RegId>(2 + rng.below(8));
        switch (rng.below(3)) {
          case 0:
            b.andi(11, 0, 1 + rng.below(7));
            break;
          case 1:
            b.andi(11, src, 1 + rng.below(7));
            break;
          default:
            b.add(11, src, 0);
            b.andi(11, 11, 3);
            break;
        }
        b.cmpi(Opcode::CMPNE, 12, 11, 0);
        b.br(12, ts[h], fs[h]);

        BlockId join = h + 1 < hammocks ? as[h + 1] : latch;
        b.setInsertPoint(ts[h]);
        random_body(static_cast<unsigned>(rng.below(7)));
        b.jmp(join);
        b.setInsertPoint(fs[h]);
        random_body(static_cast<unsigned>(rng.below(7)));
        b.jmp(join);
    }

    b.setInsertPoint(latch);
    b.addi(0, 0, 1);
    b.cmp(Opcode::CMPLT, 13, 0, 1);
    b.br(13, as[0], exit);
    b.setInsertPoint(exit);
    // Publish live regs so they are observable.
    for (RegId r = 2; r <= 9; ++r)
        b.store(0, 256 + r * 8, r);
    b.halt();

    EXPECT_EQ(fn.verify(), "");
    return fn;
}

Memory
randomMemory(Rng &rng)
{
    Memory mem(kMemBytes);
    for (uint64_t a = 0; a + 8 <= kMemBytes; a += 8)
        mem.write64(a, static_cast<int64_t>(rng.below(1024)));
    return mem;
}

struct GoldenResult
{
    int64_t regs[kNumArchRegs];
    std::vector<std::pair<uint64_t, int64_t>> stores;
    std::vector<uint8_t> mem;
};

GoldenResult
runGolden(const Function &fn, const Memory &init)
{
    Memory mem = init;
    Interpreter interp(fn, mem);
    interp.recordStores(true);
    RunResult r = interp.run(3'000'000);
    EXPECT_EQ(r.status, RunStatus::Halted);
    GoldenResult out;
    for (unsigned i = 0; i < kNumArchRegs; ++i)
        out.regs[i] = interp.reg(static_cast<RegId>(i));
    out.stores = interp.storeLog();
    out.mem = mem.raw();
    return out;
}

void
expectMatches(const Function &fn, const Memory &init,
              const GoldenResult &golden,
              Interpreter::PredictOracle oracle, const char *what)
{
    Memory mem = init;
    Interpreter interp(fn, mem);
    interp.recordStores(true);
    interp.setPredictOracle(std::move(oracle));
    RunResult r = interp.run(3'000'000);
    ASSERT_EQ(r.status, RunStatus::Halted) << what;
    for (unsigned i = 0; i < kNumArchRegs; ++i)
        ASSERT_EQ(golden.regs[i], interp.reg(static_cast<RegId>(i)))
            << what << " r" << i;
    ASSERT_EQ(golden.stores, interp.storeLog()) << what;
    ASSERT_TRUE(mem.raw() == golden.mem) << what;
}

class PipelineProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PipelineProperty, FullPipelinePreservesSemantics)
{
    Rng rng(GetParam());
    Function fn = randomProgram(rng);
    Memory init = randomMemory(rng);
    GoldenResult golden = runGolden(fn, init);

    // Profile on a copy (profiling consumes the memory image).
    Memory prof_mem = init;
    auto pred = makePredictor("gshare3");
    BranchProfile profile = profileFunction(fn, prof_mem, *pred);

    // Full experimental pipeline with a permissive selection: convert
    // every conditional forward branch we can.
    Function txd = fn;
    hoistAboveBiasedBranches(txd, profile);
    std::vector<InstId> branches;
    for (const auto &[id, bs] : profile.all())
        if (bs.forward)
            branches.push_back(id);
    decomposeBranches(txd, branches);
    scheduleFunction(txd);
    ASSERT_EQ(txd.verify(), "");

    expectMatches(txd, init, golden,
                  [](const Instruction &) { return false; },
                  "predict-all-not-taken");
    expectMatches(txd, init, golden,
                  [](const Instruction &) { return true; },
                  "predict-all-taken");
    Rng orng(GetParam() ^ 0x5555);
    expectMatches(txd, init, golden,
                  [&orng](const Instruction &) {
                      return orng.chance(0.5);
                  },
                  "predict-random");

    // And the laid-out program must agree too (random predictions).
    Program prog = linearize(txd);
    Memory mem = init;
    ProgramExecutor exec(prog, mem);
    exec.recordStores(true);
    Rng prng(GetParam() ^ 0xaaaa);
    exec.setPredictHook(
        [&prng](const LaidInst &) { return prng.chance(0.5); });
    exec.run(3'000'000);
    ASSERT_TRUE(exec.halted());
    ASSERT_FALSE(exec.faulted());
    for (unsigned i = 0; i < kNumArchRegs; ++i)
        ASSERT_EQ(golden.regs[i], exec.reg(static_cast<RegId>(i)))
            << "laid-out r" << i;
    ASSERT_EQ(golden.stores, exec.storeLog());
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, PipelineProperty,
                         ::testing::Range<uint64_t>(1, 41));

TEST(PipelineProperty, SuiteKernelsSurviveAggressiveDecomposition)
{
    // Convert EVERY forward branch of a real suite kernel (not just
    // the profitable ones) and check semantics.
    Rng rng(7);
    for (const char *name : {"h264ref-like", "gcc-like", "wrf-like"}) {
        BenchmarkSpec spec;
        for (const auto &suite :
             {specInt2006(), specFp2006()}) {
            for (const auto &s : suite)
                if (s.name == std::string(name))
                    spec = s;
        }
        spec.iterations = 600;
        BuiltKernel golden_k = buildKernel(spec, 1234);
        GoldenResult golden = runGolden(golden_k.fn, *golden_k.mem);

        BuiltKernel k = buildKernel(spec, 1234);
        Memory prof_mem = *k.mem;
        auto pred = makePredictor("gshare3");
        BranchProfile profile =
            profileFunction(k.fn, prof_mem, *pred);
        std::vector<InstId> branches;
        for (const auto &[id, bs] : profile.all())
            if (bs.forward)
                branches.push_back(id);
        decomposeBranches(k.fn, branches);
        scheduleFunction(k.fn);

        Rng orng(name[0]);
        expectMatches(k.fn, *k.mem, golden,
                      [&orng](const Instruction &) {
                          return orng.chance(0.5);
                      },
                      name);
    }
}

} // namespace
} // namespace vanguard
