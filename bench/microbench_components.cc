/**
 * @file
 * google-benchmark microbenchmarks of the library's hot components:
 * predictor lookup/update throughput, cache accesses, the functional
 * interpreter, the timing simulator, and the compiler passes. These
 * are engineering benchmarks (simulator performance), not paper
 * exhibits — they bound how much SPEC-scale simulation a full run
 * can afford.
 */

#include <benchmark/benchmark.h>

#include "bpred/factory.hh"
#include "support/rng.hh"
#include "compiler/decompose.hh"
#include "compiler/layout.hh"
#include "compiler/scheduler.hh"
#include "compiler/select.hh"
#include "core/vanguard.hh"
#include "exec/interpreter.hh"
#include "profile/profiler.hh"
#include "uarch/cache.hh"
#include "uarch/pipeline.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

void
BM_PredictorLookup(benchmark::State &state,
                   const std::string &name)
{
    auto pred = makePredictor(name);
    Rng rng(1);
    uint64_t pc = 0x4000;
    for (auto _ : state) {
        PredMeta meta;
        bool taken = rng.chance(0.6);
        bool p = pred->predict(pc, meta);
        benchmark::DoNotOptimize(p);
        pred->updateHistory(taken);
        pred->update(pc, taken, meta);
        pc = 0x4000 + ((pc * 29) & 0xfff);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PredictorLookup, gshare3, std::string("gshare3"));
BENCHMARK_CAPTURE(BM_PredictorLookup, tage, std::string("tage"));
BENCHMARK_CAPTURE(BM_PredictorLookup, isltage,
                  std::string("isltage"));

void
BM_CacheHierarchyAccess(benchmark::State &state)
{
    MachineConfig cfg;
    MemoryHierarchy hier(cfg);
    Rng rng(2);
    for (auto _ : state) {
        MemAccessResult r =
            hier.dataAccess(rng.below(8u << 20));
        benchmark::DoNotOptimize(r.latency);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyAccess);

void
BM_FunctionalInterpreter(benchmark::State &state)
{
    BenchmarkSpec spec = findBenchmark("perlbench-like");
    spec.iterations = 1000;
    int64_t insts = 0;
    for (auto _ : state) {
        BuiltKernel k = buildKernel(spec, kTrainSeed);
        Interpreter interp(k.fn, *k.mem);
        RunResult r = interp.run();
        benchmark::DoNotOptimize(r.dynamicInsts);
        insts += static_cast<int64_t>(r.dynamicInsts);
    }
    state.SetItemsProcessed(insts);
}
BENCHMARK(BM_FunctionalInterpreter)->Unit(benchmark::kMillisecond);

void
BM_TimingSimulator(benchmark::State &state)
{
    BenchmarkSpec spec = findBenchmark("perlbench-like");
    spec.iterations = 1000;
    VanguardOptions opts;
    TrainArtifacts train = trainBenchmark(spec, opts);
    CompiledConfig exp = compileConfig(spec, train, true, opts);
    int64_t insts = 0;
    for (auto _ : state) {
        SimStats s = simulateConfig(spec, exp, opts, kRefSeeds[0]);
        benchmark::DoNotOptimize(s.cycles);
        insts += static_cast<int64_t>(s.dynamicInsts);
    }
    state.SetItemsProcessed(insts);
}
BENCHMARK(BM_TimingSimulator)->Unit(benchmark::kMillisecond);

void
BM_ProfilePass(benchmark::State &state)
{
    BenchmarkSpec spec = findBenchmark("gcc-like");
    spec.iterations = 1000;
    for (auto _ : state) {
        BuiltKernel k = buildKernel(spec, kTrainSeed);
        auto pred = makePredictor("gshare3");
        BranchProfile prof =
            profileFunction(k.fn, *k.mem, *pred);
        benchmark::DoNotOptimize(prof.totalDynamicInsts);
    }
}
BENCHMARK(BM_ProfilePass)->Unit(benchmark::kMillisecond);

void
BM_DecomposeTransform(benchmark::State &state)
{
    BenchmarkSpec spec = findBenchmark("h264ref-like");
    spec.iterations = 400;
    VanguardOptions opts;
    TrainArtifacts train = trainBenchmark(spec, opts);
    for (auto _ : state) {
        BuiltKernel k = buildKernel(spec, kTrainSeed);
        DecomposeStats stats =
            decomposeBranches(k.fn, train.selected);
        benchmark::DoNotOptimize(stats.converted);
    }
}
BENCHMARK(BM_DecomposeTransform);

void
BM_ListScheduler(benchmark::State &state)
{
    BenchmarkSpec spec = findBenchmark("zeusmp-like");
    spec.iterations = 400;
    for (auto _ : state) {
        BuiltKernel k = buildKernel(spec, kTrainSeed);
        unsigned changed = scheduleFunction(k.fn);
        benchmark::DoNotOptimize(changed);
    }
}
BENCHMARK(BM_ListScheduler);

void
BM_Linearize(benchmark::State &state)
{
    BenchmarkSpec spec = findBenchmark("gcc-like");
    spec.iterations = 400;
    BuiltKernel k = buildKernel(spec, kTrainSeed);
    for (auto _ : state) {
        Program prog = linearize(k.fn);
        benchmark::DoNotOptimize(prog.size());
    }
}
BENCHMARK(BM_Linearize);

} // namespace
} // namespace vanguard

BENCHMARK_MAIN();
