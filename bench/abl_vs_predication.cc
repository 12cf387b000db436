/**
 * @file
 * Ablation: decomposition vs predication across the Figure-1
 * quadrants. Predication is the classic answer for unbiased
 * UNPREDICTABLE hammocks; decomposition targets unbiased PREDICTABLE
 * ones. This experiment builds two kernel variants — one dominated by
 * each population — and applies each transformation to both:
 *
 *   - on the predictable kernel, decomposition should win
 *     (predication wastes issue slots executing both sides of
 *     branches the predictor already gets right);
 *   - on the unpredictable kernel, predication should win
 *     (decomposition's resolve redirects pile up).
 */

#include "bench_common.hh"

#include "compiler/layout.hh"
#include "compiler/predicate.hh"
#include "compiler/scheduler.hh"
#include "uarch/pipeline.hh"

using namespace vanguard;

namespace {

BenchmarkSpec
quadrantKernel(bool predictable)
{
    BenchmarkSpec spec = findBenchmark("h264ref-like");
    spec.name = predictable ? "predictable-unbiased"
                            : "unpredictable-unbiased";
    spec.iterations = benchIterations();
    // Keep sides small and store-free so predication is applicable.
    spec.storesPerSucc = 0;
    spec.loadsPerSucc = 3;
    spec.chainedSuccLoads = 0;
    spec.aluPerSucc = 7; // moderately fat sides: predication pays
                         // double issue bandwidth for them
    if (predictable) {
        spec.hammocksPU = 5;
        spec.hammocksBP = 0;
        spec.hammocksUP = 0;
        spec.noisePU = 0.04;
    } else {
        spec.hammocksPU = 0;
        spec.hammocksBP = 0;
        spec.hammocksUP = 5;
    }
    return spec;
}

/** Cycles for: baseline / decomposed / predicated variants. */
struct QuadrantResult
{
    uint64_t base = 0;
    uint64_t decomposed = 0;
    uint64_t predicated = 0;
};

QuadrantResult
runQuadrant(const BenchmarkSpec &spec)
{
    QuadrantResult out;
    VanguardOptions opts;
    // Convert regardless of profitability heuristics: this ablation
    // asks "what if you use the wrong tool for the quadrant".
    opts.selection.minExposed = -1.0;
    opts.selection.minPredictability = 0.0;

    TrainArtifacts train = trainBenchmark(spec, opts);
    CompiledConfig base = compileConfig(spec, train, false, opts);
    CompiledConfig dec = compileConfig(spec, train, true, opts);
    out.base = simulateConfig(spec, base, opts, kRefSeeds[0]).cycles;
    out.decomposed =
        simulateConfig(spec, dec, opts, kRefSeeds[0]).cycles;

    // Predicated variant: if-convert the same branch set.
    BuiltKernel k = buildKernel(spec, kTrainSeed);
    PredicationOptions popts;
    popts.maxSideInsts = 24;
    ifConvertBranches(k.fn, train.selected, popts);
    scheduleFunction(k.fn);
    CompiledConfig pred;
    pred.prog = linearize(k.fn);
    pred.staticInsts = pred.prog.size();
    out.predicated =
        simulateConfig(spec, pred, opts, kRefSeeds[0]).cycles;
    return out;
}

} // namespace

int
main()
{
    banner("Ablation: decomposition vs predication across Figure-1 "
           "quadrants (4-wide)",
           "predication suits unbiased-unpredictable; decomposition "
           "suits unbiased-predictable");

    TablePrinter table({"kernel", "baseline cycles",
                        "decomposed speedup %",
                        "predicated speedup %"});
    for (bool predictable : {true, false}) {
        BenchmarkSpec spec = quadrantKernel(predictable);
        std::fprintf(stderr, "  %s...\n", spec.name);
        QuadrantResult r = runQuadrant(spec);
        table.addRow(
            {spec.name, TablePrinter::fmtInt(r.base),
             TablePrinter::fmt(
                 speedupPercent(speedupRatio(r.base, r.decomposed)),
                 2),
             TablePrinter::fmt(
                 speedupPercent(speedupRatio(r.base, r.predicated)),
                 2)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
