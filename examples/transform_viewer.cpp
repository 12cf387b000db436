/**
 * @file
 * Transform viewer: watch the compiler pipeline reshape a small
 * kernel, pass by pass — TRAIN profile, biased-branch speculation,
 * the Decomposed Branch Transformation, list scheduling, and layout —
 * with the IR printed at each stage.
 *
 * Run:  ./transform_viewer [benchmark-name]   (default: a tiny
 * 2-hammock kernel)
 */

#include <cstdio>

#include "bpred/factory.hh"
#include "compiler/decompose.hh"
#include "compiler/layout.hh"
#include "compiler/scheduler.hh"
#include "compiler/select.hh"
#include "compiler/superblock.hh"
#include "profile/profiler.hh"
#include "workloads/suites.hh"

using namespace vanguard;

int
main(int argc, char **argv)
{
    BenchmarkSpec spec;
    if (argc > 1) {
        spec = findBenchmark(argv[1]);
    } else {
        spec = findBenchmark("perlbench-like");
        spec.hammocksPU = 1;
        spec.hammocksBP = 1;
        spec.hammocksUP = 0;
        spec.loadsPerSucc = 2;
        spec.aluPerSucc = 1;
        spec.coldBlocks = 0; // keep the printout readable
    }
    spec.iterations = 8000;

    BuiltKernel kernel = buildKernel(spec, kTrainSeed);
    std::printf("=== stage 0: generated kernel (%zu insts) ===\n%s\n",
                kernel.fn.instCount(),
                kernel.fn.toString().c_str());

    // --- TRAIN profile --------------------------------------------------
    Memory train_mem = *kernel.mem;
    auto pred = makePredictor("gshare3");
    BranchProfile profile =
        profileFunction(kernel.fn, train_mem, *pred);
    std::printf("=== stage 1: TRAIN profile ===\n");
    for (const auto *bs : profile.byExecutionCount()) {
        std::printf("  branch #%-4u %s execs %-8llu bias %.3f "
                    "predictability %.3f\n",
                    bs->branch, bs->forward ? "fwd " : "back",
                    static_cast<unsigned long long>(bs->execs),
                    bs->bias(), bs->predictability());
    }

    // --- biased-branch speculation ---------------------------------------
    SuperblockStats sb = hoistAboveBiasedBranches(kernel.fn, profile);
    std::printf("\n=== stage 2: biased-branch speculation: %u "
                "branches, %llu insts hoisted ===\n",
                sb.branchesSpeculated,
                static_cast<unsigned long long>(sb.instsHoisted));

    // --- decomposition ----------------------------------------------------
    std::vector<InstId> selected =
        selectBranches(kernel.fn, profile);
    DecomposeStats ds = decomposeBranches(kernel.fn, selected);
    std::printf("\n=== stage 3: decomposed %u of %zu selected "
                "branches (%llu hoisted, %llu slice, %llu commit "
                "movs) ===\n%s\n",
                ds.converted, selected.size(),
                static_cast<unsigned long long>(ds.hoistedInsts),
                static_cast<unsigned long long>(ds.sliceInsts),
                static_cast<unsigned long long>(ds.commitMovs),
                kernel.fn.toString().c_str());

    // --- scheduling -------------------------------------------------------
    unsigned changed = scheduleFunction(kernel.fn);
    std::printf("=== stage 4: list scheduling reordered %u blocks "
                "===\n\n",
                changed);

    // --- layout -----------------------------------------------------------
    Program prog = linearize(kernel.fn);
    std::printf("=== stage 5: laid-out program (%zu insts, %llu "
                "bytes) ===\n%s",
                prog.size(),
                static_cast<unsigned long long>(prog.codeBytes()),
                prog.toString().c_str());
    return 0;
}
