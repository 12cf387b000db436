/**
 * @file
 * The fast-path identity contract (PR 5): the pre-decoded fused cycle
 * loop must be bit-identical — every SimStats field, every exported
 * metric — to the retained reference path, for every predictor, every
 * machine width, and any experiment-engine worker count. Every run of
 * the identity matrix also checks timing invariants on both paths.
 * Plus the DecodedProgram round-trip property: decode is a pure
 * re-encoding of the laid-out program, never a transformation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bpred/factory.hh"
#include "core/runner.hh"
#include "core/vanguard.hh"
#include "exec/decoded_program.hh"
#include "exec/memory.hh"
#include "support/metrics.hh"
#include "uarch/pipeline.hh"
#include "workloads/suites.hh"

namespace vanguard {
namespace {

/** Small but real workload: a few hundred thousand dynamic insts. */
BenchmarkSpec
smallSpec(const char *name = "h264ref-like", unsigned iterations = 800)
{
    BenchmarkSpec spec = findBenchmark(name);
    spec.iterations = iterations;
    return spec;
}

SimStats
runOnce(const BenchmarkSpec &spec, const BenchmarkArtifacts &art,
        const CompiledConfig &config, const VanguardOptions &vopts,
        bool force_reference, bool no_threaded = false)
{
    BuiltKernel ref = buildKernel(spec, kRefSeeds[0]);
    auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
    SimOptions sopts;
    sopts.maxInsts = vopts.simMaxInsts;
    sopts.cycleBudget = vopts.simCycleBudget;
    sopts.progressWindow = vopts.simProgressWindow;
    sopts.collectBranchStalls = true;
    sopts.forceReference = force_reference;
    sopts.noThreadedDispatch = no_threaded;
    if (!config.hoistedMask.empty())
        sopts.hoistedMask = &config.hoistedMask;
    (void)art;
    return simulateWithDecoded(config.prog, *config.decoded, *ref.mem,
                               *pred, vopts.machine(), sopts);
}

/** Every exported metric must match: path, value, and aggregation. */
void
expectSnapshotsIdentical(const SimStats &fast, const SimStats &ref,
                         const std::string &what)
{
    MetricSnapshot fs = simStatsSnapshot(fast);
    MetricSnapshot rs = simStatsSnapshot(ref);
    ASSERT_EQ(fs.entries.size(), rs.entries.size()) << what;
    for (size_t i = 0; i < fs.entries.size(); ++i) {
        EXPECT_EQ(fs.entries[i].path, rs.entries[i].path) << what;
        EXPECT_EQ(fs.entries[i].value, rs.entries[i].value)
            << what << ": metric " << fs.entries[i].path;
        EXPECT_EQ(static_cast<int>(fs.entries[i].agg),
                  static_cast<int>(rs.entries[i].agg))
            << what << ": metric " << fs.entries[i].path;
    }
}

/**
 * Cycle-accounting invariants every completed run must satisfy: a
 * width-W machine commits at most W instructions a cycle, and the DBB
 * never holds more entries than it has. (`issued >= dynamicInsts` is
 * not one: JMP, PREDICT, HALT and folded commit MOVs retire without
 * taking an issue slot.)
 */
void
expectTimingInvariants(const SimStats &s, const VanguardOptions &vopts,
                       const std::string &what)
{
    MachineConfig mc = vopts.machine();
    EXPECT_GE(s.cycles * mc.width, s.dynamicInsts) << what;
    EXPECT_LE(s.dbbMaxOccupancy, mc.dbbEntries) << what;
}

void
expectBitIdentical(const BenchmarkSpec &spec, const VanguardOptions &vopts,
                   const std::string &what)
{
    BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
    for (const CompiledConfig *config : {&art.base, &art.exp}) {
        SimStats fast = runOnce(spec, art, *config, vopts, false);
        SimStats ref = runOnce(spec, art, *config, vopts, true);
        std::string tag =
            what + (config->decomposed ? " [exp]" : " [base]");
        // The scalar core first (clearer failure messages)...
        EXPECT_EQ(fast.cycles, ref.cycles) << tag;
        EXPECT_EQ(fast.dynamicInsts, ref.dynamicInsts) << tag;
        EXPECT_EQ(fast.brMispredicts, ref.brMispredicts) << tag;
        EXPECT_EQ(fast.branchStallCycles, ref.branchStallCycles) << tag;
        // ...then the full export, which covers every counter
        // including the per-predictor bpred.* set.
        expectSnapshotsIdentical(fast, ref, tag);
        // Per-branch stall attribution is not part of the snapshot.
        EXPECT_TRUE(fast.branchStalls == ref.branchStalls) << tag;
        expectTimingInvariants(fast, vopts, tag + " fast");
        expectTimingInvariants(ref, vopts, tag + " reference");
    }
}

TEST(FastPath, BitIdenticalAcrossPredictors)
{
    BenchmarkSpec spec = smallSpec();
    // Every factory predictor, including the sealed-dispatch fast
    // cases (bimodal/gshare/gshare3/tage) and the virtual-dispatch
    // fallbacks (local/perceptron/isltage/ideal).
    for (const char *pred :
         {"bimodal", "local", "gshare", "gshare3", "gshare3-big",
          "perceptron", "tage", "isltage", "ideal:0.9"}) {
        VanguardOptions vopts;
        vopts.predictor = pred;
        expectBitIdentical(spec, vopts, std::string("predictor ") + pred);
    }
}

TEST(FastPath, BitIdenticalAcrossWidths)
{
    for (unsigned width : {2u, 4u, 8u}) {
        for (const char *pred : {"gshare3", "tage"}) {
            VanguardOptions vopts;
            vopts.width = width;
            vopts.predictor = pred;
            expectBitIdentical(smallSpec("mcf-like", 600), vopts,
                               "width " + std::to_string(width) + " " +
                                   pred);
        }
    }
}

/**
 * The computed-goto and portable-switch dispatchers run the same loop
 * body, so choosing between them must select machine code only, never
 * behavior. Skips (trivially passes) in builds without the threaded
 * dispatcher, where the flag is a documented no-op.
 */
TEST(FastPath, ThreadedAndSwitchDispatchersBitIdentical)
{
    if (!threadedDispatchAvailable())
        GTEST_SKIP() << "portable build: no threaded dispatcher";
    BenchmarkSpec spec = smallSpec("mcf-like", 500);
    for (const char *pred : {"gshare3", "tage"}) {
        VanguardOptions vopts;
        vopts.predictor = pred;
        BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
        for (const CompiledConfig *config : {&art.base, &art.exp}) {
            std::string tag = std::string("dispatcher ") + pred +
                (config->decomposed ? " [exp]" : " [base]");
            SimStats threaded =
                runOnce(spec, art, *config, vopts, false, false);
            SimStats sw =
                runOnce(spec, art, *config, vopts, false, true);
            EXPECT_EQ(threaded.cycles, sw.cycles) << tag;
            expectSnapshotsIdentical(threaded, sw, tag);
            EXPECT_TRUE(threaded.branchStalls == sw.branchStalls) << tag;
        }
    }
}

TEST(FastPath, ForceReferenceEnvIsHonored)
{
    // The kill switch must not change results either — it selects the
    // path, not the behavior.
    BenchmarkSpec spec = smallSpec("bzip2-like", 500);
    VanguardOptions vopts;
    BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
    SimStats fast = runOnce(spec, art, art.exp, vopts, false);
    ASSERT_EQ(setenv("VANGUARD_FORCE_REFERENCE", "1", 1), 0);
    SimStats forced = runOnce(spec, art, art.exp, vopts, false);
    unsetenv("VANGUARD_FORCE_REFERENCE");
    expectSnapshotsIdentical(fast, forced, "env kill switch");
    EXPECT_TRUE(fast.branchStalls == forced.branchStalls);

    // One more input: an empty data memory, so the first load faults.
    // Both paths must raise the same structured Fault.
    for (bool force : {false, true}) {
        if (force) {
            ASSERT_EQ(setenv("VANGUARD_FORCE_REFERENCE", "1", 1), 0);
        }
        Memory empty(0);
        auto pred = makePredictor(vopts.predictor, kRefSeeds[0]);
        SimOptions sopts;
        sopts.maxInsts = vopts.simMaxInsts;
        try {
            simulateWithDecoded(art.exp.prog, *art.exp.decoded, empty,
                                *pred, vopts.machine(), sopts);
            ADD_FAILURE() << "out-of-bounds load did not fault"
                          << (force ? " (reference)" : " (fast)");
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Fault);
            EXPECT_NE(std::string(e.what()).find("faulted"),
                      std::string::npos)
                << e.what();
        }
        if (force)
            unsetenv("VANGUARD_FORCE_REFERENCE");
    }
}

/**
 * Whole-sweep identity across worker counts and execution paths: the
 * metrics-registry dump (which asserts per-scope snapshot
 * bit-identity internally) must come out byte-identical for jobs=1,
 * jobs=8, and the forced-reference flavors of both.
 */
TEST(FastPath, SweepDumpIdenticalAcrossJobsAndPaths)
{
    BenchmarkSpec spec = smallSpec("mcf-like", 400);
    VanguardOptions vopts;

    std::vector<std::string> dumps;
    for (bool force : {false, true}) {
        if (force) {
            ASSERT_EQ(setenv("VANGUARD_FORCE_REFERENCE", "1", 1), 0);
        }
        for (unsigned jobs : {1u, 8u}) {
            RunnerOptions ropts;
            ropts.jobs = jobs;
            MetricsRegistry registry;
            ropts.metrics = &registry;
            SuiteReport report =
                runSuiteWidthsReport({spec}, {2u, 4u}, vopts, ropts);
            ASSERT_TRUE(report.failures.empty());
            dumps.push_back(registry.toJson());
        }
        if (force)
            unsetenv("VANGUARD_FORCE_REFERENCE");
    }
    for (size_t i = 1; i < dumps.size(); ++i)
        EXPECT_EQ(dumps[0], dumps[i]) << "dump " << i;
}

/**
 * DecodedProgram round-trip: every field of every DecodedInst is a
 * pure re-encoding of the LaidInst it came from. Runs over both
 * compiled configs of several workloads so PREDICT/RESOLVE/BR/JMP,
 * loads/stores, and immediate forms are all covered.
 */
TEST(DecodedProgram, RoundTripsTheLaidOutProgram)
{
    for (const char *wl : {"h264ref-like", "mcf-like", "xalancbmk-like"}) {
        BenchmarkSpec spec = smallSpec(wl, 100);
        VanguardOptions vopts;
        BenchmarkArtifacts art = prepareBenchmark(spec, vopts);
        for (const CompiledConfig *config : {&art.base, &art.exp}) {
            const Program &prog = config->prog;
            ASSERT_NE(config->decoded, nullptr);
            const DecodedProgram &dec = *config->decoded;
            const unsigned line = dec.lineBytes();
            ASSERT_EQ(dec.size(), prog.size());

            InstId max_key = kNoInst;
            for (size_t i = 0; i < prog.size(); ++i) {
                const LaidInst &li = prog.at(i);
                const DecodedInst &d = dec.insts()[i];
                SCOPED_TRACE(std::string(wl) + " inst " +
                             std::to_string(i));

                EXPECT_EQ(d.pc, li.pc);
                EXPECT_EQ(d.op, li.inst.op);
                EXPECT_EQ(d.id, li.inst.id);
                EXPECT_EQ(d.dst, li.inst.dst);
                EXPECT_EQ(d.src1, li.inst.src1);
                EXPECT_EQ(d.src2, li.inst.src2);
                EXPECT_EQ(d.src3, li.inst.src3);
                EXPECT_EQ(d.imm, li.inst.imm);
                EXPECT_EQ(d.lineTag, li.pc & ~uint64_t{line - 1});
                EXPECT_EQ(static_cast<FuClass>(d.fu),
                          li.inst.fuClass());
                EXPECT_EQ(d.latency, li.inst.latency());

                EXPECT_EQ(d.writesDst(), li.inst.writesDst());
                EXPECT_EQ(d.isLoad(), li.inst.isLoad());
                EXPECT_EQ(d.isStore(), li.inst.isStore());
                EXPECT_EQ(d.hasImmSrc2(), li.inst.hasImmSrc2());
                EXPECT_EQ(d.resolvePathTaken(),
                          li.inst.op == Opcode::RESOLVE &&
                              li.inst.resolvePathTaken);

                if (li.takenPc != 0) {
                    EXPECT_EQ(d.takenPc, li.takenPc);
                    EXPECT_EQ(d.takenIdx, prog.indexOf(li.takenPc));
                }

                InstId key = kNoInst;
                if (li.inst.op == Opcode::BR)
                    key = li.inst.id;
                else if (li.inst.op == Opcode::RESOLVE)
                    key = li.inst.origBranch;
                EXPECT_EQ(d.stallKey, key);
                if (key != kNoInst &&
                    (max_key == kNoInst || key > max_key))
                    max_key = key;
            }
            EXPECT_EQ(dec.maxStallKey(), max_key);
        }
    }
}

} // namespace
} // namespace vanguard
