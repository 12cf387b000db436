/**
 * @file
 * tier2_perf: the simulator-performance regression gate. Re-measures a
 * short slice of the self-benchmark matrix and compares against the
 * committed BENCH_PR6.json trajectory; skipped (not failed) when no
 * baseline is committed.
 *
 * What is compared, and why:
 *  - Primary (always on): the fast-path speedup over the in-build
 *    reference path. Both paths run on this machine back to back, so
 *    the ratio cancels host speed and is meaningful on any hardware —
 *    a fast-path regression shows up as the ratio collapsing toward 1.
 *  - Dispatcher (v2 baselines, threaded builds only): the computed-goto
 *    dispatcher's gain over the portable switch — same
 *    ratio-cancels-host reasoning. Guards against the threaded path
 *    silently degenerating (e.g. a compiler change re-merging the
 *    per-opcode indirect jumps).
 *  - Absolute (opt-in via VANGUARD_PERF_ABSOLUTE=1): geomean simulated
 *    instructions per second against the committed numbers. Only
 *    comparable on hardware like the one that produced the baseline,
 *    so it stays off in CI by default.
 * All gates allow a 20% regression margin, and each measurement gets
 * up to three attempts (best result wins) because short wall-clock
 * runs on a shared machine are noisy. The PerfBaseline tests check,
 * without timing anything, that committed baselines of every schema
 * version still load with the fields these gates read.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/selfbench.hh"
#include "uarch/pipeline.hh"

#ifndef VANGUARD_BENCH_BASELINE
#define VANGUARD_BENCH_BASELINE "BENCH_PR6.json"
#endif
#ifndef VANGUARD_BENCH_V1_BASELINE
#define VANGUARD_BENCH_V1_BASELINE "BENCH_PR5.json"
#endif

namespace vanguard {
namespace {

constexpr double kAllowedRegression = 0.20;
constexpr int kAttempts = 3;

/** The short measurement slice every gate uses: one INT workload per
 *  character (branchy vs memory-bound), default width/predictor. */
SelfBenchOptions
sliceOptions()
{
    SelfBenchOptions opts;
    opts.repeats = 3;
    opts.iterations = 3000;
    opts.matrix = {{"bzip2-like", 4, "gshare3"},
                   {"mcf-like", 4, "gshare3"}};
    return opts;
}

TEST(PerfRegression, FastPathHoldsTheCommittedTrajectory)
{
    SelfBenchBaseline base = loadSelfBenchBaseline(VANGUARD_BENCH_BASELINE);
    if (!base.ok)
        GTEST_SKIP() << "no committed baseline: " << base.error;
    ASSERT_GT(base.geomeanSpeedup, 0.0);
    ASSERT_GT(base.geomeanFastIps, 0.0);

    SelfBenchOptions opts = sliceOptions();

    const bool absolute =
        std::getenv("VANGUARD_PERF_ABSOLUTE") != nullptr;
    const double need_speedup =
        base.geomeanSpeedup * (1.0 - kAllowedRegression);
    const double need_ips =
        base.geomeanFastIps * (1.0 - kAllowedRegression);

    double best_speedup = 0.0;
    double best_ips = 0.0;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        SelfBenchReport report = runSelfBench(opts);
        best_speedup = std::max(best_speedup, report.geomeanSpeedup());
        best_ips = std::max(best_ips, report.geomeanFastIps());
        if (best_speedup >= need_speedup &&
            (!absolute || best_ips >= need_ips))
            break;
    }

    EXPECT_GE(best_speedup, need_speedup)
        << "fast-path speedup over the reference path collapsed: "
        << "measured " << best_speedup << "x, committed "
        << base.geomeanSpeedup << "x (gate at " << need_speedup
        << "x) — see BENCH_PR5.json";
    if (absolute) {
        EXPECT_GE(best_ips, need_ips)
            << "absolute simulated-IPS regressed: measured "
            << best_ips / 1e6 << " M-insts/s, committed "
            << base.geomeanFastIps / 1e6 << " M-insts/s";
    }
}

TEST(PerfRegression, ThreadedDispatcherHoldsItsGainOverSwitch)
{
    if (!threadedDispatchAvailable())
        GTEST_SKIP() << "portable build: no threaded dispatcher";
    SelfBenchBaseline base = loadSelfBenchBaseline(VANGUARD_BENCH_BASELINE);
    if (!base.ok)
        GTEST_SKIP() << "no committed baseline: " << base.error;
    if (base.geomeanThreadedIps <= 0.0 || base.geomeanSwitchIps <= 0.0)
        GTEST_SKIP() << "baseline predates the v2 dispatcher streams";

    const double committed_ratio =
        base.geomeanThreadedIps / base.geomeanSwitchIps;
    const double need = committed_ratio * (1.0 - kAllowedRegression);

    SelfBenchOptions opts = sliceOptions();
    opts.timeReference = false;

    double best = 0.0;
    for (int attempt = 0; attempt < kAttempts; ++attempt) {
        SelfBenchReport report = runSelfBench(opts);
        best = std::max(best, report.geomeanThreadedSpeedup());
        if (best >= need)
            break;
    }
    EXPECT_GE(best, need)
        << "threaded dispatcher lost its edge over the switch: "
        << "measured " << best << "x, committed " << committed_ratio
        << "x — did the computed-goto jumps get re-merged?";
}

TEST(PerfBaseline, CommittedBaselinesOfEveryVersionLoad)
{
    // v1: the fast/ref gate's fields only; the dispatcher streams read
    // 0, so the threaded/switch gate skips.
    SelfBenchBaseline v1 = loadSelfBenchBaseline(VANGUARD_BENCH_V1_BASELINE);
    ASSERT_TRUE(v1.ok) << v1.error;
    EXPECT_EQ(v1.version, 1u);
    EXPECT_GT(v1.geomeanFastIps, 0.0);
    EXPECT_GT(v1.geomeanSpeedup, 0.0);
    EXPECT_EQ(v1.geomeanSwitchIps, 0.0);
    EXPECT_EQ(v1.geomeanThreadedIps, 0.0);

    // v2: both gates' fields; its batched stream is ignored.
    SelfBenchBaseline v2 = loadSelfBenchBaseline(VANGUARD_BENCH_BASELINE);
    ASSERT_TRUE(v2.ok) << v2.error;
    EXPECT_EQ(v2.version, 2u);
    EXPECT_GT(v2.geomeanFastIps, 0.0);
    EXPECT_GT(v2.geomeanSpeedup, 0.0);
    EXPECT_GT(v2.geomeanSwitchIps, 0.0);
    EXPECT_GT(v2.geomeanThreadedIps, 0.0);
}

TEST(PerfBaseline, V3ReportRoundTripsWithHostFingerprint)
{
    SelfBenchReport report;
    report.host = selfBenchHost();
    report.repeats = 1;
    report.iterations = 100;
    SelfBenchCell cell;
    cell.spec = {"bzip2-like", 4, "gshare3"};
    cell.dynamicInsts = 1'000'000;
    cell.cycles = 2'000'000;
    cell.switchSec = 0.04;
    cell.threadedSec = 0.03;
    cell.fastSec = 0.03;
    cell.refSec = 0.06;
    report.cells.push_back(cell);

    EXPECT_FALSE(report.host.cpu.empty());
    EXPECT_GT(report.host.nproc, 0u);
    EXPECT_FALSE(report.host.compiler.empty());
    EXPECT_FALSE(report.host.buildType.empty());

    std::string json = selfBenchToJson(report);
    EXPECT_EQ(json.find("batched"), std::string::npos);
    const SelfBenchHost &h = report.host;
    EXPECT_NE(json.find("\"host\": {\"cpu\": \"" + h.cpu +
                        "\", \"nproc\": " + std::to_string(h.nproc) +
                        ", \"compiler\": \"" + h.compiler +
                        "\", \"build_type\": \"" + h.buildType + "\"}"),
              std::string::npos)
        << json;
    std::string path = ::testing::TempDir() + "selfbench-v3.json";
    std::ofstream(path) << json << "\n";

    SelfBenchBaseline back = loadSelfBenchBaseline(path);
    ASSERT_TRUE(back.ok) << back.error;
    EXPECT_EQ(back.version, kSelfBenchVersion);
    EXPECT_NEAR(back.geomeanFastIps, report.geomeanFastIps(),
                report.geomeanFastIps() * 1e-5);
    EXPECT_NEAR(back.geomeanSpeedup, report.geomeanSpeedup(), 1e-5);
    EXPECT_NEAR(back.geomeanSwitchIps, report.geomeanSwitchIps(),
                report.geomeanSwitchIps() * 1e-5);
    EXPECT_NEAR(back.geomeanThreadedIps, report.geomeanThreadedIps(),
                report.geomeanThreadedIps() * 1e-5);
}

} // namespace
} // namespace vanguard
