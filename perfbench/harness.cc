/**
 * @file
 * Sweep benchmark harness: runs one workload of the paper's exhibits
 * (see perfbench/NOTES.md) in this process and prints its metrics.
 *
 *   vgbench --workload W --seed N --seconds S --trace 0|1
 *           --work-dir DIR --pinned FILE [--trace-out FILE]
 *
 * The simulator is driven only through its public entry points
 * (runSuiteWidthsReport, trainBenchmark, compileBenchmark,
 * simulateConfig, profileFunction's predictor protocol via
 * makePredictor, buildKernel, the Interpreter, loadJournalFile). With
 * --trace 0 the end-to-end metrics are measured. With --trace 1 the
 * sweeps run with the engine's own tracer (RunnerOptions::tracer,
 * per-job train/compile/simulate spans), the harness adds spans for
 * the calls the engine does not make itself, and the per-layer
 * metrics are derived from those spans; the trace is written to
 * --trace-out at exit as Chrome trace-event JSON. Every run checks its
 * own outputs: a mismatch prints "correct": false with no metrics and
 * exits 1.
 *
 * `vgbench --worker FD` is the process-isolated worker entry the
 * runner re-executes this binary with (RunnerOptions::workerExecPath
 * left empty means /proc/self/exe).
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bpred/factory.hh"
#include "core/experiment.hh"
#include "core/journal.hh"
#include "core/runner.hh"
#include "core/vanguard.hh"
#include "core/worker_pool.hh"
#include "exec/interpreter.hh"
#include "support/metrics.hh"
#include "support/stats.hh"
#include "support/tracing.hh"
#include "workloads/suites.hh"

using namespace vanguard;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/** Engine workers. The bench host has 4 cores shared with other
 *  tenants; at 4 workers the Fig. 8 sweep spread +-4 %, at 2 +-1.3 %. */
constexpr unsigned kWorkers = 2;

/** Timed sweeps per run at least; sweep_s is their median. */
constexpr size_t kMinSweeps = 3;

/** Resume repetitions; resume_s is their median. */
constexpr int kResumeReps = 6;

/** Interleaved repetitions of each isolation/journal probe slice. */
constexpr int kProbeReps = 3;

/** Reference units (referenceChunk) per worker per sample point. */
constexpr size_t kReferenceChunks = 12;

/** The time metrics are in seconds of a host on which referenceChunk's
 *  10th percentile is this long; the bench host reads 10-17 ms. */
constexpr double kReferenceSeconds = 0.0121;

/** Sweep jobs re-simulated directly per run. */
constexpr size_t kSampleJobs = 6;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
joined(const std::vector<double> &v)
{
    std::string s;
    for (double x : v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.4f", s.empty() ? "" : ",", x);
        s += buf;
    }
    return s;
}

[[noreturn]] void
die(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "vgbench: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

/** Run body(0..n-1) on kWorkers threads; rethrows the first error. */
template <class F>
void
parallelFor(size_t n, F &&body)
{
    std::atomic<size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;
    auto loop = [&] {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(error_mu);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> threads;
    try {
        for (unsigned t = 0; t < kWorkers; ++t)
            threads.emplace_back(loop);
    } catch (...) {
        next = n; // started threads take no new work
        for (auto &t : threads)
            t.join();
        throw;
    }
    for (auto &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

// ---------------------------------------------------------------------
// Workloads.

uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Uniform in [-1, 1). */
double
signedUnit(uint64_t &state)
{
    return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-52 - 1.0;
}

class Fnv
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= c[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Seed 0 keeps a spec verbatim; any other seed jitters its noise,
 * taken fraction and iteration count by at most 3, 2 and 2 percent,
 * as a pure function of (seed, benchmark name).
 */
BenchmarkSpec
jitterSpec(BenchmarkSpec s, uint64_t seed)
{
    if (seed == 0)
        return s;
    Fnv name;
    name.str(s.name);
    uint64_t state = seed ^ name.value();
    s.noisePU *= 1.0 + 0.03 * signedUnit(state);
    s.takenPU *= 1.0 + 0.02 * signedUnit(state);
    s.iterations = static_cast<uint64_t>(std::llround(
        static_cast<double>(s.iterations) *
        (1.0 + 0.02 * signedUnit(state))));
    return s;
}

std::vector<BenchmarkSpec>
prepared(std::vector<BenchmarkSpec> suite, uint64_t iterations,
         uint64_t seed)
{
    for (auto &spec : suite) {
        spec.iterations = iterations;
        spec = jitterSpec(spec, seed);
    }
    return suite;
}

/** One sweep: a suite at some widths, in process or isolated. */
struct WorkloadDef
{
    std::string name;
    std::vector<BenchmarkSpec> suite;
    std::vector<unsigned> widths;
    VanguardOptions opts;
    JobIsolation isolation = JobIsolation::inproc;
    bool journaledSweep = false; ///< the timed sweep writes a journal
};

/** Iterations per kernel of the Fig. 8 workload: a third of the
 *  exhibit binaries' 12,000 (bench_common.hh), so that a run holds
 *  about eight sweeps and every job is timed that often. */
constexpr uint64_t kFig08Iterations = 4000;

/** Iterations per kernel of the short-job workload. */
constexpr uint64_t kQuickIterations = 1000;

/** The Sec. 5.3 ladder plus its two oracle endpoints; the traced run
 *  replays branch streams through each. */
std::vector<std::string>
ladderPredictors()
{
    std::vector<std::string> rungs = sensitivityLadder();
    rungs.push_back("ideal:0.99");
    rungs.push_back("ideal:1.0");
    return rungs;
}

WorkloadDef
makeWorkload(const std::string &name, uint64_t seed)
{
    WorkloadDef w;
    w.name = name;
    w.widths = {2, 4, 8};
    if (name == "fig08_int06") {
        w.suite = prepared(specInt2006(), kFig08Iterations, seed);
    } else if (name == "quick_all_isolated") {
        for (auto suite :
             {specInt2006(), specFp2006(), specInt2000(), specFp2000()})
            w.suite.insert(w.suite.end(), suite.begin(), suite.end());
        w.suite = prepared(w.suite, kQuickIterations, seed);
        w.isolation = JobIsolation::process;
        w.journaledSweep = true;
    } else {
        die("unknown workload '%s'", name.c_str());
    }
    return w;
}

/** A slice for the pinned check and the isolation/journal probes of
 *  the long workload: first three benchmarks, width 4. */
WorkloadDef
probeSlice(WorkloadDef w)
{
    if (w.suite.size() > 3)
        w.suite.resize(3);
    w.widths = {4};
    return w;
}

// ---------------------------------------------------------------------
// Sweeps, digests and checks.

/** A closed span, rebuilt from the tracer's begin/end events. */
struct Span
{
    std::string name;
    std::string args;       ///< the begin event's args JSON
    size_t tid = 0;
    size_t depth = 0;       ///< 0 = outermost on its thread
    double start = 0.0;     ///< seconds since the tracer began
    double end = 0.0;

    double length() const { return end - start; }
};

std::vector<Span>
closedSpans(const Tracer &tracer)
{
    std::vector<Span> out;
    auto threads = tracer.snapshotByThread();
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        std::vector<Span> open;
        for (const TraceEvent &e : threads[tid]) {
            double t = static_cast<double>(e.tsMicros) * 1e-6;
            if (e.phase == 'B') {
                open.push_back({e.name, e.argsJson, tid, open.size(), t, t});
            } else if (e.phase == 'E' && !open.empty()) {
                open.back().end = t;
                out.push_back(std::move(open.back()));
                open.pop_back();
            }
        }
    }
    return out;
}

/** Seconds per job of one pass or set-up step, keyed by the job's
 *  identity (span name and args). */
using JobTimes = std::map<std::string, double>;

/** The engine's per-job spans in `tracer`, keyed by name and args. */
JobTimes
engineJobTimes(const Tracer &tracer)
{
    JobTimes jobs;
    for (const Span &s : closedSpans(tracer))
        if (s.name == "train" || s.name == "compile" ||
            s.name == "simulate" || s.name == "simulate.batch")
            jobs[s.name + s.args] += s.length();
    return jobs;
}

/**
 * One unit of the host-speed reference: a fixed bytecode interpreter
 * (switch dispatch, a data-dependent jump, loads and stores over a
 * 256 KiB table), about 12 ms on the bench host. Its speed tracks the
 * simulator's across the host's slow drifts (NOTES.md); it calls
 * nothing in the simulator, so a change to the program does not move
 * it. Returns its seconds.
 */
double
referenceChunk()
{
    constexpr size_t kCode = 4096, kMem = 1 << 15;
    static const std::vector<uint8_t> code = [] {
        std::vector<uint8_t> c(kCode);
        uint64_t state = 7;
        for (auto &op : c)
            op = static_cast<uint8_t>(splitmix(state) % 6);
        return c;
    }();
    std::vector<uint64_t> mem(kMem);
    uint64_t r[4] = {1, 2, 3, 4};
    size_t pc = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < 6000000; ++i) {
        uint8_t op = code[pc];
        pc = (pc + 1) % kCode;
        switch (op) {
          case 0: r[0] += r[1]; break;
          case 1: r[1] ^= r[2] << 1; break;
          case 2: mem[r[2] % kMem] = r[0]; break;
          case 3: r[3] += mem[r[0] % kMem]; break;
          case 4:
            if (r[0] & 1)
                pc = (pc + 17) % kCode;
            break;
          default: r[2] = r[2] * 31 + r[3]; break;
        }
    }
    double seconds = since(t0);
    static std::atomic<uint64_t> sink;
    sink += r[0] + r[1] + r[2] + r[3];
    return seconds;
}

/**
 * Seconds of the reference host per second measured in this run:
 * kReferenceSeconds / the 10th percentile of the run's referenceChunk
 * times. On the bench host the simulator's quiet speed drifts by up to
 * 20 % over minutes, and the reference's drifts with it, though not
 * always by the same amount (NOTES.md).
 */
double
hostScale(std::vector<double> reference_s)
{
    std::sort(reference_s.begin(), reference_s.end());
    return kReferenceSeconds / reference_s.at(reference_s.size() / 10);
}

/** A timed pass or set-up step: its wall time and its jobs' times. */
struct Timed
{
    double wall = 0.0;
    JobTimes jobs;
};

/**
 * Wall times of `runs` corrected for the host's speed. On the bench
 * host the same simulate job takes 0.07 s or 0.15 s from one second to
 * the next, from contention the guest cannot see (NOTES.md), while
 * the work of a job is fixed. A job's fastest time over the runs is
 * its time on a quiet host, and each run's wall time is scaled by
 * (sum of its jobs' fastest times) / (sum of its jobs' own times). A
 * change to the program moves a job's own and fastest times alike, so
 * it shows in full, and time outside the jobs scales with the host.
 */
std::vector<double>
quietWalls(const std::vector<Timed> &runs)
{
    JobTimes fastest;
    for (const Timed &r : runs)
        for (const auto &[key, s] : r.jobs) {
            auto [it, fresh] = fastest.emplace(key, s);
            if (!fresh)
                it->second = std::min(it->second, s);
        }
    std::vector<double> out;
    for (const Timed &r : runs) {
        double own = 0.0, quiet = 0.0;
        for (const auto &[key, s] : r.jobs) {
            own += s;
            quiet += fastest[key];
        }
        out.push_back(own > 0.0 ? r.wall * quiet / own : r.wall);
    }
    return out;
}

struct Pass
{
    SuiteReport report;
    double seconds = 0.0;
};

struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
};

/** Run the sweep of `w` once. A non-null `tracer` gets a harness span
 *  named `what` around it and is handed to the engine. */
Pass
runPass(const WorkloadDef &w, JobIsolation isolation,
        const std::string &journal_dir, bool resume,
        MetricsRegistry *metrics, Tracer *tracer, const char *what,
        Tally &tally)
{
    if (!journal_dir.empty() && !resume)
        fs::remove_all(journal_dir);
    RunnerOptions r;
    r.jobs = kWorkers;
    r.isolation = isolation;
    r.metrics = metrics;
    r.tracer = tracer;
    r.resume = resume;
    r.checkpointDir = journal_dir;
    Pass p;
    {
        TraceSpan span(tracer, what);
        auto t0 = Clock::now();
        p.report = runSuiteWidthsReport(w.suite, w.widths, w.opts, r);
        p.seconds = since(t0);
    }
    const SuiteReport &rep = p.report;
    tally.attempted += rep.totalJobs;
    tally.failed += rep.failures.size();
    if (!rep.failures.empty())
        tally.problems.push_back(std::string(what) + ": " +
                                 std::to_string(rep.failures.size()) +
                                 " job(s) failed\n" +
                                 renderFailureTable(rep.failures));
    if (rep.interrupted)
        tally.problems.push_back(std::string(what) + ": sweep interrupted");
    return p;
}

void
hashStats(Fnv &h, const SimStats &s)
{
    for (uint64_t v :
         {s.cycles, s.dynamicInsts, s.fetched, s.issued, s.condBranches,
          s.brMispredicts, s.predictsExecuted, s.resolvesExecuted,
          s.resolveRedirects, s.icacheLineAccesses, s.icacheMisses,
          s.l1dAccesses, s.l1dMisses, s.l2Misses, s.l3Misses,
          s.branchStallCycles, s.branchStallEvents, s.dbbFullStalls,
          s.dbbMaxOccupancy, s.fetchBufferStalls, s.mshrStalls,
          s.speculativeExecs, s.foldedCommitMovs})
        h.u64(v);
    h.u64(s.halted);
    h.u64(s.faulted);
    std::vector<std::pair<InstId, std::pair<uint64_t, uint64_t>>> stalls(
        s.branchStalls.begin(), s.branchStalls.end());
    std::sort(stalls.begin(), stalls.end());
    h.u64(stalls.size());
    for (const auto &[id, ce] : stalls) {
        h.u64(id);
        h.u64(ce.first);
        h.u64(ce.second);
    }
    h.u64(s.bpredCounters.size());
    for (const auto &[k, v] : s.bpredCounters) {
        h.str(k);
        h.u64(v);
    }
}

/** The exhibit table of one pass, in the exhibit binaries' layout. */
std::string
renderTable(const WorkloadDef &w, const Pass &p)
{
    std::vector<std::string> headers = {"benchmark"};
    for (unsigned width : w.widths)
        headers.push_back(std::to_string(width) + "-wide %");
    TablePrinter table(std::move(headers));
    for (size_t b = 0; b < w.suite.size(); ++b) {
        std::vector<std::string> cells = {w.suite[b].name};
        for (const auto &res : p.report.results)
            cells.push_back(TablePrinter::fmt(res.rows[b].meanSpeedupPct));
        table.addRow(std::move(cells));
    }
    std::vector<std::string> geo = {"GEOMEAN"};
    for (const auto &res : p.report.results)
        geo.push_back(TablePrinter::fmt(res.geomeanMeanPct));
    table.addRow(std::move(geo));
    return w.name + " (predictor " + w.opts.predictor + ")\n" +
           table.render();
}

/** Digest of every SimStats field of every job plus the table. */
std::string
digestPass(const WorkloadDef &w, const Pass &p)
{
    Fnv h;
    for (const auto &res : p.report.results) {
        h.f64(res.geomeanMeanPct);
        h.f64(res.geomeanBestPct);
        for (const auto &row : res.rows) {
            h.str(row.name);
            h.f64(row.meanSpeedupPct);
            h.f64(row.bestSpeedupPct);
            h.u64(row.failedSeeds);
            for (const auto &o : row.perSeed) {
                hashStats(h, o.base);
                hashStats(h, o.exp);
                h.f64(o.speedupPct);
            }
        }
    }
    h.str(renderTable(w, p));
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h.value());
    return buf;
}

/** Σ over base and exp of every job. */
SimStats
totals(const Pass &p)
{
    SimStats t;
    for (const auto &res : p.report.results)
        for (const auto &row : res.rows)
            for (const auto &o : row.perSeed)
                for (const SimStats *s : {&o.base, &o.exp}) {
                    t.cycles += s->cycles;
                    t.dynamicInsts += s->dynamicInsts;
                    t.branchStallCycles += s->branchStallCycles;
                    t.l1dMisses += s->l1dMisses;
                    t.brMispredicts += s->brMispredicts + s->resolveRedirects;
                }
    return t;
}

/** All-REF geomean % speedup at width 4 across every row. */
double
speedupGeomeanW4(const WorkloadDef &w, const Pass &p)
{
    auto it = std::find(w.widths.begin(), w.widths.end(), 4u);
    std::vector<double> pcts;
    if (it != w.widths.end())
        for (const auto &row : p.report.results[it - w.widths.begin()].rows)
            pcts.push_back(row.meanSpeedupPct);
    return geomeanPct(pcts);
}

// ---------------------------------------------------------------------
// Set-up: train, then compile every (benchmark, width), on kWorkers.

struct Artifacts
{
    std::vector<TrainArtifacts> train;                 ///< [benchmark]
    std::vector<std::vector<BenchmarkArtifacts>> art;  ///< [benchmark][width]
    double seconds = 0.0;
    JobTimes jobs;  ///< per train/compile call
};

Artifacts
setupStep(const WorkloadDef &w)
{
    const size_t B = w.suite.size(), W = w.widths.size();
    Artifacts a;
    a.train.resize(B);
    a.art.assign(B, std::vector<BenchmarkArtifacts>(W));
    std::vector<double> train_s(B), compile_s(B * W);
    auto t0 = Clock::now();
    parallelFor(B, [&](size_t b) {
        auto t = Clock::now();
        a.train[b] = trainBenchmark(w.suite[b], w.opts);
        train_s[b] = since(t);
    });
    parallelFor(B * W, [&](size_t i) {
        VanguardOptions o = w.opts;
        o.width = w.widths[i % W];
        auto t = Clock::now();
        a.art[i / W][i % W] =
            compileBenchmark(w.suite[i / W], a.train[i / W], o);
        compile_s[i] = since(t);
    });
    a.seconds = since(t0);
    for (size_t i = 0; i < B * W; ++i) {
        std::string bench = w.suite[i / W].name;
        if (i % W == 0)
            a.jobs["train " + bench] = train_s[i / W];
        a.jobs["compile " + bench + " " + std::to_string(w.widths[i % W])] =
            compile_s[i];
    }
    return a;
}

/** One simulate job of a sweep, addressed like the runner's slots. */
struct SimJob
{
    size_t b, wi;
    int config;     ///< 0 baseline, 1 decomposed
    size_t seed;    ///< index into kRefSeeds
};

/** Re-simulate a seed-chosen sample of the sweep's jobs directly with
 *  simulateConfig; each must be bit-identical to the sweep's slot. */
void
checkDirectSample(const WorkloadDef &w, const Pass &p, uint64_t seed,
                  Tally &tally)
{
    Artifacts a = setupStep(w);
    std::vector<SimJob> jobs;
    uint64_t state = seed * 0x2545f4914f6cdd1dull + 17;
    for (size_t i = 0; i < kSampleJobs; ++i) {
        uint64_t r = splitmix(state);
        jobs.push_back({r % w.suite.size(), (r >> 16) % w.widths.size(),
                        static_cast<int>((r >> 32) & 1),
                        (r >> 40) % kNumRefSeeds});
    }
    std::vector<SimStats> stats(jobs.size());
    parallelFor(jobs.size(), [&](size_t i) {
        const SimJob &j = jobs[i];
        VanguardOptions o = w.opts;
        o.width = w.widths[j.wi];
        const BenchmarkArtifacts &art = a.art[j.b][j.wi];
        stats[i] = simulateConfig(w.suite[j.b], j.config ? art.exp : art.base,
                                  o, kRefSeeds[j.seed],
                                  /*collect_branch_stalls=*/j.config == 0);
    });
    for (size_t i = 0; i < jobs.size(); ++i) {
        const SimJob &j = jobs[i];
        ++tally.attempted;
        const SeedSummary &row = p.report.results.at(j.wi).rows.at(j.b);
        Fnv direct, swept;
        hashStats(direct, stats[i]);
        if (j.seed < row.perSeed.size()) {
            const BenchmarkOutcome &o = row.perSeed[j.seed];
            hashStats(swept, j.config ? o.exp : o.base);
        }
        if (direct.value() != swept.value()) {
            ++tally.failed;
            char buf[200];
            std::snprintf(buf, sizeof(buf),
                          "direct simulateConfig differs from the sweep: "
                          "%s w%u %s seed %zu",
                          w.suite[j.b].name, w.widths[j.wi],
                          j.config ? "exp" : "base", j.seed);
            tally.problems.push_back(buf);
        }
    }
}

std::map<std::string, std::string>
loadPinned(const std::string &path)
{
    std::map<std::string, std::string> pinned;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, digest;
        if (fields >> name >> digest)
            pinned[name] = digest;
    }
    return pinned;
}

void
checkDigest(const std::string &pinned_file, const std::string &key,
            const std::string &digest, Tally &tally)
{
    std::fprintf(stderr, "vgbench: %s digest %s\n", key.c_str(),
                 digest.c_str());
    auto pinned = loadPinned(pinned_file);
    auto it = pinned.find(key);
    if (it == pinned.end())
        tally.problems.push_back("no pinned digest for " + key);
    else if (it->second != digest)
        tally.problems.push_back(key + " digest " + digest + " != pinned " +
                                 it->second);
}

/**
 * Checks the simulated results against the pinned seed-0 digests on
 * every run: the seed-0 slice of the workload, whatever the run's
 * seed, and the full sweep `p` when the run's seed is 0.
 */
void
checkPinned(const std::string &pinned_file, const WorkloadDef &w,
            uint64_t seed, const Pass *p, Tally &tally)
{
    WorkloadDef slice = probeSlice(makeWorkload(w.name, 0));
    Pass s = runPass(slice, w.isolation, "", false, nullptr, nullptr,
                     "pinned slice", tally);
    checkDigest(pinned_file, w.name + ".slice", digestPass(slice, s), tally);
    if (seed == 0 && p != nullptr)
        checkDigest(pinned_file, w.name, digestPass(w, *p), tally);
}

// ---------------------------------------------------------------------
// Host fingerprint.

std::string
readFirstMatch(const char *path, const char *key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (line.rfind(key, 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos) {
                size_t start = line.find_first_not_of(" \t", colon + 1);
                return start == std::string::npos ? ""
                                                  : line.substr(start);
            }
        }
    return "unknown";
}

std::string
fsTypeName(const std::string &path)
{
    struct statfs st;
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
      case 0xEF53: return "ext4";
      case 0x01021994: return "tmpfs";
      case 0x794c7630: return "overlayfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x6969: return "nfs";
      default: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%lx",
                      static_cast<unsigned long>(st.f_type));
        return buf;
      }
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
fingerprintJson(const std::string &journal_dir, const std::string &loadavg)
{
    std::ostringstream o;
    o << "{\"fingerprint\": {\"cpu\": \""
      << jsonEscape(readFirstMatch("/proc/cpuinfo", "model name"))
      << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": \"GCC " << jsonEscape(__VERSION__)
      << "\", \"build_type\": \"" << VGBENCH_BUILD_TYPE
      << "\", \"loadavg_start\": \"" << jsonEscape(loadavg)
      << "\", \"journal_fs\": \"" << fsTypeName(journal_dir)
      << "\", \"engine_workers\": " << kWorkers << "}}";
    return o.str();
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    in >> a >> b >> c;
    return a + " " + b + " " + c;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

[[noreturn]] void
finish(const Tally &tally, const std::vector<Metric> &metrics)
{
    bool correct = tally.problems.empty() && tally.failed == 0;
    for (const auto &p : tally.problems)
        std::fprintf(stderr, "vgbench: CHECK FAILED: %s\n", p.c_str());
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(tally.attempted) +
                      ", \"failed\": " + std::to_string(tally.failed) +
                      ", \"metrics\": {";
    if (correct) {
        for (size_t i = 0; i < metrics.size(); ++i) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", metrics[i].name.c_str(),
                          metrics[i].value, metrics[i].unit);
            out += buf;
        }
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    std::exit(correct ? 0 : 1);
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_build/work";
    std::string pinned;
    std::string traceOut;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            die("missing value for %s", k.c_str());
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--pinned")
            a.pinned = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            die("unknown argument %s", k.c_str());
    }
    if (a.workload.empty() || a.pinned.empty())
        die("usage: vgbench --workload W --seed N --seconds S --trace 0|1 "
            "--work-dir DIR --pinned FILE [--trace-out FILE]");
    return a;
}

// ---------------------------------------------------------------------
// The untraced run: end-to-end metrics.

[[noreturn]] void
runEndToEnd(const Args &args, const WorkloadDef &w)
{
    Tally tally;
    std::string journal = args.workDir + "/journal";

    // Reference units, kWorkers at a time (the load of the timed
    // steps), before every set-up step and after every pass, for
    // hostScale.
    std::vector<double> reference_s;
    auto sampleReference = [&] {
        std::vector<double> v(kWorkers * kReferenceChunks);
        parallelFor(v.size(), [&](size_t i) { v[i] = referenceChunk(); });
        reference_s.insert(reference_s.end(), v.begin(), v.end());
    };
    // One set-up step before every sweep and every resume, so that
    // their median samples the same stretch of host time as those.
    // Free heap goes back to the OS around it: otherwise what earlier
    // steps left in per-thread malloc arenas adds a timing-dependent
    // 10-30 MB to the peak resident set.
    std::vector<Timed> setups;
    auto setup = [&] {
        sampleReference();
        malloc_trim(0);
        {
            Artifacts a = setupStep(w);
            setups.push_back({a.seconds, std::move(a.jobs)});
        }
        malloc_trim(0);
    };
    // A pass records the engine's per-job spans on a tracer of its
    // own, for quietWalls.
    auto timedPass = [&](const std::string &journal_dir, bool resume,
                         const char *what, std::vector<Timed> &into) {
        Tracer tracer;
        Pass p = runPass(w, w.isolation, journal_dir, resume, nullptr,
                         &tracer, what, tally);
        into.push_back({p.seconds, engineJobTimes(tracer)});
        sampleReference();
        return p;
    };

    // The resumed journal: the timed sweep's own when the workload
    // journals, else that of one journaled warm-up pass, whose jobs
    // count towards the sweeps' fastest times but whose wall time is
    // not a sweep_s sample.
    std::vector<Timed> sweeps;
    std::string journaled_digest;
    if (!w.journaledSweep) {
        setup();
        Pass warm = timedPass(journal, false, "journaled", sweeps);
        journaled_digest = digestPass(w, warm);
    }
    const size_t warmups = sweeps.size();

    // Timed sweeps start until --seconds have passed, at least
    // kMinSweeps.
    // Only the first is kept (for the checks below), so the peak RSS
    // does not depend on how many sweeps fit.
    Pass first;
    std::string digest;
    auto t0 = Clock::now();
    while (sweeps.size() - warmups < kMinSweeps ||
           since(t0) < args.seconds) {
        setup();
        Pass p = timedPass(w.journaledSweep ? journal : "", false, "sweep",
                           sweeps);
        if (sweeps.size() - warmups == 1) {
            digest = digestPass(w, p);
            first = std::move(p);
        } else if (digestPass(w, p) != digest) {
            tally.problems.push_back("repeated sweeps differ");
        }
    }
    if (!w.journaledSweep && journaled_digest != digest)
        tally.problems.push_back("journaled sweep differs");

    std::string pristine = journal + ".pristine";
    fs::remove_all(pristine);
    fs::copy(journal, pristine, fs::copy_options::recursive);
    std::vector<Timed> resumes;
    for (int i = 0; i < kResumeReps; ++i) {
        setup();
        fs::remove_all(journal);
        fs::copy(pristine, journal, fs::copy_options::recursive);
        Pass r = timedPass(journal, true, "resume", resumes);
        if (digestPass(w, r) != digest)
            tally.problems.push_back("resumed report differs from the "
                                     "fresh sweep");
        if (r.report.replayedJobs != r.report.totalJobs)
            tally.problems.push_back(
                "resume replayed " + std::to_string(r.report.replayedJobs) +
                " of " + std::to_string(r.report.totalJobs) + " jobs");
    }

    checkPinned(args.pinned, w, args.seed, &first, tally);
    checkDirectSample(w, first, args.seed, tally);

    // Time metrics: each step's wall time corrected for the host's
    // short slow spells (quietWalls), then for its slow drifts
    // (hostScale).
    const double scale = hostScale(reference_s);
    auto corrected = [scale](const std::vector<Timed> &runs, size_t skip) {
        std::vector<double> v = quietWalls(runs);
        v.erase(v.begin(), v.begin() + skip);
        for (double &x : v)
            x *= scale;
        return v;
    };
    std::vector<double> sweep_s = corrected(sweeps, warmups);
    std::vector<double> setup_s = corrected(setups, 0);
    std::vector<double> resume_s = corrected(resumes, 0);
    auto walls = [](const std::vector<Timed> &runs) {
        std::vector<double> v;
        for (const Timed &r : runs)
            v.push_back(r.wall);
        return joined(v);
    };
    std::fprintf(stderr,
                 "vgbench: wall s: sweeps %s%s; set-up %s; resume %s\n"
                 "vgbench: host scale %.4f (%zu reference units); "
                 "corrected: sweep_s %s; setup_s %s; resume_s %s\n",
                 warmups ? "(journaled warm-up first) " : "",
                 walls(sweeps).c_str(), walls(setups).c_str(),
                 walls(resumes).c_str(), scale, reference_s.size(),
                 joined(sweep_s).c_str(), joined(setup_s).c_str(),
                 joined(resume_s).c_str());
    double sweep = median(sweep_s);
    double geo = speedupGeomeanW4(w, first);
    std::printf("%s", renderTable(w, first).c_str());
    std::printf("reference: sim_speedup_geomean_pct %.3f (simulated, "
                "all-REF geomean, 4-wide, %s) vs paper Fig. 8 11%% "
                "(4-wide, SPEC INT 2006); the model is unvalidated "
                "against hardware, so no error figure is claimed\n",
                geo, w.name.c_str());
    finish(tally,
           {{"sweep_s", sweep, "s"},
            {"sim_minsts_per_s",
             static_cast<double>(totals(first).dynamicInsts) / 1e6 / sweep,
             "Minst/s"},
            {"setup_s", median(setup_s), "s"},
            {"resume_s", median(resume_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_speedup_geomean_pct", geo, "%"}});
}

// ---------------------------------------------------------------------
// The traced run: per-layer metrics.

/** The layer of a job span. Engine job spans are named by phase;
 *  harness spans already start with their module's name. */
std::string
layerOf(const std::string &name)
{
    if (name == "train")
        return "profile.train";
    if (name == "compile")
        return "compiler.compile";
    if (name == "simulate" || name == "simulate.batch")
        return "uarch.simulate";
    return name;
}

/**
 * Per-layer wall seconds inside `window`: every outermost span of a
 * thread other than the window's own, mapped by layerOf, in busy
 * seconds / kWorkers. The window's remainder is charged to its own
 * name (for a sweep: the engine's bookkeeping, journal and worker
 * pool). The entries sum to the window's length.
 */
std::map<std::string, double>
attribute(const std::vector<Span> &spans, const Span &window)
{
    std::map<std::string, double> share;
    double covered = 0.0;
    for (const Span &s : spans)
        if (s.tid != window.tid && s.depth == 0 &&
            s.start >= window.start && s.end <= window.end) {
            share[layerOf(s.name)] += s.length() / kWorkers;
            covered += s.length() / kWorkers;
        }
    share[window.name] += window.length() - covered;
    return share;
}

/** Busy seconds of the outermost job spans of `layer` in `window`. */
double
busySeconds(const std::vector<Span> &spans, const Span &window,
            const std::string &layer, size_t *count = nullptr)
{
    double total = 0.0;
    for (const Span &s : spans)
        if (s.tid != window.tid && s.depth == 0 &&
            s.start >= window.start && s.end <= window.end &&
            layerOf(s.name) == layer) {
            total += s.length();
            if (count != nullptr)
                ++*count;
        }
    return total;
}

/** The first span named `name` at `depth` on thread `tid`. */
const Span &
findSpan(const std::vector<Span> &spans, const std::string &name,
         size_t tid, size_t depth)
{
    for (const Span &s : spans)
        if (s.tid == tid && s.depth == depth && s.name == name)
            return s;
    die("no traced span '%s'", name.c_str());
}

/** Seconds a traced span costs over the same span untraced: begin/end
 *  pairs with job-sized args on a scratch tracer against the same loop
 *  on a null tracer, median of five. */
double
spanCost()
{
    constexpr int n = 20000;
    Tracer scratch;
    auto loop = [](Tracer *t) {
        auto t0 = Clock::now();
        for (int i = 0; i < n; ++i)
            TraceSpan s(t, "simulate",
                        t == nullptr
                            ? std::string()
                            : Tracer::args({{"benchmark", "gcc-like"},
                                            {"width", "4"},
                                            {"config", "base"},
                                            {"seed", "bef1"},
                                            {"index", std::to_string(i)}}));
        return since(t0);
    };
    std::vector<double> on, off;
    for (int r = 0; r < 5; ++r) {
        off.push_back(loop(nullptr));
        on.push_back(loop(&scratch));
    }
    return std::max(0.0, (median(on) - median(off)) / n);
}

struct BranchStream
{
    std::vector<uint64_t> pcs;
    std::vector<uint8_t> taken;
};

[[noreturn]] void
runTraced(const Args &args, const WorkloadDef &w)
{
    Tally tally;
    Tracer tracer;
    std::vector<Metric> m;
    std::string journal = args.workDir + "/journal";
    std::atomic<uint64_t> next_job{1};
    auto jobArgs = [&] {
        return Tracer::args({{"job", std::to_string(next_job++)}});
    };

    // The probe sweeps: A isolated + journaled, B in process
    // journaled, C in process unjournaled. The long workload probes a
    // slice; the isolated one its whole sweep, A being the sweep.
    const bool whole = w.journaledSweep;
    WorkloadDef probe = whole ? w : probeSlice(w);
    MetricsRegistry sweep_reg, a_reg, c_reg;
    Pass sweep, a, b, c;
    std::vector<double> a_s, b_s, c_s;
    // The in-process unjournaled sweep that layer costs are read from.
    const char *layer_sweep =
        w.isolation == JobIsolation::inproc ? "sweep.traced"
                                            : "core.runner.probe";
    {
        TraceSpan root(&tracer, "run");

        sweep = runPass(w, w.isolation, whole ? journal : "", false,
                        &sweep_reg, &tracer, "sweep.traced", tally);

        // The probes run interleaved, kProbeReps times each on a slice
        // (once on a whole sweep), and their medians are compared.
        for (int i = 0; i < (whole ? 1 : kProbeReps); ++i) {
            if (whole)
                a = sweep;
            else
                a = runPass(probe, JobIsolation::process, journal, false,
                            &a_reg, &tracer, "core.worker_pool.probe",
                            tally);
            b = runPass(probe, JobIsolation::inproc, journal + "_inproc",
                        false, nullptr, &tracer, "core.journal.probe",
                        tally);
            c = runPass(probe, JobIsolation::inproc, "", false, &c_reg,
                        &tracer, "core.runner.probe", tally);
            a_s.push_back(a.seconds);
            b_s.push_back(b.seconds);
            c_s.push_back(c.seconds);
            if (digestPass(probe, a) != digestPass(probe, b) ||
                digestPass(probe, b) != digestPass(probe, c))
                tally.problems.push_back("isolated/journaled probe sweeps "
                                         "differ");
        }

        std::vector<double> load_ms;
        size_t records = 0;
        for (int i = 0; i < 5; ++i) {
            TraceSpan span(&tracer, "core.journal.load", jobArgs());
            auto t = Clock::now();
            JournalContents jc = loadJournalFile(journal + "/journal.vgj");
            load_ms.push_back(since(t) * 1e3);
            records = jc.records();
            if (!jc.ok || jc.corruptLines != 0)
                tally.problems.push_back("journal did not load cleanly: " +
                                         jc.error);
        }
        m.push_back({"core.journal.load_ms", median(load_ms), "ms"});
        m.push_back({"core.journal.records", static_cast<double>(records),
                     "count"});

        // Kernels, the functional interpreter and every ladder
        // predictor over the recorded TRAIN branch streams of the
        // workload's benchmarks.
        const std::vector<BenchmarkSpec> &benches = w.suite;
        std::vector<BranchStream> streams(benches.size());
        std::vector<double> build_ms(2 * benches.size());
        std::vector<double> interp_s(benches.size());
        std::vector<uint64_t> interp_insts(benches.size());
        {
            TraceSpan phase(&tracer, "kernels");
            parallelFor(benches.size(), [&](size_t i) {
                auto t = Clock::now();
                BuiltKernel train = [&] {
                    TraceSpan s(&tracer, "workloads.build_kernel",
                                jobArgs());
                    return buildKernel(benches[i], kTrainSeed);
                }();
                build_ms[2 * i] = since(t) * 1e3;
                {
                    TraceSpan s(&tracer, "bpred.record_stream", jobArgs());
                    Interpreter interp(train.fn, *train.mem);
                    BranchStream &bs = streams[i];
                    interp.setBranchHook([&bs](const Instruction &inst,
                                               bool taken) {
                        bs.pcs.push_back(static_cast<uint64_t>(inst.id) * 4);
                        bs.taken.push_back(taken);
                    });
                    interp.run(w.opts.profileMaxInsts);
                }
                t = Clock::now();
                BuiltKernel ref = [&] {
                    TraceSpan s(&tracer, "workloads.build_kernel",
                                jobArgs());
                    return buildKernel(benches[i], kRefSeeds[0]);
                }();
                build_ms[2 * i + 1] = since(t) * 1e3;
                TraceSpan s(&tracer, "exec.interp", jobArgs());
                Interpreter interp(ref.fn, *ref.mem);
                t = Clock::now();
                RunResult r = interp.run(w.opts.simMaxInsts);
                interp_s[i] = since(t);
                interp_insts[i] = r.dynamicInsts;
            });
        }
        double build_total = 0, interp_total = 0;
        uint64_t insts_total = 0;
        for (double v : build_ms)
            build_total += v;
        for (size_t i = 0; i < benches.size(); ++i) {
            interp_total += interp_s[i];
            insts_total += interp_insts[i];
        }
        m.push_back({"exec.interp_minsts_per_s",
                     static_cast<double>(insts_total) / 1e6 / interp_total,
                     "Minst/s"});
        m.push_back({"workloads.build_kernel_ms",
                     build_total / static_cast<double>(build_ms.size()),
                     "ms"});

        // predict + updateHistory + update per branch, per predictor
        // (the profiler's protocol), one fresh predictor per stream.
        std::vector<std::string> predictors = ladderPredictors();
        std::vector<double> ns_per_branch(predictors.size());
        {
            TraceSpan phase(&tracer, "bpred");
            parallelFor(predictors.size(), [&](size_t p) {
                TraceSpan s(&tracer, "bpred.replay", jobArgs());
                double secs = 0;
                uint64_t branches = 0, correct = 0;
                for (const auto &bs : streams) {
                    auto pred = makePredictor(predictors[p]);
                    auto t = Clock::now();
                    for (size_t k = 0; k < bs.pcs.size(); ++k) {
                        PredMeta meta;
                        bool taken = bs.taken[k] != 0;
                        correct += pred->predictWithOracle(bs.pcs[k], taken,
                                                           meta) == taken;
                        pred->updateHistory(taken);
                        pred->update(bs.pcs[k], taken, meta);
                    }
                    secs += since(t);
                    branches += bs.pcs.size();
                }
                ns_per_branch[p] = secs * 1e9 / static_cast<double>(branches);
                std::fprintf(stderr,
                             "vgbench: bpred %-12s %.2f ns/branch over "
                             "%" PRIu64 " TRAIN branches (%.2f%% correct)\n",
                             predictors[p].c_str(), ns_per_branch[p],
                             branches,
                             100.0 * static_cast<double>(correct) /
                                 static_cast<double>(branches));
            });
        }
        double ns_sum = 0;
        for (double v : ns_per_branch)
            ns_sum += v;
        m.push_back({"bpred.ns_per_branch",
                     ns_sum / static_cast<double>(ns_per_branch.size()),
                     "ns"});

        {
            TraceSpan span(&tracer, "check.pinned");
            checkPinned(args.pinned, w, args.seed, &sweep, tally);
        }
        {
            TraceSpan span(&tracer, "check.direct_sample");
            checkDirectSample(w, sweep, args.seed, tally);
        }
    }

    std::vector<Span> spans = closedSpans(tracer);
    // The run's root span was the tracer's first event: thread 0.
    const Span root = findSpan(spans, "run", 0, 0);
    double overhead = spanCost() * static_cast<double>(spans.size());
    m.push_back({"trace.overhead_s", overhead, "s"});
    m.push_back({"trace.sweep_s", sweep.seconds, "s"});

    // Layer costs of the in-process unjournaled sweep, from the
    // engine's own job spans.
    const Span &ls = findSpan(spans, layer_sweep, root.tid, 1);
    const Pass &lp = w.isolation == JobIsolation::inproc ? sweep : c;
    const MetricsRegistry &lreg =
        w.isolation == JobIsolation::inproc ? sweep_reg : c_reg;
    size_t compiles = 0;
    double sim_s = busySeconds(spans, ls, "uarch.simulate");
    double train_s = busySeconds(spans, ls, "profile.train");
    double compile_s = busySeconds(spans, ls, "compiler.compile", &compiles);
    SimStats t = totals(lp);
    m.push_back({"uarch.sim_s", sim_s, "s"});
    m.push_back({"uarch.sim_minsts_per_s",
                 static_cast<double>(t.dynamicInsts) / 1e6 / sim_s, "Minst/s"});
    m.push_back({"uarch.host_ns_per_sim_cycle",
                 sim_s * 1e9 / static_cast<double>(t.cycles), "ns"});
    const Counter *profiled = lreg.findCounter("profile.dynamicInsts");
    m.push_back({"profile.train_s", train_s, "s"});
    m.push_back({"profile.minsts_per_s",
                 profiled ? static_cast<double>(profiled->value()) / 1e6 /
                                train_s
                          : 0.0,
                 "Minst/s"});
    m.push_back({"compiler.compile_s", compile_s, "s"});
    m.push_back({"compiler.ms_per_config",
                 compile_s * 1e3 / static_cast<double>(2 * compiles), "ms"});
    double bodies = (sim_s + train_s + compile_s) / kWorkers;
    m.push_back({"core.runner.overhead_s", lp.seconds - bodies, "s"});
    m.push_back({"core.runner.pool_efficiency", bodies / lp.seconds,
                 "ratio"});

    // Deterministic counts of the workload's sweep.
    SimStats d = totals(sweep);
    m.push_back({"uarch.sim_cycles", static_cast<double>(d.cycles), "count"});
    m.push_back({"uarch.sim_insts", static_cast<double>(d.dynamicInsts),
                 "count"});
    m.push_back({"uarch.branch_stall_cycles",
                 static_cast<double>(d.branchStallCycles), "count"});
    m.push_back({"uarch.l1d_misses", static_cast<double>(d.l1dMisses),
                 "count"});
    m.push_back({"bpred.mispredicts", static_cast<double>(d.brMispredicts),
                 "count"});

    // Isolation and journal costs.
    const MetricsRegistry &iso_reg = whole ? sweep_reg : a_reg;
    const Histogram *rtt = iso_reg.findHistogram("engine.worker.job_rtt");
    m.push_back({"core.worker_pool.overhead_s", median(a_s) - median(b_s),
                 "s"});
    m.push_back({"core.worker_pool.job_rtt_p50_ms",
                 rtt ? static_cast<double>(rtt->percentile(0.50)) : 0.0,
                 "ms"});
    m.push_back({"core.worker_pool.job_rtt_p99_ms",
                 rtt ? static_cast<double>(rtt->percentile(0.99)) : 0.0,
                 "ms"});
    m.push_back({"core.journal.append_s", median(b_s) - median(c_s), "s"});

    // Attribution of the traced wall time: each step of the run is
    // split into the layers its job spans cover; time between steps
    // is harness glue and counts as unaccounted.
    double wall = root.length(), steps = 0.0;
    std::map<std::string, double> by_layer;
    std::map<std::string, std::pair<size_t, double>> by_name;
    for (const Span &s : spans) {
        auto &[n, busy] = by_name[s.name];
        ++n;
        busy += s.length();
        if (s.tid != root.tid || s.depth != 1)
            continue;
        steps += s.length();
        for (const auto &[layer, sec] : attribute(spans, s))
            by_layer[layer] += sec;
    }
    m.push_back({"trace.unaccounted_pct", 100.0 * (wall - steps) / wall,
                 "%"});
    std::fprintf(stderr,
                 "vgbench: traced wall %.3f s; tracing %zu spans cost an "
                 "estimated %.6f s; by layer (wall s):\n",
                 wall, spans.size(), overhead);
    for (const auto &[layer, sec] : by_layer)
        std::fprintf(stderr, "  %-28s %9.3f\n", layer.c_str(), sec);
    std::fprintf(stderr, "  %-28s %9.3f\n", "(unaccounted)", wall - steps);
    std::fprintf(stderr, "vgbench: spans (count, busy s):\n");
    for (const auto &[name, nb] : by_name)
        std::fprintf(stderr, "  %-28s n=%-6zu %9.3f\n", name.c_str(),
                     nb.first, nb.second);
    if (!args.traceOut.empty()) {
        fs::create_directories(fs::path(args.traceOut).parent_path());
        std::ofstream(args.traceOut) << tracer.toChromeJson();
    }
    finish(tally, m);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "--worker") == 0)
        return runWorkerProcess(std::atoi(argv[2]));

    Args args = parseArgs(argc, argv);
    fs::create_directories(args.workDir);
    std::printf("%s\n", fingerprintJson(args.workDir, loadAverage()).c_str());
    WorkloadDef w = makeWorkload(args.workload, args.seed);
    try {
        if (args.trace)
            runTraced(args, w);
        runEndToEnd(args, w);
    } catch (const std::exception &e) {
        Tally t;
        t.failed = 1;
        t.attempted = 1;
        t.problems.push_back(e.what());
        finish(t, {});
    }
}
