/**
 * @file
 * Process-isolated worker pool: supervised out-of-process execution
 * of experiment-job bodies.
 *
 * The in-process pool (support/thread_pool.hh) can only contain
 * failures that unwind as C++ exceptions; a SIGSEGV, OOM kill, or
 * runaway allocation in one (benchmark × width × config × seed) job
 * takes the whole sweep down. This pool moves job *bodies* into N
 * long-lived worker processes — re-execs of `vanguard_cli --worker
 * <fd>` — while every piece of sweep bookkeeping (journal,
 * metrics merges, result slots, retry policy, failure tables) stays in
 * the supervisor. That split is what makes sweep output byte-identical
 * between isolation modes: the supervisor runs the same code over the
 * same slot-indexed results either way; only where the body computed
 * is different.
 *
 * Job bodies cross the boundary fully self-contained (complete
 * BenchmarkSpec, exact hexfloat-encoded options, and — for simulate
 * jobs — the serialized TRAIN profile), so workers never touch the
 * filesystem and any single job is replayable by construction. Train
 * jobs return the serialized profile (the supervisor re-derives
 * selection via trainFromProfile, proven bit-identical by the resume
 * path); simulate jobs return SimStats through the journal's
 * CRC-guarded record codec, the same bytes a resumed sweep replays.
 *
 * One worker loop serves both transports. A `--worker` process runs
 * the sweep fabric's lease protocol (core/coordinator.hh: HELLO,
 * CONFIG, then CLAIM -> LEASE -> RENEW... -> RESULT -> ACK until a
 * final DRAIN) once over its inherited socketpair; a `--remote-worker`
 * runs the same loop over TCP and reconnects when the connection
 * drops. One lease dispatcher (core/coordinator.cc) serves both
 * supervisors: this pool is that dispatcher over socketpair children
 * it spawns, the coordinator is the same dispatcher over TCP peers
 * that dial in. What differs is fixed per peer when it is created
 * (see coordinator.hh), not configured.
 *
 * Supervision policy (all owned by the dispatcher, not the runner):
 *   - heartbeats: workers RENEW every deadline/4 while a job runs; a
 *     local worker silent past the deadline is SIGKILLed and the
 *     in-flight job fails with SimError(Hang), mirroring the
 *     in-process watchdog taxonomy;
 *   - exit triage: signal death, nonzero exit, and protocol desync
 *     each map into the SimError taxonomy with the worker's fate in
 *     the message;
 *   - restart with exponential backoff (BackoffPolicy below), plus a
 *     restart-storm circuit breaker: too many consecutive worker
 *     losses with no completed job in between breaks the pool rather
 *     than melting the host (SupervisionLedger, shared with the
 *     coordinator);
 *   - poison-job quarantine: a job that kills quarantineDeaths
 *     consecutive workers is recorded as a non-transient root-cause
 *     failure (the runner's ordinary bundle path then writes its
 *     replay bundle) instead of being retried forever;
 *   - optional setrlimit() address-space / CPU caps applied between
 *     fork and exec;
 *   - graceful drain: shutdown() sends each live worker a final DRAIN
 *     frame and exactly one SIGTERM, reaps with a bounded deadline,
 *     and SIGKILLs stragglers — no zombie outlives the pool.
 */

#ifndef VANGUARD_CORE_WORKER_POOL_HH
#define VANGUARD_CORE_WORKER_POOL_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/vanguard.hh"
#include "support/fault_inject.hh"
#include "support/ipc.hh"
#include "support/metrics.hh"
#include "uarch/pipeline.hh"
#include "workloads/kernel.hh"

namespace vanguard {

class TelemetryHub;
struct Dispatcher;

/**
 * Exponential backoff schedule for worker restarts. Pure function of
 * the consecutive-failure count: delayMs(0) = 0 (first spawn is
 * free), then base, 2*base, 4*base, ... clamped to cap.
 */
struct BackoffPolicy
{
    unsigned baseMs = 25;
    unsigned capMs = 1000;

    unsigned
    delayMs(unsigned consecutive_failures) const
    {
        if (consecutive_failures == 0)
            return 0;
        unsigned shift = consecutive_failures - 1;
        if (shift > 20)
            shift = 20;
        uint64_t d = static_cast<uint64_t>(baseMs) << shift;
        return d > capMs ? capMs : static_cast<unsigned>(d);
    }
};

/**
 * Loss bookkeeping shared by the worker pool and the coordinator:
 * per-job delivery ordinals, per-job consecutive deaths (quarantine
 * at quarantineDeaths), the count of consecutive losses with no
 * completion anywhere (the storm breaker past stormLimit), and the
 * reason the supervisor broke. Not synchronized: each owner calls it
 * under its own lock. Message text stays with the callers.
 */
class SupervisionLedger
{
  public:
    SupervisionLedger(unsigned quarantine_deaths, unsigned storm_limit)
        : quarantineDeaths_(quarantine_deaths), stormLimit_(storm_limit)
    {
    }

    /** Ordinal of the next delivery of `key`: 0, 1, 2, ... */
    uint64_t
    nextDelivery(const std::string &key)
    {
        return deliveries_[key]++;
    }

    struct Loss
    {
        unsigned deaths = 0;     ///< consecutive deaths of the job
        unsigned streak = 0;     ///< consecutive losses, any job
        bool quarantine = false; ///< deaths reached the limit (reset)
        bool storm = false;      ///< streak passed the storm limit
    };

    /** A worker or lease was lost while running `key` ("" = no job
     *  to blame, e.g. a failed spawn: only the streak grows). */
    Loss
    noteLoss(const std::string &key)
    {
        Loss l;
        l.streak = ++streak_;
        l.storm = streak_ > stormLimit_ && !broken_;
        if (!key.empty()) {
            l.deaths = ++deaths_[key];
            l.quarantine = l.deaths >= quarantineDeaths_;
            if (l.quarantine)
                deaths_.erase(key);
        }
        return l;
    }

    /** `key` settled (completed, or failed as a job): its death count
     *  and the storm streak reset. */
    void
    noteCompletion(const std::string &key)
    {
        deaths_.erase(key);
        streak_ = 0;
    }

    /** Break the supervisor; the first reason wins. Returns whether
     *  this call broke it. */
    bool
    markBroken(SimError::Kind kind, std::string reason)
    {
        if (broken_)
            return false;
        broken_ = true;
        brokenKind_ = kind;
        brokenReason_ = std::move(reason);
        return true;
    }

    bool broken() const { return broken_; }

    void
    throwIfBroken() const
    {
        if (broken_)
            throw SimError(brokenKind_, brokenReason_);
    }

  private:
    unsigned quarantineDeaths_;
    unsigned stormLimit_;
    std::map<std::string, uint64_t> deliveries_;
    std::map<std::string, unsigned> deaths_;
    unsigned streak_ = 0;
    bool broken_ = false;
    SimError::Kind brokenKind_ = SimError::Kind::Internal;
    std::string brokenReason_;
};

/** Workers beat at a quarter of the supervisor's deadline: four
 *  missed beats, not one scheduling hiccup, trip the watchdog. */
inline unsigned
heartbeatIntervalMs(unsigned deadline_ms)
{
    unsigned interval = deadline_ms / 4;
    return interval == 0 ? 1 : interval;
}

/**
 * The scope key under which a worker draws the `worker.kill` site:
 * mixes the job scope with the delivery ordinal, so a job whose first
 * delivery killed its worker draws fresh on redelivery (a fault-plan
 * kill is a one-shot crash, not a poison job). Distinct from the job
 * scope itself so kill draws never perturb in-body draw sequences.
 */
inline uint64_t
workerKillScope(uint64_t job_scope, uint64_t delivery)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t v : {job_scope, delivery, uint64_t{0x6b696c6c}}) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** Per-job heartbeat-suppression scope (see worker.heartbeat site):
 *  every beat of a job draws under the same key at draw 0, so a plan
 *  either suppresses all of a job's beats (guaranteed watchdog trip)
 *  or none — a worker-count-independent pattern. */
inline uint64_t
workerHeartbeatScope(uint64_t job_scope)
{
    return workerKillScope(job_scope, uint64_t{0xb3a7});
}

/**
 * One job body shipped to a worker. Everything the worker needs is in
 * here; `spec.name` points into `specName` after parse (call
 * bindSpecName() after copying or assignment).
 */
struct WorkerJob
{
    std::string phase = "simulate"; ///< "train" | "simulate"
    size_t slot = 0;                ///< job index within its phase
    uint64_t scopeKey = 0;          ///< fault-injection scope key
    /** Draws the supervisor already consumed under scopeKey before
     *  dispatch (the job.attempt probe); the worker resumes there. */
    uint64_t scopeStartDraw = 1;
    uint64_t delivery = 0;          ///< stamped by the pool per send

    BenchmarkSpec spec;
    std::string specName;           ///< owning storage for spec.name
    VanguardOptions options;        ///< width already applied

    int config = 1;                 ///< 0 base, 1 exp (simulate)
    uint64_t seed = 0;              ///< REF seed (simulate)
    bool collectStalls = false;     ///< simulate: base-config stalls
    std::string profileText;        ///< simulate: serialized TRAIN profile

    void bindSpecName() { spec.name = specName.c_str(); }
};

/** What came back over the result frame. */
struct WorkerResult
{
    bool ok = false;
    size_t slot = 0;

    // ok payloads
    std::string profileText;        ///< train
    SimStats stats;                 ///< simulate

    // fail payload: rethrown by the supervisor verbatim, so journal
    // and failure-table bytes match the in-process pool.
    SimError::Kind kind = SimError::Kind::Internal;
    std::string message;

    /** Per-kind faults injected while the job body ran (folded into
     *  the supervisor's counters for gauge identity across modes). */
    uint64_t injected[FaultPlan::kNumKinds] = {};
};

/** Bucket bounds (ms, powers of two) for the engine.worker.job_rtt
 *  histogram — shared by the pool and the runner's unconditional
 *  registration so both isolation modes dump identical shapes. */
std::vector<uint64_t> workerRttBoundsMs();

/** Frame-body codecs (versioned text, exact numeric round-trips). */
std::string serializeWorkerJob(const WorkerJob &job);
bool parseWorkerJob(const std::string &body, WorkerJob *out,
                    std::string *error);
std::string serializeWorkerResult(const WorkerResult &res);
bool parseWorkerResult(const std::string &body, WorkerResult *out,
                       std::string *error);

/*
 * Lease-protocol bodies (frame types in support/ipc.hh), one codec
 * each for both supervisors and the worker loop. Parsers return false
 * on malformed input; a known header with an unknown version throws
 * SimError(Io), as every versioned format does.
 */

/** HELLO: "vanguard-remote v1" and the worker's pid (never 0). */
std::string serializeWorkerHello(uint64_t pid);
bool parseWorkerHello(const std::string &body, uint64_t *pid);

/** CONFIG: the supervisor's answer to a hello. */
struct WorkerConfig
{
    unsigned leaseMs = 10000;   ///< lease length; RENEW every leaseMs/4
    std::string faultPlan;      ///< job fault plan ("" = disarm)
    std::string netFaultPlan;   ///< network fault plan ("" = disarm)
};
std::string serializeWorkerConfig(const WorkerConfig &cfg);
bool parseWorkerConfig(const std::string &body, WorkerConfig *out);

/** LEASE: a lease id (never 0), its length and one job body. */
std::string serializeLease(uint64_t lease, unsigned lease_ms,
                           const WorkerJob &job);
bool parseLease(const std::string &body, uint64_t *lease,
                unsigned *lease_ms, WorkerJob *job, std::string *error);

/** RESULT: the lease it settles and the serialized WorkerResult. */
std::string serializeResultEnvelope(uint64_t lease,
                                    const WorkerResult &res);
bool parseResultEnvelope(const std::string &body, uint64_t *lease,
                         std::string *result_bytes, std::string *error);

/** RENEW ("vanguard-renew") and ACK ("vanguard-ack") name one lease;
 *  parseLeaseRef returns 0 for a malformed body. */
std::string serializeLeaseRef(const char *magic, uint64_t lease);
uint64_t parseLeaseRef(const std::string &body, const char *magic);

/** DRAIN: a final drain tells the worker to exit. */
std::string serializeDrain(bool final_drain);
bool parseDrain(const std::string &body, bool *final_drain);

/**
 * Per-process execution of one self-contained job body, the core of
 * the worker loop behind runWorkerProcess and runRemoteWorker. Owns the (spec × options × config ×
 * profile) compile cache so every REF seed of a group reuses one
 * artifact, re-enters the job's fault scope past the draws the
 * supervisor consumed, honors the deliberate-crash chaos hooks, and
 * reports per-kind injected-fault deltas in the result. Job failures
 * never throw — they come back as ok=false results carrying the
 * SimError kind/message verbatim, which is what keeps journal bytes
 * identical across execution modes. The job's spec.name must be bound
 * (parseWorkerJob binds it).
 */
class JobBodyRunner
{
  public:
    JobBodyRunner();
    ~JobBodyRunner();

    JobBodyRunner(const JobBodyRunner &) = delete;
    JobBodyRunner &operator=(const JobBodyRunner &) = delete;

    WorkerResult run(const WorkerJob &job);

    /**
     * Advisory running totals across every run() so far — the payload
     * of the live STATS frames. Readable from the renew thread while a
     * job runs; never part of any authoritative result.
     */
    struct BodyStats
    {
        uint64_t jobsDone = 0;
        uint64_t instsRetired = 0;  ///< dynamic insts of ok simulates
        uint64_t cacheHits = 0;     ///< compile-artifact cache hits
        uint64_t cacheMisses = 0;
    };
    BodyStats bodyStats() const;

  private:
    struct Cache;
    std::unique_ptr<Cache> cache_;
    std::atomic<uint64_t> jobsDone_{0};
    std::atomic<uint64_t> instsRetired_{0};
};

/**
 * Raised by WorkerPool::execute and Coordinator::execute for offers
 * discarded by a SIGINT/SIGTERM drain (or a shutdown) before any
 * worker finished them. Deliberately not a SimError: a discarded job
 * did not run and must leave no journal record, no failure-table
 * entry, no retry — exactly like a queued thread-pool job discarded
 * by the in-process drain.
 */
struct JobDiscarded : std::exception
{
    const char *
    what() const noexcept override
    {
        return "job discarded by shutdown drain before lease";
    }
};

/** The options both supervisors share (WorkerPool::Options and
 *  Coordinator::Options extend it). */
struct DispatchOptions
{
    unsigned quarantineDeaths = 3;  ///< K consecutive lost leases
    unsigned restartStormLimit = 10;
    BackoffPolicy backoff{};
    /** Job fault plan forwarded to workers ("" = the ambient armed
     *  plan, if any). */
    std::string faultPlanSpec;
    /** Registry for the engine.worker.* / engine.net.* instruments
     *  (optional). */
    MetricsRegistry *metrics = nullptr;
    /** Live telemetry sink: worker STATS frames feed it, and the lease
     *  table is its /progress source. Advisory only (optional). */
    TelemetryHub *telemetry = nullptr;
};

/** Dispatcher counters. Local peers (WorkerPool) fill the first
 *  group, TCP peers (Coordinator) the second; quarantinedJobs counts
 *  both. */
struct DispatchStats
{
    uint64_t spawns = 0;            ///< successful worker spawns
    uint64_t restarts = 0;          ///< spawns after a loss
    uint64_t heartbeatMisses = 0;   ///< leases expired into a Hang
    uint64_t quarantinedJobs = 0;
    uint64_t dataFrames = 0;        ///< LEASE + RESULT frames

    uint64_t leasesGranted = 0;
    uint64_t leasesExpired = 0;     ///< expired and re-granted
    uint64_t leasesRegranted = 0;
    uint64_t reconnects = 0;
    uint64_t duplicateResults = 0;
    uint64_t frames = 0;            ///< sent + received
};

class WorkerPool
{
  public:
    struct Options : DispatchOptions
    {
        unsigned workers = 1;
        /** Binary to exec ("" = this executable, via /proc/self/exe);
         *  must understand `--worker <fd>`. */
        std::string execPath;
        unsigned heartbeatTimeoutMs = 10000; ///< the local lease length
        unsigned helloTimeoutMs = 10000;
        unsigned rlimitMb = 0;          ///< RLIMIT_AS cap (0 = none)
        unsigned rlimitCpuSec = 0;      ///< RLIMIT_CPU cap (0 = none)
        unsigned reapTimeoutMs = 2000;  ///< graceful-drain deadline
    };

    /** Spawns and handshakes every worker before returning (a failed
     *  spawn is retried with backoff), then starts the dispatcher. */
    explicit WorkerPool(const Options &opts);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Run one job body out of process (blocking; thread-safe; called
     * from pool worker threads). Returns only an ok result. Worker-
     * reported failures rethrow as SimError(kind, message) with the
     * worker's message verbatim; worker deaths redeliver the job to a
     * fresh worker until it completes or kills quarantineDeaths
     * consecutive workers (then SimError(Internal) quarantine); lease
     * expiry SIGKILLs the worker and throws SimError(Hang); a failed
     * LEASE send (real or the injected worker.frame.write fault)
     * throws the transient SimError(Io) the runner retries.
     */
    WorkerResult execute(WorkerJob job);

    /**
     * Graceful drain: final DRAIN frame + exactly one SIGTERM per live
     * worker, bounded reap, SIGKILL stragglers. Idempotent; the
     * destructor calls it. No child of this pool survives it.
     */
    void shutdown();

    /** Live worker pids (test hooks: SIGSTOP/SIGKILL drills). */
    std::vector<int> workerPids() const;

    using Stats = DispatchStats;
    Stats stats() const;

  private:
    std::unique_ptr<Dispatcher> impl_;
};

/**
 * Worker-process entry (the `--worker <fd>` mode of vanguard_cli and
 * of any test binary that embeds the pool): serve the inherited
 * socketpair once, with no reconnect — an orphaned worker exits.
 * Returns the process exit code (0 drained or signalled, 1 lost).
 * Installs the shutdown latch so a process-group SIGINT/SIGTERM
 * finishes the in-flight job before exiting (the supervisor owns
 * drain policy).
 */
int runWorkerProcess(int fd);

/**
 * Remote-worker entry (`vanguard_cli --remote-worker host:port`): the
 * same worker loop against a coordinator (core/coordinator.hh) until a
 * final DRAIN frame or a shutdown signal. Returns the process exit
 * code (0 = drained or signalled). Connection loss is not an error:
 * the loop reconnects with jittered exponential backoff indefinitely,
 * surviving coordinator restarts.
 */
int runRemoteWorker(const std::string &host, uint16_t port);

} // namespace vanguard

#endif // VANGUARD_CORE_WORKER_POOL_HH
