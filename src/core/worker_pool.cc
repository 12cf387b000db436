/**
 * @file
 * Worker-pool implementation: frame-body codecs, the supervisor, and
 * the worker-process entry. See worker_pool.hh for the design.
 */

#include "core/worker_pool.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "core/journal.hh"
#include "profile/profile_io.hh"
#include "support/checksum.hh"
#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/telemetry.hh"
#include "support/versioned_format.hh"

#if defined(__unix__) || defined(__APPLE__)
#define VANGUARD_WORKER_POSIX 1
#include <cerrno>
#include <csignal>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace vanguard {

namespace {

constexpr unsigned kWorkerJobVersion = 1;
constexpr unsigned kWorkerResultVersion = 1;
constexpr unsigned kWorkerConfigVersion = 1;
constexpr unsigned kWorkerHelloVersion = 1;

std::string
hexU64(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** %a hexfloat: exact double round-trip through strtod. */
std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

double
parseHexDouble(const std::string &tok)
{
    return std::strtod(tok.c_str(), nullptr);
}

uint64_t
parseU64(const std::string &tok)
{
    return std::strtoull(tok.c_str(), nullptr, 0);
}

// Frame bodies are built with ipc::appendBlob and walked with
// ipc::BodyCursor — shared with the coordinator's lease codecs.
using ipc::appendBlob;
using Cursor = ipc::BodyCursor;

/**
 * Exact option serialization for job frames. Mirrors the replay
 * bundle's field list (plus width/lockstep, which the bundle
 * carries out-of-band or forces) but encodes doubles
 * as hexfloat so the worker re-derives selection/compilation from
 * bit-identical inputs.
 */
std::string
serializeOptionsExact(const VanguardOptions &o)
{
    std::ostringstream os;
    os << "opt width " << o.width << "\n";
    os << "opt predictor " << o.predictor << "\n";
    os << "opt superblock " << (o.applySuperblock ? 1 : 0) << "\n";
    os << "opt decompose " << (o.applyDecomposition ? 1 : 0) << "\n";
    os << "opt shadow-commit " << (o.shadowCommit ? 1 : 0) << "\n";
    os << "opt dbb-entries " << o.dbbEntries << "\n";
    os << "opt l1i-size-kb " << o.l1iSizeKB << "\n";
    os << "opt icache-prefetch " << (o.icachePrefetch ? 1 : 0) << "\n";
    os << "opt lockstep " << (o.lockstep ? 1 : 0) << "\n";
    os << "opt sel-min-exposed " << hexDouble(o.selection.minExposed)
       << "\n";
    os << "opt sel-min-execs " << o.selection.minExecs << "\n";
    os << "opt sel-min-predictability "
       << hexDouble(o.selection.minPredictability) << "\n";
    os << "opt sel-forward-only " << (o.selection.forwardOnly ? 1 : 0)
       << "\n";
    os << "opt dec-max-hoist " << o.decompose.maxHoistPerPath << "\n";
    os << "opt dec-max-slice " << o.decompose.maxSliceDepth << "\n";
    os << "opt sb-bias-threshold "
       << hexDouble(o.superblock.biasThreshold) << "\n";
    os << "opt sb-min-execs " << o.superblock.minExecs << "\n";
    os << "opt sb-max-hoist " << o.superblock.maxHoist << "\n";
    os << "opt profile-max-insts " << o.profileMaxInsts << "\n";
    os << "opt sim-max-insts " << o.simMaxInsts << "\n";
    os << "opt cycle-budget " << o.simCycleBudget << "\n";
    os << "opt progress-window " << o.simProgressWindow << "\n";
    return os.str();
}

bool
parseOptLine(std::istringstream &ls, VanguardOptions *o)
{
    std::string name, tok;
    ls >> name;
    if (name == "predictor") {
        ls >> o->predictor;
    } else if (name == "width") {
        ls >> o->width;
    } else if (name == "superblock") {
        int v; ls >> v; o->applySuperblock = v != 0;
    } else if (name == "decompose") {
        int v; ls >> v; o->applyDecomposition = v != 0;
    } else if (name == "shadow-commit") {
        int v; ls >> v; o->shadowCommit = v != 0;
    } else if (name == "dbb-entries") {
        ls >> o->dbbEntries;
    } else if (name == "l1i-size-kb") {
        ls >> o->l1iSizeKB;
    } else if (name == "icache-prefetch") {
        int v; ls >> v; o->icachePrefetch = v != 0;
    } else if (name == "lockstep") {
        int v; ls >> v; o->lockstep = v != 0;
    } else if (name == "sel-min-exposed") {
        ls >> tok; o->selection.minExposed = parseHexDouble(tok);
    } else if (name == "sel-min-execs") {
        ls >> o->selection.minExecs;
    } else if (name == "sel-min-predictability") {
        ls >> tok; o->selection.minPredictability = parseHexDouble(tok);
    } else if (name == "sel-forward-only") {
        int v; ls >> v; o->selection.forwardOnly = v != 0;
    } else if (name == "dec-max-hoist") {
        ls >> o->decompose.maxHoistPerPath;
    } else if (name == "dec-max-slice") {
        ls >> o->decompose.maxSliceDepth;
    } else if (name == "sb-bias-threshold") {
        ls >> tok; o->superblock.biasThreshold = parseHexDouble(tok);
    } else if (name == "sb-min-execs") {
        ls >> o->superblock.minExecs;
    } else if (name == "sb-max-hoist") {
        ls >> o->superblock.maxHoist;
    } else if (name == "profile-max-insts") {
        ls >> o->profileMaxInsts;
    } else if (name == "sim-max-insts") {
        ls >> o->simMaxInsts;
    } else if (name == "cycle-budget") {
        ls >> o->simCycleBudget;
    } else if (name == "progress-window") {
        ls >> o->simProgressWindow;
    } else {
        return false; // unknown opts tolerated by the caller
    }
    return true;
}

} // namespace

std::string
serializeWorkerJob(const WorkerJob &job)
{
    std::ostringstream os;
    os << "vanguard-workerjob v" << kWorkerJobVersion << "\n";
    os << "phase " << job.phase << "\n";
    os << "slot " << job.slot << "\n";
    os << "scope " << hexU64(job.scopeKey) << "\n";
    os << "scope-start-draw " << job.scopeStartDraw << "\n";
    os << "delivery " << job.delivery << "\n";
    os << "config " << (job.config == 0 ? "base" : "exp") << "\n";
    os << "seed " << hexU64(job.seed) << "\n";
    os << "collect-stalls " << (job.collectStalls ? 1 : 0) << "\n";

    const BenchmarkSpec &sp = job.spec;
    os << "spec name " << (sp.name != nullptr ? sp.name : "kernel")
       << "\n";
    os << "spec fp " << (sp.fp ? 1 : 0) << "\n";
    os << "spec hammocks " << sp.hammocksPU << ' ' << sp.hammocksBP
       << ' ' << sp.hammocksUP << "\n";
    os << "spec loads-per-succ " << sp.loadsPerSucc << "\n";
    os << "spec chained-succ-loads " << sp.chainedSuccLoads << "\n";
    os << "spec alu-per-succ " << sp.aluPerSucc << "\n";
    os << "spec fp-per-succ " << sp.fpPerSucc << "\n";
    os << "spec stores-per-succ " << sp.storesPerSucc << "\n";
    os << "spec noise-pu " << hexDouble(sp.noisePU) << "\n";
    os << "spec taken-pu " << hexDouble(sp.takenPU) << "\n";
    os << "spec working-set-kb " << sp.workingSetKB << "\n";
    os << "spec stride-lines " << sp.strideLines << "\n";
    os << "spec stores-early " << (sp.storesEarly ? 1 : 0) << "\n";
    os << "spec cond-chain-ops " << sp.condChainOps << "\n";
    os << "spec cold " << sp.coldBlocks << ' ' << sp.coldBlockInsts
       << ' ' << sp.coldPeriod << "\n";
    os << "spec iterations " << sp.iterations << "\n";

    os << serializeOptionsExact(job.options);

    std::string out = os.str();
    appendBlob(&out, "profile", job.profileText);
    return out;
}

bool
parseWorkerJob(const std::string &body, WorkerJob *out,
               std::string *error)
{
    Cursor cur{body};
    std::string line;
    if (!cur.line(&line) ||
        !parseVersionedHeader(line, "vanguard-workerjob",
                              kWorkerJobVersion, nullptr)) {
        *error = "missing vanguard-workerjob header";
        return false;
    }
    while (cur.line(&line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "phase") {
            ls >> out->phase;
        } else if (key == "slot") {
            ls >> out->slot;
        } else if (key == "scope") {
            std::string tok; ls >> tok;
            out->scopeKey = parseU64(tok);
        } else if (key == "scope-start-draw") {
            ls >> out->scopeStartDraw;
        } else if (key == "delivery") {
            ls >> out->delivery;
        } else if (key == "config") {
            std::string c; ls >> c;
            out->config = c == "base" ? 0 : 1;
        } else if (key == "seed") {
            std::string tok; ls >> tok;
            out->seed = parseU64(tok);
        } else if (key == "collect-stalls") {
            int v; ls >> v; out->collectStalls = v != 0;
        } else if (key == "spec") {
            std::string name, tok;
            ls >> name;
            BenchmarkSpec &sp = out->spec;
            if (name == "name") {
                ls >> out->specName;
            } else if (name == "fp") {
                int v; ls >> v; sp.fp = v != 0;
            } else if (name == "hammocks") {
                ls >> sp.hammocksPU >> sp.hammocksBP >> sp.hammocksUP;
            } else if (name == "loads-per-succ") {
                ls >> sp.loadsPerSucc;
            } else if (name == "chained-succ-loads") {
                ls >> sp.chainedSuccLoads;
            } else if (name == "alu-per-succ") {
                ls >> sp.aluPerSucc;
            } else if (name == "fp-per-succ") {
                ls >> sp.fpPerSucc;
            } else if (name == "stores-per-succ") {
                ls >> sp.storesPerSucc;
            } else if (name == "noise-pu") {
                ls >> tok; sp.noisePU = parseHexDouble(tok);
            } else if (name == "taken-pu") {
                ls >> tok; sp.takenPU = parseHexDouble(tok);
            } else if (name == "working-set-kb") {
                ls >> sp.workingSetKB;
            } else if (name == "stride-lines") {
                ls >> sp.strideLines;
            } else if (name == "stores-early") {
                int v; ls >> v; sp.storesEarly = v != 0;
            } else if (name == "cond-chain-ops") {
                ls >> sp.condChainOps;
            } else if (name == "cold") {
                ls >> sp.coldBlocks >> sp.coldBlockInsts
                   >> sp.coldPeriod;
            } else if (name == "iterations") {
                ls >> sp.iterations;
            }
        } else if (key == "opt") {
            parseOptLine(ls, &out->options);
        } else if (key == "blob") {
            std::string name;
            size_t len = 0;
            ls >> name >> len;
            std::string data;
            if (!cur.raw(len, &data)) {
                *error = "truncated blob '" + name + "'";
                return false;
            }
            if (name == "profile")
                out->profileText = std::move(data);
        } else {
            *error = "unknown job key '" + key + "'";
            return false;
        }
    }
    if (out->phase != "train" && out->phase != "simulate") {
        *error = "bad job phase '" + out->phase + "'";
        return false;
    }
    out->bindSpecName();
    return true;
}

std::string
serializeWorkerResult(const WorkerResult &res)
{
    std::ostringstream os;
    os << "vanguard-workerresult v" << kWorkerResultVersion << "\n";
    os << "slot " << res.slot << "\n";
    os << "status " << (res.ok ? "ok" : "fail") << "\n";
    os << "injected";
    for (uint64_t c : res.injected)
        os << ' ' << c;
    os << "\n";
    std::string out = os.str();
    if (res.ok) {
        if (!res.profileText.empty()) {
            appendBlob(&out, "profile", res.profileText);
        } else {
            JournalRecord rec;
            rec.phase = 'S';
            rec.index = res.slot;
            rec.ok = true;
            rec.stats = res.stats;
            appendBlob(&out, "record", serializeJournalRecord(rec));
        }
    } else {
        out += "kind ";
        out += SimError::kindName(res.kind);
        out += "\n";
        appendBlob(&out, "message", res.message);
    }
    return out;
}

bool
parseWorkerResult(const std::string &body, WorkerResult *out,
                  std::string *error)
{
    Cursor cur{body};
    std::string line;
    if (!cur.line(&line) ||
        !parseVersionedHeader(line, "vanguard-workerresult",
                              kWorkerResultVersion, nullptr)) {
        *error = "missing vanguard-workerresult header";
        return false;
    }
    bool saw_record = false;
    while (cur.line(&line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "slot") {
            ls >> out->slot;
        } else if (key == "status") {
            std::string s; ls >> s;
            out->ok = s == "ok";
        } else if (key == "injected") {
            for (uint64_t &c : out->injected)
                ls >> c;
        } else if (key == "kind") {
            std::string k; ls >> k;
            out->kind = SimError::kindFromName(k);
        } else if (key == "blob") {
            std::string name;
            size_t len = 0;
            ls >> name >> len;
            std::string data;
            if (!cur.raw(len, &data)) {
                *error = "truncated blob '" + name + "'";
                return false;
            }
            if (name == "profile") {
                out->profileText = std::move(data);
            } else if (name == "message") {
                out->message = std::move(data);
            } else if (name == "record") {
                JournalRecord rec;
                if (!parseJournalRecord(data, &rec)) {
                    *error = "corrupt stats record in result";
                    return false;
                }
                out->stats = rec.stats;
                saw_record = true;
            }
        } else {
            *error = "unknown result key '" + key + "'";
            return false;
        }
    }
    if (out->ok && out->profileText.empty() && !saw_record) {
        *error = "ok result carries neither profile nor stats";
        return false;
    }
    return true;
}

std::vector<uint64_t>
workerRttBoundsMs()
{
    std::vector<uint64_t> bounds;
    for (uint64_t b = 1; b <= (1u << 16); b <<= 1)
        bounds.push_back(b);
    return bounds;
}

#ifdef VANGUARD_WORKER_POSIX

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

namespace {

std::string
selfExePath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        vg_throw(Config,
                 "cannot resolve this executable's path for worker "
                 "spawn; set an explicit worker exec path");
    return std::string(buf, static_cast<size_t>(n));
}

std::string
describeWaitStatus(int status)
{
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        return detail::csprintf("died on signal %d (%s)", sig,
                                strsignal(sig));
    }
    if (WIFEXITED(status))
        return detail::csprintf("exited with status %d",
                                WEXITSTATUS(status));
    return "vanished with unknown wait status";
}

} // namespace

struct WorkerPool::Slot
{
    size_t idx = 0;
    int pid = -1;
    int fd = -1;
    ipc::FrameChannel chan;
    bool alive = false;
    bool busy = false;
    bool everSpawned = false;
    unsigned spawnFailures = 0;
};

bool
WorkerPool::supported()
{
    return ipc::ipcSupported();
}

WorkerPool::WorkerPool(const Options &opts) : opts_(opts)
{
    if (opts_.workers == 0)
        opts_.workers = 1;
    if (opts_.execPath.empty())
        opts_.execPath = selfExePath();
    if (opts_.faultPlanSpec.empty() && faultinject::armed())
        opts_.faultPlanSpec = faultPlanSpec(faultinject::currentPlan());
    if (opts_.metrics != nullptr)
        opts_.metrics->histogram("engine.worker.job_rtt", workerRttBoundsMs());

    for (unsigned i = 0; i < opts_.workers; ++i) {
        auto slot = std::make_unique<Slot>();
        slot->idx = i;
        slots_.push_back(std::move(slot));
    }
    // Eager spawn: surfaces an unrunnable worker binary (bad exec
    // path, protocol skew) before any job is risked on it. Failures
    // here are tolerated; execute() retries with backoff.
    for (auto &slot : slots_) {
        try {
            spawnWorker(*slot);
        } catch (const SimError &e) {
            vg_warn("worker %zu failed to start: %s", slot->idx,
                    e.detail().c_str());
            slot->spawnFailures++;
            noteLoss("");
        }
    }
}

WorkerPool::~WorkerPool()
{
    try {
        shutdown();
    } catch (...) {
        // Destructor boundary: never throw.
    }
}

void
WorkerPool::bumpCounter(const char *name, uint64_t delta)
{
    if (opts_.metrics != nullptr)
        opts_.metrics->counter(name).add(delta);
}

void
WorkerPool::spawnWorker(Slot &slot)
{
    // Deterministic spawn-fault probe, keyed by a monotonic attempt
    // ordinal so the pattern is independent of the worker count and a
    // failed attempt draws fresh on retry (backoff can make progress).
    uint64_t ordinal;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ordinal = spawnAttempts_++;
    }
    {
        faultinject::Scope scope(
            workerKillScope(uint64_t{0x5350574e}, ordinal));
        faultinject::site("worker.spawn", SimError::Kind::Io);
    }

    int fds[2];
    ipc::makeSocketPair(fds);
    char fdarg[16];
    std::snprintf(fdarg, sizeof(fdarg), "%d", fds[1]);
    const char *argv[4];
    argv[0] = opts_.execPath.c_str();
    argv[1] = "--worker";
    argv[2] = fdarg;
    argv[3] = nullptr;

    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        vg_throw(Io, "fork failed for worker %zu: %s", slot.idx,
                 std::strerror(errno));
    }
    if (pid == 0) {
        // Child: async-signal-safe calls only between fork and exec.
        if (opts_.rlimitMb != 0) {
            struct rlimit rl;
            rl.rlim_cur = rl.rlim_max =
                static_cast<rlim_t>(opts_.rlimitMb) << 20;
            ::setrlimit(RLIMIT_AS, &rl);
        }
        if (opts_.rlimitCpuSec != 0) {
            struct rlimit rl;
            rl.rlim_cur = rl.rlim_max = opts_.rlimitCpuSec;
            ::setrlimit(RLIMIT_CPU, &rl);
        }
        ::execv(argv[0], const_cast<char *const *>(argv));
        ::_exit(127);
    }
    ::close(fds[1]);
    {
        // workerPids() reads these fields concurrently.
        std::lock_guard<std::mutex> lock(mutex_);
        slot.pid = pid;
        slot.fd = fds[0];
    }
    slot.chan.reset(fds[0]);

    // Handshake: hello within the deadline, versioned header, then
    // the config frame (heartbeat interval + fault plan).
    bool hello_ok = false;
    std::string why;
    try {
        ipc::Frame hello;
        ipc::ReadStatus st =
            slot.chan.read(&hello,
                           static_cast<int>(opts_.helloTimeoutMs));
        if (st != ipc::ReadStatus::Ok) {
            why = st == ipc::ReadStatus::Eof
                      ? "worker exited before hello"
                      : "worker hello timed out";
        } else if (hello.type != ipc::kFrameHello) {
            why = detail::csprintf("expected hello, got frame '%c'",
                                   hello.type);
        } else {
            std::string first = hello.body.substr(
                0, hello.body.find('\n'));
            if (!parseVersionedHeader(first, "vanguard-worker",
                                      kWorkerHelloVersion, nullptr)) {
                why = "worker hello carries no vanguard-worker header";
            } else {
                std::ostringstream cfg;
                cfg << "vanguard-workerconfig v"
                    << kWorkerConfigVersion << "\n";
                cfg << "heartbeat-ms " << opts_.heartbeatTimeoutMs
                    << "\n";
                std::string body = cfg.str();
                appendBlob(&body, "fault-plan", opts_.faultPlanSpec);
                ipc::writeFrame(slot.fd, ipc::kFrameConfig, body);
                hello_ok = true;
            }
        }
    } catch (const SimError &e) {
        why = e.detail();
    }
    if (!hello_ok) {
        killWorker(slot, false);
        vg_throw(Io, "worker %zu (pid %d) handshake failed: %s",
                 slot.idx, pid, why.c_str());
    }

    slot.spawnFailures = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slot.alive = true;
        if (slot.everSpawned) {
            stats_.restarts++;
        } else {
            stats_.spawns++;
        }
    }
    if (slot.everSpawned)
        bumpCounter("engine.worker.restarts");
    slot.everSpawned = true;
}

void
WorkerPool::killWorker(Slot &slot, bool already_dead)
{
    int pid, fd;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pid = slot.pid;
        fd = slot.fd;
        slot.pid = -1;
        slot.fd = -1;
        slot.alive = false;
    }
    if (pid > 0) {
        if (!already_dead)
            ::kill(pid, SIGKILL);
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    if (fd >= 0)
        ::close(fd);
}

std::string
WorkerPool::reapWorker(Slot &slot)
{
    int pid, fd;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pid = slot.pid;
        fd = slot.fd;
        slot.pid = -1;
        slot.fd = -1;
        slot.alive = false;
    }
    int status = 0;
    pid_t r;
    while ((r = ::waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
    }
    std::string fate = r == pid ? describeWaitStatus(status)
                                : "could not be reaped";
    if (fd >= 0)
        ::close(fd);
    return fate;
}

void
WorkerPool::noteLoss(const std::string &job_key)
{
    (void)job_key;
    std::lock_guard<std::mutex> lock(mutex_);
    if (++consecutiveLosses_ > opts_.restartStormLimit && !broken_) {
        broken_ = true;
        brokenReason_ = detail::csprintf(
            "worker restart storm: %u consecutive worker losses with "
            "no completed job; breaking the pool",
            consecutiveLosses_);
    }
}

void
WorkerPool::noteCompletion()
{
    std::lock_guard<std::mutex> lock(mutex_);
    consecutiveLosses_ = 0;
}

size_t
WorkerPool::acquireSlot()
{
    std::unique_lock<std::mutex> lock(mutex_);
    slotFree_.wait(lock, [&] {
        for (auto &s : slots_)
            if (!s->busy)
                return true;
        return false;
    });
    // Prefer a live worker; fall back to a dead slot (respawned by
    // ensureAlive).
    for (auto &s : slots_) {
        if (!s->busy && s->alive) {
            s->busy = true;
            return s->idx;
        }
    }
    for (auto &s : slots_) {
        if (!s->busy) {
            s->busy = true;
            return s->idx;
        }
    }
    vg_throw(Invariant, "acquireSlot woke without a free slot");
}

void
WorkerPool::releaseSlot(size_t idx)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[idx]->busy = false;
    }
    slotFree_.notify_one();
}

void
WorkerPool::ensureAlive(Slot &slot)
{
    while (!slot.alive) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (broken_)
                throw SimError(SimError::Kind::Internal,
                               brokenReason_);
        }
        unsigned delay = opts_.backoff.delayMs(slot.spawnFailures);
        if (delay != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        try {
            spawnWorker(slot);
        } catch (const SimError &e) {
            slot.spawnFailures++;
            noteLoss("");
            vg_warn("worker %zu respawn failed (attempt %u): %s",
                    slot.idx, slot.spawnFailures, e.detail().c_str());
        }
    }
}

WorkerResult
WorkerPool::execute(WorkerJob job)
{
    job.bindSpecName();
    const std::string key =
        job.phase + ":" + std::to_string(job.slot);

    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (broken_)
                throw SimError(SimError::Kind::Internal,
                               brokenReason_);
        }
        size_t idx = acquireSlot();
        Slot &slot = *slots_[idx];

        try {
            ensureAlive(slot);
        } catch (...) {
            releaseSlot(idx);
            throw;
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            job.delivery = deliveries_[key]++;
        }

        // Dispatch. A write failure (real or injected) means the
        // stream's integrity is unknown: restart the worker and let
        // the transient Io error reach the runner's retry logic.
        try {
            faultinject::site("worker.frame.write",
                              SimError::Kind::Io);
            ipc::writeFrame(slot.fd, ipc::kFrameJob,
                            serializeWorkerJob(job));
        } catch (const SimError &) {
            killWorker(slot, false);
            noteLoss(key);
            releaseSlot(idx);
            throw;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.dataFrames++;
        }
        bumpCounter("engine.worker.frames");

        auto t0 = std::chrono::steady_clock::now();
        bool worker_lost = false;
        std::string fate;
        WorkerResult res;

        // Await the result; every received frame re-arms the
        // heartbeat deadline, so the poll timeout IS the watchdog.
        for (;;) {
            ipc::Frame f;
            ipc::ReadStatus st;
            try {
                st = slot.chan.read(
                    &f, static_cast<int>(opts_.heartbeatTimeoutMs));
            } catch (const SimError &e) {
                // CRC mismatch / garbage length: protocol desync.
                killWorker(slot, false);
                worker_lost = true;
                fate = "protocol desync (" + e.detail() + ")";
                break;
            }
            if (st == ipc::ReadStatus::Timeout) {
                int pid = slot.pid;
                killWorker(slot, false);
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    stats_.heartbeatMisses++;
                }
                bumpCounter("engine.worker.heartbeat_misses");
                flightRecord("error", "worker.heartbeat_miss",
                             detail::csprintf(
                                 "pid %d silent past %u ms during %s "
                                 "job %zu",
                                 pid, opts_.heartbeatTimeoutMs,
                                 job.phase.c_str(), job.slot));
                // A hang is a determination about the job, not a
                // supervision failure: non-transient, no quarantine
                // bookkeeping (the runner will not retry it).
                noteCompletion();
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    consecutiveDeaths_.erase(key);
                }
                releaseSlot(idx);
                vg_throw(Hang,
                         "worker heartbeat deadline (%u ms) missed; "
                         "killed worker pid %d during %s job %zu",
                         opts_.heartbeatTimeoutMs, pid,
                         job.phase.c_str(), job.slot);
            }
            if (st == ipc::ReadStatus::Eof) {
                fate = reapWorker(slot);
                worker_lost = true;
                break;
            }
            if (f.type == ipc::kFrameHeartbeat)
                continue;
            if (f.type == ipc::kFrameStats) {
                // Advisory live stats: feed the hub and move on. A
                // malformed body is dropped, never a desync —
                // telemetry must not be able to kill a worker.
                PeerStats ps;
                if (opts_.telemetry != nullptr &&
                    parsePeerStats(f.body, &ps)) {
                    ps.identity = detail::csprintf(
                        "slot%zu:pid%d", idx, slot.pid);
                    opts_.telemetry->notePeerStats(ps);
                }
                continue;
            }
            if (f.type == ipc::kFrameResult) {
                std::string err;
                WorkerResult parsed;
                if (!parseWorkerResult(f.body, &parsed, &err)) {
                    killWorker(slot, false);
                    worker_lost = true;
                    fate = "protocol desync (" + err + ")";
                    break;
                }
                res = std::move(parsed);
                goto have_result;
            }
            // Unknown frame type: desync.
            killWorker(slot, false);
            worker_lost = true;
            fate = detail::csprintf("protocol desync (frame '%c')",
                                    f.type);
            break;
        }

        if (worker_lost) {
            unsigned deaths;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                deaths = ++consecutiveDeaths_[key];
            }
            noteLoss(key);
            releaseSlot(idx);
            flightRecord("event", "worker.lost",
                         detail::csprintf("%s during %s job %zu "
                                          "(death %u)",
                                          fate.c_str(),
                                          job.phase.c_str(), job.slot,
                                          deaths));
            if (deaths >= opts_.quarantineDeaths) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    stats_.quarantinedJobs++;
                    consecutiveDeaths_.erase(key);
                }
                bumpCounter("engine.worker.quarantined_jobs");
                flightRecord("error", "worker.quarantine",
                             detail::csprintf("%s job %zu killed %u "
                                              "consecutive workers",
                                              job.phase.c_str(),
                                              job.slot, deaths));
                vg_throw(Internal,
                         "poison job quarantined: %s job %zu killed "
                         "%u consecutive workers (last worker %s)",
                         job.phase.c_str(), job.slot, deaths,
                         fate.c_str());
            }
            vg_warn("worker running %s job %zu %s; redelivering "
                    "(death %u of %u)",
                    job.phase.c_str(), job.slot, fate.c_str(), deaths,
                    opts_.quarantineDeaths);
            continue; // redeliver on a fresh worker
        }

    have_result:
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.dataFrames++;
            consecutiveDeaths_.erase(key);
        }
        bumpCounter("engine.worker.frames");
        noteCompletion();
        for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
            faultinject::recordRemoteInjections(
                static_cast<SimError::Kind>(k), res.injected[k]);
        if (opts_.metrics != nullptr) {
            auto rtt =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            opts_.metrics
                ->histogram("engine.worker.job_rtt", workerRttBoundsMs())
                .observe(static_cast<uint64_t>(rtt));
        }
        releaseSlot(idx);
        if (!res.ok)
            throw SimError(res.kind, res.message);
        return res;
    }
}

void
WorkerPool::shutdown()
{
    std::vector<Slot *> live;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdownDone_)
            return;
        shutdownDone_ = true;
        for (auto &s : slots_)
            if (s->pid > 0)
                live.push_back(s.get());
    }

    // Graceful phase: QUIT frame + exactly one SIGTERM per worker.
    for (Slot *s : live) {
        try {
            ipc::writeFrame(s->fd, ipc::kFrameQuit, "");
        } catch (const SimError &) {
            // Already dead; the reap below sorts it out.
        }
        ::kill(s->pid, SIGTERM);
    }

    // Bounded reap; SIGKILL stragglers. No zombie survives this.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(opts_.reapTimeoutMs);
    std::vector<Slot *> pending = live;
    while (!pending.empty() &&
           std::chrono::steady_clock::now() < deadline) {
        for (size_t i = 0; i < pending.size();) {
            int status = 0;
            pid_t r = ::waitpid(pending[i]->pid, &status, WNOHANG);
            if (r == pending[i]->pid || (r < 0 && errno == ECHILD)) {
                pending[i]->pid = -1;
                pending.erase(pending.begin() +
                              static_cast<long>(i));
            } else {
                ++i;
            }
        }
        if (!pending.empty())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    for (Slot *s : pending) {
        ::kill(s->pid, SIGKILL);
        int status = 0;
        while (::waitpid(s->pid, &status, 0) < 0 && errno == EINTR) {
        }
        s->pid = -1;
    }
    for (Slot *s : live) {
        if (s->fd >= 0)
            ::close(s->fd);
        s->fd = -1;
        s->alive = false;
    }
}

std::vector<int>
WorkerPool::workerPids() const
{
    std::vector<int> pids;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &s : slots_)
        if (s->alive && s->pid > 0)
            pids.push_back(s->pid);
    return pids;
}

WorkerPool::Stats
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

// ---------------------------------------------------------------------
// Worker-process entry
// ---------------------------------------------------------------------

namespace {

/**
 * Per-(spec, width, config, profile, options) compile cache: a worker
 * simulates every REF seed of a group against one compiled artifact,
 * exactly as the in-process runner shares artifacts across seed jobs.
 */
struct ArtifactCache
{
    struct Entry
    {
        uint64_t key;
        CompiledConfig config;
    };
    std::vector<Entry> entries;

    static uint64_t
    keyOf(const WorkerJob &job)
    {
        std::string material = serializeOptionsExact(job.options);
        material += '|';
        material += job.specName;
        material += '|';
        material += std::to_string(job.config);
        material += '|';
        material += std::to_string(job.spec.iterations);
        uint64_t h = fnv1a64(material);
        return h ^ (fnv1a64(job.profileText) * 0x9e3779b97f4a7c15ull);
    }

    CompiledConfig &
    get(const WorkerJob &job, bool *hit_out)
    {
        uint64_t key = keyOf(job);
        for (Entry &e : entries)
            if (e.key == key) {
                if (hit_out != nullptr)
                    *hit_out = true;
                return e.config;
            }
        if (hit_out != nullptr)
            *hit_out = false;
        ProfileParseResult parsed =
            deserializeProfile(job.profileText);
        if (!parsed.ok)
            vg_throw(Io, "job frame carries unreadable profile: %s",
                     parsed.error.c_str());
        TrainArtifacts train = trainFromProfile(
            job.spec, std::move(parsed.profile), job.options);
        bool decomposed =
            job.config == 1 && job.options.applyDecomposition;
        entries.push_back(
            {key, compileConfig(job.spec, train, decomposed,
                                job.options)});
        return entries.back().config;
    }
};

/** Deliberate-crash hooks: the VANGUARD_WORKER_SEGV_SLOT chaos knob
 *  ("<phase>:<slot>" SIGSEGVs that job on every delivery — the
 *  poison-job drill) and the worker.kill fault site (see the site
 *  catalog in fault_inject.hh). */
void
maybeDeliberateCrash(const WorkerJob &job)
{
    const char *env = std::getenv("VANGUARD_WORKER_SEGV_SLOT");
    if (env != nullptr && *env != '\0') {
        std::string want(env);
        if (want == job.phase + ":" + std::to_string(job.slot)) {
            volatile int *p = nullptr;
            *p = 1; // intentional SIGSEGV
        }
    }
    if (faultinject::armed()) {
        faultinject::Scope scope(
            workerKillScope(job.scopeKey, job.delivery));
        if (faultinject::siteFires("worker.kill",
                                   SimError::Kind::Internal))
            ::raise(SIGKILL);
    }
}

} // namespace

struct JobBodyRunner::Cache
{
    ArtifactCache artifacts;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
};

JobBodyRunner::JobBodyRunner() : cache_(new Cache) {}
JobBodyRunner::~JobBodyRunner() = default;

JobBodyRunner::BodyStats
JobBodyRunner::bodyStats() const
{
    BodyStats out;
    out.jobsDone = jobsDone_.load(std::memory_order_relaxed);
    out.instsRetired = instsRetired_.load(std::memory_order_relaxed);
    if (cache_ != nullptr) {
        out.cacheHits = cache_->hits.load(std::memory_order_relaxed);
        out.cacheMisses =
            cache_->misses.load(std::memory_order_relaxed);
    }
    return out;
}

WorkerResult
JobBodyRunner::run(const WorkerJob &job)
{
    maybeDeliberateCrash(job);

    WorkerResult res;
    res.slot = job.slot;
    uint64_t before[FaultPlan::kNumKinds];
    for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
        before[k] =
            faultinject::injectedCount(static_cast<SimError::Kind>(k));

    try {
        // Re-enter the job's fault scope past the draws the
        // supervisor consumed, so in-body sites fire exactly as they
        // would in the in-process pool.
        faultinject::Scope scope(job.scopeKey, job.scopeStartDraw);
        if (job.phase == "train") {
            TrainArtifacts train = trainBenchmark(job.spec, job.options);
            res.profileText = serializeProfile(train.profile);
        } else {
            bool hit = false;
            CompiledConfig &config = cache_->artifacts.get(job, &hit);
            (hit ? cache_->hits : cache_->misses)
                .fetch_add(1, std::memory_order_relaxed);
            res.stats = simulateConfig(job.spec, config, job.options,
                                       job.seed, job.collectStalls);
            instsRetired_.fetch_add(res.stats.dynamicInsts,
                                    std::memory_order_relaxed);
        }
        res.ok = true;
        jobsDone_.fetch_add(1, std::memory_order_relaxed);
    } catch (const SimError &e) {
        res.ok = false;
        res.kind = e.kind();
        res.message = e.detail();
    } catch (const std::exception &e) {
        res.ok = false;
        res.kind = SimError::Kind::Internal;
        res.message = e.what();
    }

    for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
        res.injected[k] =
            faultinject::injectedCount(static_cast<SimError::Kind>(k)) -
            before[k];
    return res;
}

int
runWorkerProcess(int fd)
{
    // A process-group SIGINT/SIGTERM latches the drain flag; the
    // in-flight job finishes and the loop exits cleanly. The
    // supervisor owns actual kill policy.
    installShutdownHandlers();

    ipc::FrameChannel chan(fd);
    try {
        std::ostringstream hello;
        hello << "vanguard-worker v" << kWorkerHelloVersion << "\n";
        hello << "pid " << ::getpid() << "\n";
        ipc::writeFrame(fd, ipc::kFrameHello, hello.str());
    } catch (const SimError &) {
        return 1;
    }

    std::mutex write_mutex;
    std::atomic<bool> stopping{false};
    std::atomic<bool> job_active{false};
    std::atomic<uint64_t> hb_scope{0};
    std::atomic<unsigned> hb_interval_ms{
        heartbeatIntervalMs(10000)};
    JobBodyRunner runner;   ///< before the heartbeat thread: it reads
                            ///< bodyStats() for the STATS frames
    std::mutex meta_mutex;
    std::string cur_phase;  ///< under meta_mutex

    std::thread heartbeat([&] {
        while (!stopping.load(std::memory_order_relaxed)) {
            unsigned interval = hb_interval_ms.load();
            unsigned slept = 0;
            // Sleep in small steps so stopping stays prompt even
            // with long intervals.
            while (slept < interval &&
                   !stopping.load(std::memory_order_relaxed)) {
                unsigned step =
                    interval - slept < 25 ? interval - slept : 25;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(step));
                slept += step;
            }
            if (stopping.load(std::memory_order_relaxed))
                break;
            if (!job_active.load(std::memory_order_acquire))
                continue;
            bool suppress = false;
            {
                // Per-job suppression pattern: every beat of a job
                // draws under the same key at draw 0 (see
                // workerHeartbeatScope). siteFires never counts, so
                // injected-gauge identity across modes holds.
                faultinject::Scope scope(
                    workerHeartbeatScope(hb_scope.load()));
                suppress = faultinject::siteFires(
                    "worker.heartbeat", SimError::Kind::Hang);
            }
            if (suppress)
                continue;
            std::lock_guard<std::mutex> lock(write_mutex);
            try {
                ipc::writeFrame(fd, ipc::kFrameHeartbeat, "");
                // Ride an advisory STATS frame on each *delivered*
                // beat. Gating stats on the same suppression draw
                // matters: a fault plan that silences a job's beats
                // must silence its stats too, or the extra frames
                // would keep re-arming the supervisor's watchdog
                // deadline.
                PeerStats ps;
                ps.pid = static_cast<uint64_t>(::getpid());
                {
                    std::lock_guard<std::mutex> mlock(meta_mutex);
                    ps.phase = cur_phase;
                }
                JobBodyRunner::BodyStats bs = runner.bodyStats();
                ps.jobsDone = bs.jobsDone;
                ps.instsRetired = bs.instsRetired;
                ps.cacheHits = bs.cacheHits;
                ps.cacheMisses = bs.cacheMisses;
                ipc::writeFrame(fd, ipc::kFrameStats,
                                serializePeerStats(ps));
            } catch (const SimError &) {
                // Supervisor gone; the main loop will see EOF.
            }
        }
    });

    int exit_code = 0;
    for (;;) {
        if (shutdownRequested())
            break;
        ipc::Frame frame;
        ipc::ReadStatus st;
        try {
            st = chan.read(&frame, 250);
        } catch (const SimError &) {
            exit_code = 1; // desync from the supervisor: bail loudly
            break;
        }
        if (st == ipc::ReadStatus::Timeout)
            continue;
        if (st == ipc::ReadStatus::Eof)
            break; // supervisor gone: orphaned workers self-clean
        if (frame.type == ipc::kFrameQuit)
            break;
        if (frame.type == ipc::kFrameConfig) {
            unsigned deadline_ms = 10000;
            std::string plan_spec;
            Cursor cur{frame.body};
            std::string line;
            bool ok = cur.line(&line) &&
                      parseVersionedHeader(line,
                                           "vanguard-workerconfig",
                                           kWorkerConfigVersion,
                                           nullptr);
            while (ok && cur.line(&line)) {
                std::istringstream ls(line);
                std::string key;
                ls >> key;
                if (key == "heartbeat-ms") {
                    ls >> deadline_ms;
                } else if (key == "blob") {
                    std::string name;
                    size_t len = 0;
                    ls >> name >> len;
                    std::string data;
                    if (!cur.raw(len, &data)) {
                        ok = false;
                        break;
                    }
                    if (name == "fault-plan")
                        plan_spec = std::move(data);
                }
            }
            if (!ok) {
                exit_code = 1;
                break;
            }
            hb_interval_ms.store(heartbeatIntervalMs(deadline_ms));
            if (plan_spec.empty()) {
                faultinject::disarm();
            } else {
                try {
                    faultinject::arm(parseFaultPlan(plan_spec));
                } catch (const SimError &) {
                    exit_code = 1;
                    break;
                }
            }
            continue;
        }
        if (frame.type != ipc::kFrameJob)
            continue; // forward compatibility: skip unknown frames

        WorkerJob job;
        std::string err;
        if (!parseWorkerJob(frame.body, &job, &err)) {
            exit_code = 1;
            break;
        }

        hb_scope.store(job.scopeKey);
        {
            std::lock_guard<std::mutex> mlock(meta_mutex);
            cur_phase = job.phase;
        }
        job_active.store(true, std::memory_order_release);
        WorkerResult res = runner.run(job);
        job_active.store(false, std::memory_order_release);

        std::lock_guard<std::mutex> lock(write_mutex);
        try {
            ipc::writeFrame(fd, ipc::kFrameResult,
                            serializeWorkerResult(res));
        } catch (const SimError &) {
            exit_code = 1;
            break;
        }
    }

    stopping.store(true, std::memory_order_relaxed);
    heartbeat.join();
    return exit_code;
}

#else // !VANGUARD_WORKER_POSIX

struct WorkerPool::Slot
{
};

bool
WorkerPool::supported()
{
    return false;
}

WorkerPool::WorkerPool(const Options &opts) : opts_(opts)
{
    vg_throw(Config,
             "process isolation is not supported on this platform");
}

WorkerPool::~WorkerPool() = default;

WorkerResult
WorkerPool::execute(WorkerJob)
{
    vg_throw(Config,
             "process isolation is not supported on this platform");
}

void WorkerPool::shutdown() {}

std::vector<int>
WorkerPool::workerPids() const
{
    return {};
}

WorkerPool::Stats
WorkerPool::stats() const
{
    return {};
}

int
runWorkerProcess(int)
{
    return 2;
}

struct JobBodyRunner::Cache
{
};

JobBodyRunner::JobBodyRunner() : cache_(nullptr) {}
JobBodyRunner::~JobBodyRunner() = default;

JobBodyRunner::BodyStats
JobBodyRunner::bodyStats() const
{
    return {};
}

WorkerResult
JobBodyRunner::run(const WorkerJob &)
{
    vg_throw(Config,
             "process isolation is not supported on this platform");
}

#endif // VANGUARD_WORKER_POSIX

} // namespace vanguard
