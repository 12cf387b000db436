/**
 * @file
 * Frame-body codecs and the worker loop shared by `--worker` and
 * `--remote-worker`. See worker_pool.hh for the design; the supervisor
 * side (WorkerPool and Coordinator over one lease dispatcher) is in
 * coordinator.cc.
 */

#include "core/worker_pool.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/journal.hh"
#include "profile/profile_io.hh"
#include "support/checksum.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/telemetry.hh"
#include "support/versioned_format.hh"

namespace vanguard {

namespace {

/** Every frame body of the protocol is at this version. */
constexpr unsigned kBodyVersion = 1;

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

using ipc::appendBlob;

/**
 * Walk a frame body: check its "<magic> v1" header, then hand each
 * non-empty text line to on_line(key, rest) and each blob to
 * on_blob(name, bytes); either may return false to fail the parse.
 * False on a missing header or a blob that overruns the body.
 */
template <class OnLine, class OnBlob>
bool
walkBody(const std::string &body, const char *magic, std::string *error,
         OnLine on_line, OnBlob on_blob)
{
    ipc::BodyCursor cur{body};
    std::string line;
    if (!cur.line(&line) ||
        !parseVersionedHeader(line, magic, kBodyVersion, nullptr)) {
        *error = std::string("missing ") + magic + " header";
        return false;
    }
    while (cur.line(&line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key != "blob") {
            if (!on_line(key, ls))
                return false;
            continue;
        }
        std::string name, data;
        size_t len = 0;
        ls >> name >> len;
        if (!cur.raw(len, &data)) {
            *error = "truncated blob '" + name + "'";
            return false;
        }
        if (!on_blob(name, data))
            return false;
    }
    return true;
}

/** For bodies whose blobs, if any, are ignored. */
bool
skipBlob(const std::string &, std::string &)
{
    return true;
}

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
    os << "vanguard-workerjob v" << kBodyVersion << "\n";
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
    auto on_line = [&](const std::string &key, std::istringstream &ls) {
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
        } else {
            *error = "unknown job key '" + key + "'";
            return false;
        }
        return true;
    };
    auto on_blob = [&](const std::string &name, std::string &data) {
        if (name == "profile")
            out->profileText = std::move(data);
        return true;
    };
    if (!walkBody(body, "vanguard-workerjob", error, on_line, on_blob))
        return false;
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
    os << "vanguard-workerresult v" << kBodyVersion << "\n";
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
    bool saw_record = false;
    auto on_line = [&](const std::string &key, std::istringstream &ls) {
        if (key == "slot") {
            ls >> out->slot;
        } else if (key == "status") {
            std::string st; ls >> st;
            out->ok = st == "ok";
        } else if (key == "injected") {
            for (uint64_t &c : out->injected)
                ls >> c;
        } else if (key == "kind") {
            std::string k; ls >> k;
            out->kind = SimError::kindFromName(k);
        } else {
            *error = "unknown result key '" + key + "'";
            return false;
        }
        return true;
    };
    auto on_blob = [&](const std::string &name, std::string &data) {
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
        return true;
    };
    if (!walkBody(body, "vanguard-workerresult", error, on_line,
                  on_blob))
        return false;
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

// ---------------------------------------------------------------------
// Lease-protocol bodies
// ---------------------------------------------------------------------

std::string
serializeWorkerHello(uint64_t pid)
{
    return detail::csprintf("vanguard-remote v%u\npid %llu\n",
                            kBodyVersion,
                            static_cast<unsigned long long>(pid));
}

bool
parseWorkerHello(const std::string &body, uint64_t *pid)
{
    std::string error;
    *pid = 0;
    bool ok = walkBody(
        body, "vanguard-remote", &error,
        [&](const std::string &key, std::istringstream &ls) {
            return key != "pid" || static_cast<bool>(ls >> *pid);
        },
        skipBlob);
    return ok && *pid != 0;
}

std::string
serializeWorkerConfig(const WorkerConfig &cfg)
{
    std::string body =
        detail::csprintf("vanguard-workerconfig v%u\nheartbeat-ms %u\n",
                         kBodyVersion, cfg.leaseMs);
    appendBlob(&body, "fault-plan", cfg.faultPlan);
    appendBlob(&body, "net-fault-plan", cfg.netFaultPlan);
    return body;
}

bool
parseWorkerConfig(const std::string &body, WorkerConfig *out)
{
    std::string error;
    bool ok = walkBody(
        body, "vanguard-workerconfig", &error,
        [&](const std::string &key, std::istringstream &ls) {
            return key != "heartbeat-ms" ||
                   static_cast<bool>(ls >> out->leaseMs);
        },
        [&](const std::string &name, std::string &data) {
            if (name == "fault-plan")
                out->faultPlan = std::move(data);
            else if (name == "net-fault-plan")
                out->netFaultPlan = std::move(data);
            return true;
        });
    if (out->leaseMs == 0)
        out->leaseMs = 1;
    return ok;
}

std::string
serializeLease(uint64_t lease, unsigned lease_ms, const WorkerJob &job)
{
    std::string body =
        detail::csprintf("vanguard-lease v%u\nlease %llu\nlease-ms %u\n",
                         kBodyVersion,
                         static_cast<unsigned long long>(lease), lease_ms);
    appendBlob(&body, "job", serializeWorkerJob(job));
    return body;
}

bool
parseLease(const std::string &body, uint64_t *lease, unsigned *lease_ms,
           WorkerJob *job, std::string *error)
{
    *lease = 0;
    std::string job_bytes;
    bool ok = walkBody(
        body, "vanguard-lease", error,
        [&](const std::string &key, std::istringstream &ls) {
            if (key == "lease")
                ls >> *lease;
            else if (key == "lease-ms")
                ls >> *lease_ms;
            return true;
        },
        [&](const std::string &name, std::string &data) {
            if (name == "job")
                job_bytes = std::move(data);
            return true;
        });
    if (!ok)
        return false;
    if (*lease == 0) {
        *error = "lease carries no lease id";
        return false;
    }
    if (*lease_ms == 0)
        *lease_ms = 1;
    return parseWorkerJob(job_bytes, job, error);
}

std::string
serializeResultEnvelope(uint64_t lease, const WorkerResult &res)
{
    std::string body =
        detail::csprintf("vanguard-remoteresult v%u\nlease %llu\n",
                         kBodyVersion,
                         static_cast<unsigned long long>(lease));
    appendBlob(&body, "result", serializeWorkerResult(res));
    return body;
}

bool
parseResultEnvelope(const std::string &body, uint64_t *lease,
                    std::string *result_bytes, std::string *error)
{
    *lease = 0;
    bool have_result = false;
    bool ok = walkBody(
        body, "vanguard-remoteresult", error,
        [&](const std::string &key, std::istringstream &ls) {
            if (key == "lease")
                ls >> *lease;
            return true;
        },
        [&](const std::string &name, std::string &data) {
            if (name == "result") {
                *result_bytes = std::move(data);
                have_result = true;
            }
            return true;
        });
    if (ok && (*lease == 0 || !have_result)) {
        *error = "malformed result frame";
        return false;
    }
    return ok;
}

std::string
serializeLeaseRef(const char *magic, uint64_t lease)
{
    return detail::csprintf("%s v%u\nlease %llu\n", magic, kBodyVersion,
                            static_cast<unsigned long long>(lease));
}

uint64_t
parseLeaseRef(const std::string &body, const char *magic)
{
    std::string error;
    uint64_t lease = 0;
    bool ok = walkBody(
        body, magic, &error,
        [&](const std::string &key, std::istringstream &ls) {
            return key != "lease" || static_cast<bool>(ls >> lease);
        },
        skipBlob);
    return ok ? lease : 0;
}

std::string
serializeDrain(bool final_drain)
{
    return detail::csprintf("vanguard-drain v%u\nfinal %d\n",
                            kBodyVersion, final_drain ? 1 : 0);
}

bool
parseDrain(const std::string &body, bool *final_drain)
{
    std::string error;
    int v = -1;
    bool ok = walkBody(
        body, "vanguard-drain", &error,
        [&](const std::string &key, std::istringstream &ls) {
            return key != "final" || static_cast<bool>(ls >> v);
        },
        skipBlob);
    *final_drain = v == 1;
    return ok && (v == 0 || v == 1);
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

namespace {

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

/**
 * Per-(spec, width, config, profile, options) compile cache: a worker
 * simulates every REF seed of a group against one compiled artifact,
 * exactly as the in-process runner shares artifacts across seed jobs.
 */
struct JobBodyRunner::Cache
{
    struct Entry
    {
        uint64_t key;
        CompiledConfig config;
    };
    std::vector<Entry> entries;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};

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
    get(const WorkerJob &job)
    {
        uint64_t key = keyOf(job);
        for (Entry &e : entries)
            if (e.key == key) {
                hits.fetch_add(1, std::memory_order_relaxed);
                return e.config;
            }
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
        misses.fetch_add(1, std::memory_order_relaxed);
        return entries.back().config;
    }
};

JobBodyRunner::JobBodyRunner() : cache_(new Cache) {}
JobBodyRunner::~JobBodyRunner() = default;

JobBodyRunner::BodyStats
JobBodyRunner::bodyStats() const
{
    BodyStats out;
    out.jobsDone = jobsDone_.load(std::memory_order_relaxed);
    out.instsRetired = instsRetired_.load(std::memory_order_relaxed);
    out.cacheHits = cache_->hits.load(std::memory_order_relaxed);
    out.cacheMisses = cache_->misses.load(std::memory_order_relaxed);
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
            CompiledConfig &config = cache_->get(job);
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

namespace {

/** One worker connection: the socket, its net.* draw stream, and the
 *  lease length the supervisor last set. */
struct WorkerConn
{
    WorkerConn(int fd_, uint64_t conn_scope)
        : fd(fd_), chan(fd_), connScope(conn_scope)
    {
    }

    int fd;
    ipc::FrameChannel chan;
    uint64_t connScope;
    uint64_t drawCursor = 0;
    std::mutex writeMutex;
    unsigned leaseMs = 10000;

    ipc::SendStatus
    send(char type, const std::string &body)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        return ipc::sendFrameNet(fd, type, body, connScope,
                                 &drawCursor);
    }

    /**
     * Advisory STATS push, deliberately injection-free: telemetry is
     * not a chaos subject, and routing it through sendFrameNet would
     * shift every existing net-fault draw sequence (plans key on the
     * frame ordinal). Failures are swallowed — the read side will
     * notice a dead supervisor on its own.
     */
    void
    sendStats(const JobBodyRunner &runner, const std::string &phase,
              uint64_t lease)
    {
        PeerStats ps;
        ps.pid = static_cast<uint64_t>(::getpid());
        ps.phase = phase;
        JobBodyRunner::BodyStats bs = runner.bodyStats();
        ps.jobsDone = bs.jobsDone;
        ps.instsRetired = bs.instsRetired;
        ps.cacheHits = bs.cacheHits;
        ps.cacheMisses = bs.cacheMisses;
        if (lease != 0)
            ps.lease = std::to_string(lease);
        std::lock_guard<std::mutex> lock(writeMutex);
        try {
            ipc::writeFrame(fd, ipc::kFrameStats,
                            serializePeerStats(ps));
        } catch (const SimError &) {
        }
    }

    /**
     * Read one frame in shutdown-aware slices. `silence_ms` bounds
     * how long a totally quiet supervisor is tolerated (Timeout).
     */
    ipc::ReadStatus
    readSliced(ipc::Frame *f, unsigned silence_ms)
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(silence_ms);
        for (;;) {
            if (shutdownRequested())
                return ipc::ReadStatus::Timeout;
            int left = static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count());
            if (left <= 0)
                return ipc::ReadStatus::Timeout;
            ipc::ReadStatus st = chan.read(f, left < 200 ? left : 200);
            if (st != ipc::ReadStatus::Timeout)
                return st;
        }
    }
};

/** How a lease or a whole connection ended. */
enum class ConnOutcome
{
    Acked,      ///< (serveLease only) result recorded: claim again
    Drained,    ///< the supervisor sent a final DRAIN
    Lost,       ///< connection lost or protocol broken
    Shutdown,   ///< local SIGINT/SIGTERM latch
};

/** Run one leased job while a side thread renews the lease, then
 *  deliver the result until acknowledged. */
ConnOutcome
serveLease(WorkerConn &conn, JobBodyRunner &runner, uint64_t lease,
           const WorkerJob &job)
{
    std::mutex done_mutex;
    std::condition_variable done_cv;
    bool done = false;
    std::atomic<bool> conn_lost{false};
    std::thread renew([&] {
        const auto interval =
            std::chrono::milliseconds(heartbeatIntervalMs(conn.leaseMs));
        std::unique_lock<std::mutex> lock(done_mutex);
        while (!done_cv.wait_for(lock, interval, [&] { return done; })) {
            lock.unlock();
            bool suppress;
            {
                // Per-job suppression pattern: every renew of a job
                // draws under the same key at draw 0 (see
                // workerHeartbeatScope). siteFires never counts, so
                // injected-gauge identity across modes holds.
                faultinject::Scope scope(
                    workerHeartbeatScope(job.scopeKey));
                suppress = faultinject::siteFires(
                    "worker.heartbeat", SimError::Kind::Hang);
            }
            // A suppressed renew silences the STATS riding on it too,
            // or those frames would keep the watchdog re-armed.
            if (!suppress) {
                if (conn.send(ipc::kFrameRenew,
                              serializeLeaseRef("vanguard-renew",
                                                lease)) ==
                    ipc::SendStatus::Disconnected)
                    conn_lost.store(true, std::memory_order_release);
                else
                    conn.sendStats(runner, job.phase, lease);
            }
            lock.lock();
        }
    });

    WorkerResult res = runner.run(job);

    {
        std::lock_guard<std::mutex> lock(done_mutex);
        done = true;
    }
    done_cv.notify_one();
    renew.join();
    if (conn_lost.load(std::memory_order_acquire))
        return ConnOutcome::Lost;

    const std::string body = serializeResultEnvelope(lease, res);

    // At-least-once delivery: retransmit until the supervisor ACKs.
    // A lost ACK therefore produces a duplicate completion at the
    // coordinator, which reconciles it by byte-comparison. On
    // connection loss the unACKed result is simply discarded —
    // re-execution after the re-grant is idempotent.
    for (unsigned attempt = 0; attempt < 5; ++attempt) {
        if (conn.send(ipc::kFrameResult, body) ==
            ipc::SendStatus::Disconnected)
            return ConnOutcome::Lost;
        // Await the ACK (a Dropped send just looks like a lost ACK).
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(conn.leaseMs);
        for (;;) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
            if (left < 0)
                break; // retransmit
            ipc::Frame f;
            ipc::ReadStatus st;
            try {
                st = conn.readSliced(&f,
                                     static_cast<unsigned>(left) + 1);
            } catch (const SimError &) {
                return ConnOutcome::Lost;
            }
            if (st == ipc::ReadStatus::Eof)
                return ConnOutcome::Lost;
            if (st == ipc::ReadStatus::Timeout)
                break; // retransmit
            if (f.type == ipc::kFrameResultAck) {
                if (parseLeaseRef(f.body, "vanguard-ack") == lease)
                    return ConnOutcome::Acked;
                continue; // stale ack for an older lease
            }
            if (f.type == ipc::kFrameDrain) {
                // The coordinator only drains once the sweep has
                // every result it needs; if ours mattered it was
                // recorded (possibly via a re-grant). Exit cleanly.
                return ConnOutcome::Drained;
            }
            // Heartbeats and anything else: keep waiting.
        }
        if (shutdownRequested())
            return ConnOutcome::Shutdown;
    }
    return ConnOutcome::Lost; // supervisor unresponsive
}

/** Apply a CONFIG body: lease length and the two fault plans. */
bool
applyConfig(WorkerConn &conn, const std::string &body)
{
    WorkerConfig cfg;
    if (!parseWorkerConfig(body, &cfg))
        return false;
    conn.leaseMs = cfg.leaseMs;
    try {
        if (cfg.faultPlan.empty())
            faultinject::disarm();
        else
            faultinject::arm(parseFaultPlan(cfg.faultPlan));
        if (cfg.netFaultPlan.empty())
            faultinject::disarmNet();
        else
            faultinject::armNet(parseFaultPlan(cfg.netFaultPlan));
    } catch (const SimError &) {
        return false;
    }
    return true;
}

std::string
claimBody()
{
    return detail::csprintf("vanguard-claim v%u\n", kBodyVersion);
}

/**
 * The worker side of the lease protocol over one connected socket:
 * HELLO, apply CONFIG, then CLAIM, run each LEASE while a side thread
 * RENEWs it, and retransmit its RESULT until ACKed, until a final
 * DRAIN. `conn_scope` keys the connection's net.* draws.
 * `silence_is_loss`: over TCP, two lease periods without a frame while
 * claiming mean a partition (Lost); on a socketpair they only mean the
 * supervisor has no job yet.
 */
ConnOutcome
serveConnection(int fd, uint64_t conn_scope, bool silence_is_loss,
                JobBodyRunner &runner)
{
    WorkerConn conn(fd, conn_scope);
    // A dropped HELLO is a lost frame like any other: wait for the
    // CONFIG (or the coordinator's goodbye) all the same.
    if (conn.send(ipc::kFrameHello,
                  serializeWorkerHello(
                      static_cast<uint64_t>(::getpid()))) ==
        ipc::SendStatus::Disconnected)
        return ConnOutcome::Lost;

    // Config must arrive before any claim.
    for (;;) {
        ipc::Frame f;
        ipc::ReadStatus st;
        try {
            st = conn.readSliced(&f, 10000);
        } catch (const SimError &) {
            return ConnOutcome::Lost;
        }
        if (shutdownRequested())
            return ConnOutcome::Shutdown;
        if (st != ipc::ReadStatus::Ok)
            return ConnOutcome::Lost;
        if (f.type == ipc::kFrameConfig) {
            if (!applyConfig(conn, f.body))
                return ConnOutcome::Lost;
            break;
        }
        if (f.type == ipc::kFrameDrain)
            return ConnOutcome::Drained;
    }

    // Claim/execute/report until drained.
    for (;;) {
        if (shutdownRequested())
            return ConnOutcome::Shutdown;
        if (conn.send(ipc::kFrameClaim, claimBody()) ==
            ipc::SendStatus::Disconnected)
            return ConnOutcome::Lost;
        conn.sendStats(runner, "claim", 0);

        // Await the lease. Re-claim if the supervisor stays quiet for
        // a lease period (a dropped CLAIM or LEASE frame).
        auto claim_sent = std::chrono::steady_clock::now();
        uint64_t lease = 0;
        WorkerJob job;
        while (lease == 0) {
            ipc::Frame f;
            ipc::ReadStatus st;
            try {
                st = conn.readSliced(&f, 2 * conn.leaseMs);
            } catch (const SimError &) {
                return ConnOutcome::Lost;
            }
            if (shutdownRequested())
                return ConnOutcome::Shutdown;
            if (st == ipc::ReadStatus::Eof)
                return ConnOutcome::Lost;
            if (st == ipc::ReadStatus::Timeout) {
                if (silence_is_loss)
                    return ConnOutcome::Lost; // partitioned: reconnect
                continue;
            }
            bool final_drain = false;
            if (f.type == ipc::kFrameDrain) {
                if (parseDrain(f.body, &final_drain) && final_drain)
                    return ConnOutcome::Drained;
                continue; // soft drain: stay connected, stop claiming
            }
            if (f.type == ipc::kFrameLease) {
                std::string err;
                if (!parseLease(f.body, &lease, &conn.leaseMs, &job,
                                &err))
                    return ConnOutcome::Lost;
                continue;
            }
            // Heartbeats (idle queue) and strays: keep waiting, but
            // nudge with a fresh claim if a lease period passed (our
            // CLAIM may have been dropped on the wire).
            if (std::chrono::steady_clock::now() - claim_sent >
                std::chrono::milliseconds(conn.leaseMs)) {
                if (conn.send(ipc::kFrameClaim, claimBody()) ==
                    ipc::SendStatus::Disconnected)
                    return ConnOutcome::Lost;
                conn.sendStats(runner, "claim", 0);
                claim_sent = std::chrono::steady_clock::now();
            }
        }

        ConnOutcome out = serveLease(conn, runner, lease, job);
        if (out != ConnOutcome::Acked)
            return out;
    }
}

/** Sleep `ms` in 25 ms steps, bailing early on the shutdown latch.
 *  Returns false if shutdown was requested. */
bool
interruptibleSleep(unsigned ms)
{
    unsigned slept = 0;
    while (slept < ms) {
        if (shutdownRequested())
            return false;
        unsigned step = ms - slept < 25 ? ms - slept : 25;
        std::this_thread::sleep_for(std::chrono::milliseconds(step));
        slept += step;
    }
    return !shutdownRequested();
}

/** splitmix64 finalizer, for connection-backoff jitter. */
uint64_t
mixJitter(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

int
runWorkerProcess(int fd)
{
    // A process-group SIGINT/SIGTERM latches the drain flag; the
    // in-flight job finishes and the loop exits cleanly. The
    // supervisor owns actual kill policy.
    installShutdownHandlers();
    JobBodyRunner runner;
    ConnOutcome out;
    try {
        out = serveConnection(
            fd, ipc::netConnScope(static_cast<uint64_t>(::getpid()), 0),
            false, runner);
    } catch (const SimError &) {
        out = ConnOutcome::Lost;
    }
    return out == ConnOutcome::Lost ? 1 : 0;
}

int
runRemoteWorker(const std::string &host, uint16_t port)
{
    // One body runner for the whole process: the artifact cache
    // survives reconnects, so a flapping network doesn't force
    // retrain/recompile of what this worker already built.
    JobBodyRunner runner;
    faultinject::maybeArmNetFromEnv();

    const uint64_t pid = static_cast<uint64_t>(::getpid());
    uint64_t attempt = 0;
    unsigned consecutive_failures = 0;
    BackoffPolicy backoff;
    bool warned = false;

    for (;;) {
        if (shutdownRequested())
            return 0;
        unsigned delay = backoff.delayMs(consecutive_failures);
        if (delay != 0) {
            // Jitter: a fleet of workers restarted together must not
            // hammer a recovering coordinator in lockstep.
            delay += static_cast<unsigned>(mixJitter(pid ^ attempt) %
                                           (delay / 2 + 1));
            if (!interruptibleSleep(delay))
                return 0;
        }
        attempt++;

        std::string err;
        int fd = ipc::connectTcp(host, port, &err);
        if (fd < 0) {
            consecutive_failures++;
            if (!warned || consecutive_failures % 32 == 0) {
                vg_warn("remote worker: %s (attempt %llu); retrying",
                        err.c_str(),
                        static_cast<unsigned long long>(attempt));
                warned = true;
            }
            continue;
        }

        ConnOutcome out;
        try {
            out = serveConnection(fd, ipc::netConnScope(pid, attempt),
                                  true, runner);
        } catch (const SimError &e) {
            vg_warn("remote worker: connection error: %s",
                    e.detail().c_str());
            out = ConnOutcome::Lost;
        }
        ::close(fd);
        if (out == ConnOutcome::Drained) {
            vg_inform("remote worker: drained by coordinator; exiting");
            return 0;
        }
        if (out == ConnOutcome::Shutdown)
            return 0;
        consecutive_failures =
            consecutive_failures == 0 ? 1 : consecutive_failures + 1;
    }
}

} // namespace vanguard
