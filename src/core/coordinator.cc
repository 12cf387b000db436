/**
 * @file
 * The lease dispatcher behind both supervisors, and its two faces:
 * WorkerPool (socketpair children it spawns, handshakes, respawns and
 * reaps) and Coordinator (TCP peers that dial in). See coordinator.hh
 * for the protocol, the lease state machine and what a peer's origin
 * decides; the worker loop lives in worker_pool.cc.
 */

#include "core/coordinator.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <set>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/telemetry.hh"

namespace vanguard {

using Clock = std::chrono::steady_clock;

namespace {

/** Longest single poll(2): the SIGINT/SIGTERM latch is a plain flag
 *  that cannot wake the loop, so queued offers are discarded within
 *  this bound of a signal. */
constexpr int kLatchPollMs = 100;

Clock::time_point
after(unsigned ms)
{
    return Clock::now() + std::chrono::milliseconds(ms);
}

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

struct Dispatcher
{
    struct Peer
    {
        Peer(int fd_, bool local_) : fd(fd_), chan(fd_), local(local_) {}

        int fd;
        ipc::FrameChannel chan;
        /** Origin, fixed at creation: a socketpair child of this
         *  process (lease expiry SIGKILLs it and fails the job as a
         *  Hang; a failed LEASE send fails the job with a transient
         *  Io) or a TCP peer (its expired lease is re-granted; a failed
         *  LEASE send loses the peer and requeues the job). */
        const bool local;
        int pid = -1;           ///< local: the child (-1 once reaped)
        size_t slot = 0;        ///< local: its slot
        std::string addr;       ///< TCP: ip:port of the connection
        std::string identity;   ///< "pid@ip" (TCP) or "slotN:pidM"
        bool helloed = false;
        bool claimPending = false;
        bool dead = false;
        uint64_t leaseId = 0;   ///< active lease on this connection
        uint64_t connScope = 0; ///< TCP: net.* draw scope
        uint64_t drawCursor = 0;
        Clock::time_point notBefore;  ///< backoff gate for grants
        Clock::time_point lastTx;     ///< for idle heartbeats
        Clock::time_point leaseSent;  ///< for engine.worker.job_rtt
    };

    struct Offer
    {
        enum State { Queued, Leased, Done };
        State state = Queued;
        uint64_t id = 0;
        WorkerJob job;          ///< released once Done
        std::string key;        ///< "phase:slot" (policy bookkeeping)
        unsigned grants = 0;    ///< deliveries so far
        uint64_t leaseId = 0;   ///< current lease (Leased only)
        std::string leasedTo;   ///< identity of the leaseholder
        Clock::time_point leaseExpiry;
        bool remote = false;    ///< ever leased to a TCP peer
        bool discarded = false; ///< drained before it finished
        /** worker.frame.write fault drawn by execute(); the grant
         *  fails the LEASE send with it. */
        std::string writeFault;
        std::string resultBytes; ///< recorded result (Done)
        bool failed = false;    ///< Done without a result
        SimError::Kind failKind = SimError::Kind::Internal;
        std::string failMessage;
    };

    /** A local worker slot; pid is read by workerPids() under mutex_. */
    struct Slot
    {
        int pid = -1;
        bool everSpawned = false;
        unsigned spawnFailures = 0;
        Clock::time_point respawnAt;
    };

    Dispatcher(const DispatchOptions &opts, unsigned lease_ms,
               bool threaded)
        : opts_(opts), leaseMs_(lease_ms == 0 ? 1 : lease_ms),
          threaded_(threaded),
          ledger_(opts.quarantineDeaths, opts.restartStormLimit)
    {
        if (opts_.faultPlanSpec.empty() && faultinject::armed())
            opts_.faultPlanSpec =
                faultPlanSpec(faultinject::currentPlan());
        if (::pipe2(wake_, O_CLOEXEC | O_NONBLOCK) != 0)
            vg_throw(Io, "dispatcher wake pipe: %s",
                     std::strerror(errno));
        if (opts_.telemetry != nullptr) {
            // The /progress lease table reads the offer map under
            // mutex_; shutdown() clears the provider before this
            // dispatcher can die, so the closure never outlives it.
            opts_.telemetry->setLeaseTableProvider([this] {
                std::vector<LeaseInfo> out;
                Clock::time_point now = Clock::now();
                std::lock_guard<std::mutex> table_lock(mutex_);
                for (const auto &kv : offers_) {
                    const Offer &o = kv.second;
                    if (o.state != Offer::Leased)
                        continue;
                    LeaseInfo li;
                    li.id = o.leaseId;
                    li.key = o.key;
                    li.peer = o.leasedTo;
                    li.expiresInMs =
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(o.leaseExpiry -
                                                       now)
                            .count();
                    out.push_back(std::move(li));
                }
                return out;
            });
        }
    }

    /** The pool's face: spawn and handshake every local worker. No
     *  thread of its own: the job threads waiting in execute() take
     *  turns running the loop. */
    explicit Dispatcher(const WorkerPool::Options &pool)
        : Dispatcher(pool, pool.heartbeatTimeoutMs, false)
    {
        pool_ = pool;
        if (pool_.execPath.empty())
            pool_.execPath = selfExePath();
        if (opts_.metrics != nullptr)
            opts_.metrics->histogram("engine.worker.job_rtt",
                                     workerRttBoundsMs());
        slots_.resize(std::max(1u, pool_.workers));
        // Eager spawn: surfaces an unrunnable worker binary (bad exec
        // path, protocol skew) before any job is risked on it.
        // Failures here are tolerated; the loop retries with backoff.
        for (size_t i = 0; i < slots_.size(); ++i) {
            try {
                spawnWorker(i);
            } catch (const SimError &e) {
                vg_warn("worker %zu failed to start: %s", i,
                        e.detail().c_str());
                spawnFailed(i);
            }
        }
    }

    /** The coordinator's face: listen for TCP peers, served at once
     *  by a service thread (they dial in before any job and get idle
     *  heartbeats between jobs). */
    explicit Dispatcher(const Coordinator::Options &co)
        : Dispatcher(co, co.leaseMs, true)
    {
        if (faultinject::netArmed())
            netPlanSpec_ = faultPlanSpec(faultinject::currentNetPlan());
        listenFd_ = ipc::listenTcp(co.port);
        port_ = ipc::listenPort(listenFd_);
        service_ = std::thread([this] {
            while (!stop_.load(std::memory_order_acquire) &&
                   serviceTurn()) {
            }
        });
    }

    ~Dispatcher()
    {
        try {
            shutdown();
        } catch (...) {
            // Destructor boundary: never throw.
        }
    }

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    void
    bumpCounter(const char *name, uint64_t delta = 1)
    {
        if (opts_.metrics != nullptr && delta != 0)
            opts_.metrics->counter(name).add(delta);
    }

    /** engine.worker.frames counts a local peer's LEASE and RESULT
     *  frames; engine.net.frames every frame a TCP peer sends or
     *  receives. */
    void
    countFrame(const Peer &p, char type)
    {
        if (p.local && type != ipc::kFrameLease &&
            type != ipc::kFrameResult)
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            (p.local ? stats_.dataFrames : stats_.frames)++;
        }
        bumpCounter(p.local ? "engine.worker.frames" : "engine.net.frames");
    }

    void
    wake()
    {
        char b = 1;
        ssize_t n = ::write(wake_[1], &b, 1);
        (void)n; // a full pipe already holds a wakeup
    }

    // ---- execute() side (runner pool threads) ----

    WorkerResult
    execute(WorkerJob job, std::string write_fault)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ledger_.throwIfBroken();
        if (draining_ || shutdownRequested())
            throw JobDiscarded();
        const uint64_t id = nextOfferId_++;
        Offer &o = offers_[id];
        o.id = id;
        o.key = job.phase + ":" + std::to_string(job.slot);
        o.job = std::move(job);
        o.job.bindSpecName();
        o.writeFault = std::move(write_fault);
        queue_.push_back(id);
        wake();
        // Without a service thread, one waiting caller at a time runs
        // whole turns of the loop until its own offer settles, then
        // hands over; every unsettled offer has a waiting caller. A
        // thread of the pool's own would make the peak resident set
        // depend on thread timing (DESIGN.md §12.3).
        auto settled = [&] {
            return ledger_.broken() || o.state == Offer::Done ||
                   o.discarded;
        };
        auto stopped = [this] {
            return stop_.load(std::memory_order_acquire);
        };
        while (!settled()) {
            if (threaded_ || leading_ || stopped()) {
                cv_.wait(lock);
                continue;
            }
            leading_ = true;
            while (!settled() && !stopped()) {
                lock.unlock();
                serviceTurn();
                lock.lock();
            }
            leading_ = false;
            cv_.notify_all();
        }
        ledger_.throwIfBroken();
        if (o.discarded)
            throw JobDiscarded();
        const Offer done = o; // its job body is already released
        // A TCP offer stays to byte-check late duplicate results; a
        // local peer's ACK cannot be lost, so nothing can follow.
        if (!o.remote)
            offers_.erase(id);
        lock.unlock();
        if (done.failed)
            throw SimError(done.failKind, done.failMessage);

        WorkerResult res;
        std::string err;
        if (!parseWorkerResult(done.resultBytes, &res, &err)) {
            // The bytes were CRC-clean on the wire and parse-checked
            // at receive time; failing here is a dispatcher bug.
            throw SimError(SimError::Kind::Internal,
                           "recorded result for " + done.key +
                               " unreadable: " + err);
        }
        for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
            faultinject::recordRemoteInjections(
                static_cast<SimError::Kind>(k), res.injected[k]);
        if (!res.ok)
            throw SimError(res.kind, res.message);
        return res;
    }

    // ---- the loop: the service thread or a leading caller ----

    /** Caller holds mutex_. */
    bool
    grantingLocked() const
    {
        return !ledger_.broken() && !draining_ && !shutdownRequested();
    }

    /** Send one frame: TCP frames consult the network fault plan, a
     *  local write failure reports Disconnected with its message in
     *  `error`. */
    ipc::SendStatus
    send(Peer &p, char type, const std::string &body,
         std::string *error = nullptr)
    {
        ipc::SendStatus st = ipc::SendStatus::Ok;
        if (p.local) {
            try {
                ipc::writeFrame(p.fd, type, body);
            } catch (const SimError &e) {
                st = ipc::SendStatus::Disconnected;
                if (error != nullptr)
                    *error = e.detail();
            }
        } else {
            st = ipc::sendFrameNet(p.fd, type, body, p.connScope,
                                   &p.drawCursor);
        }
        p.lastTx = Clock::now();
        if (st == ipc::SendStatus::Ok)
            countFrame(p, type);
        return st;
    }

    /** One turn of the loop. A throw breaks the ledger, which every
     *  execute() call then reports; returns false then. */
    bool
    serviceTurn()
    {
        try {
            if (shutdownRequested())
                discardQueued();
            respawnWorkers();
            awaitEvents();
            acceptPeers();
            pumpPeers();
            expireLeases();
            grantLeases();
            heartbeatIdlePeers();
            reapDeadPeers();
            return true;
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mutex_);
            ledger_.markBroken(SimError::Kind::Internal,
                               std::string("dispatcher failed: ") +
                                   e.what());
            cv_.notify_all();
            return false;
        }
    }

    /** Block in poll(2) until a peer, the listener or the wake pipe is
     *  readable, or the next lease expiry, idle heartbeat, grant
     *  backoff or respawn falls due. */
    void
    awaitEvents()
    {
        const Clock::time_point now = Clock::now();
        Clock::time_point until =
            now + std::chrono::milliseconds(kLatchPollMs);
        auto sooner = [&until](Clock::time_point t) {
            until = std::min(until, t);
        };
        bool granting;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            granting = grantingLocked();
            for (const auto &kv : offers_)
                if (kv.second.state == Offer::Leased)
                    sooner(kv.second.leaseExpiry);
            for (const auto &pp : peers_)
                if (granting && !queue_.empty() && !pp->dead &&
                    pp->claimPending && pp->leaseId == 0)
                    sooner(pp->notBefore);
        }
        const auto beat =
            std::chrono::milliseconds(heartbeatIntervalMs(leaseMs_));
        for (const auto &pp : peers_)
            if (!pp->local && pp->helloed && !pp->dead)
                sooner(pp->lastTx + beat);
        for (const Slot &s : slots_)
            if (granting && s.pid < 0)
                sooner(s.respawnAt);

        pollSet_.clear();
        pollSet_.push_back({wake_[0], POLLIN, 0});
        if (listenFd_ >= 0)
            pollSet_.push_back({listenFd_, POLLIN, 0});
        for (const auto &pp : peers_)
            if (!pp->dead)
                pollSet_.push_back({pp->fd, POLLIN, 0});
        auto wait = std::chrono::ceil<std::chrono::milliseconds>(
            until - now);
        int timeout = static_cast<int>(std::max<int64_t>(
            0, static_cast<int64_t>(wait.count())));
        if (::poll(pollSet_.data(), pollSet_.size(), timeout) > 0 &&
            (pollSet_[0].revents & POLLIN) != 0) {
            char buf[64];
            while (::read(wake_[0], buf, sizeof(buf)) > 0) {
            }
        }
    }

    /** Drain discards offers no worker holds (every unfinished offer
     *  once `all`); their execute() calls throw JobDiscarded. */
    void
    discardQueued(bool all = false)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool any = false;
        for (auto &kv : offers_) {
            Offer &o = kv.second;
            if (o.state == Offer::Done || o.discarded ||
                (o.state == Offer::Leased && !all))
                continue;
            o.discarded = true;
            any = true;
        }
        queue_.clear();
        if (any)
            cv_.notify_all();
    }

    // ---- local peers: spawn, handshake, reap ----

    /** fork/exec one `--worker` child for slot `idx` and run the
     *  HELLO -> CONFIG handshake; throws SimError(Io) on failure. */
    void
    spawnWorker(size_t idx)
    {
        Slot &slot = slots_[idx];
        // Deterministic spawn-fault probe, keyed by a monotonic
        // attempt ordinal so the pattern is independent of the worker
        // count and a failed attempt draws fresh on retry (backoff can
        // make progress).
        {
            faultinject::Scope scope(
                workerKillScope(uint64_t{0x5350574e}, spawnAttempts_++));
            faultinject::site("worker.spawn", SimError::Kind::Io);
        }

        int fds[2];
        ipc::makeSocketPair(fds);
        char fdarg[16];
        std::snprintf(fdarg, sizeof(fdarg), "%d", fds[1]);
        const char *argv[] = {pool_.execPath.c_str(), "--worker", fdarg,
                              nullptr};

        pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            vg_throw(Io, "fork failed for worker %zu: %s", idx,
                     std::strerror(errno));
        }
        if (pid == 0) {
            // Child: async-signal-safe calls only between fork and exec.
            if (pool_.rlimitMb != 0) {
                struct rlimit rl;
                rl.rlim_cur = rl.rlim_max =
                    static_cast<rlim_t>(pool_.rlimitMb) << 20;
                ::setrlimit(RLIMIT_AS, &rl);
            }
            if (pool_.rlimitCpuSec != 0) {
                struct rlimit rl;
                rl.rlim_cur = rl.rlim_max = pool_.rlimitCpuSec;
                ::setrlimit(RLIMIT_CPU, &rl);
            }
            ::execv(argv[0], const_cast<char *const *>(argv));
            ::_exit(127);
        }
        ::close(fds[1]);
        auto p = std::make_unique<Peer>(fds[0], true);
        p->pid = pid;
        p->slot = idx;

        // Handshake: hello within the deadline, versioned header, then
        // the config frame (lease length + fault plan).
        std::string why;
        try {
            ipc::Frame hello;
            uint64_t hello_pid = 0;
            ipc::ReadStatus st = p->chan.read(
                &hello, static_cast<int>(pool_.helloTimeoutMs));
            if (st != ipc::ReadStatus::Ok)
                why = st == ipc::ReadStatus::Eof
                          ? "worker exited before hello"
                          : "worker hello timed out";
            else if (hello.type != ipc::kFrameHello)
                why = detail::csprintf("expected hello, got frame '%c'",
                                       hello.type);
            else if (!parseWorkerHello(hello.body, &hello_pid))
                why = "worker hello carries no vanguard-remote header";
            else
                ipc::writeFrame(p->fd, ipc::kFrameConfig, configBody());
        } catch (const SimError &e) {
            why = e.detail();
        }
        if (!why.empty()) {
            retire(*p, true);
            ::close(p->fd);
            vg_throw(Io, "worker %zu (pid %d) handshake failed: %s", idx,
                     pid, why.c_str());
        }

        p->identity = detail::csprintf("slot%zu:pid%d", idx, pid);
        p->helloed = true;
        p->notBefore = p->lastTx = Clock::now();
        slot.spawnFailures = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            slot.pid = pid;
            (slot.everSpawned ? stats_.restarts : stats_.spawns)++;
        }
        if (slot.everSpawned)
            bumpCounter("engine.worker.restarts");
        slot.everSpawned = true;
        peers_.push_back(std::move(p));
    }

    void
    spawnFailed(size_t idx)
    {
        Slot &slot = slots_[idx];
        slot.spawnFailures++;
        slot.respawnAt = after(opts_.backoff.delayMs(slot.spawnFailures));
        std::lock_guard<std::mutex> lock(mutex_);
        noteLossLocked("");
    }

    /** Refill empty local slots whose backoff has elapsed. */
    void
    respawnWorkers()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!grantingLocked())
                return;
        }
        const Clock::time_point now = Clock::now();
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i].pid >= 0 || slots_[i].respawnAt > now)
                continue;
            try {
                spawnWorker(i);
            } catch (const SimError &e) {
                spawnFailed(i);
                vg_warn("worker %zu respawn failed (attempt %u): %s", i,
                        slots_[i].spawnFailures, e.detail().c_str());
            }
        }
    }

    /** SIGKILL (if asked) and reap a local child; its slot respawns
     *  without delay. Returns how it ended. */
    std::string
    retire(Peer &p, bool sigkill)
    {
        std::string fate = "could not be reaped";
        if (p.pid > 0) {
            if (sigkill)
                ::kill(p.pid, SIGKILL);
            int status = 0;
            pid_t r;
            while ((r = ::waitpid(p.pid, &status, 0)) < 0 &&
                   errno == EINTR) {
            }
            if (r == p.pid)
                fate = describeWaitStatus(status);
            p.pid = -1;
        }
        p.dead = true;
        slots_[p.slot].respawnAt = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        slots_[p.slot].pid = -1;
        return fate;
    }

    // ---- TCP peers ----

    void
    acceptPeers()
    {
        if (listenFd_ < 0)
            return;
        for (;;) {
            std::string addr;
            int fd;
            try {
                fd = ipc::acceptPeer(listenFd_, 0, &addr);
            } catch (const SimError &e) {
                vg_warn("fabric accept failed: %s", e.detail().c_str());
                return;
            }
            if (fd < 0)
                return;
            uint64_t scope = ipc::netConnScope(acceptOrdinal_++, 0);
            if (faultinject::netSiteFires("net.accept",
                                          SimError::Kind::Io, scope,
                                          0)) {
                ::close(fd);
                continue;
            }
            auto p = std::make_unique<Peer>(fd, false);
            p->addr = addr;
            p->connScope = scope;
            p->notBefore = p->lastTx = Clock::now();
            peers_.push_back(std::move(p));
        }
    }

    /** Parse a HELLO body into p.identity ("pid@ip") and p.helloed;
     *  no reply. False (peer untouched) on a malformed header. */
    bool
    parseHello(Peer &p, const std::string &body)
    {
        uint64_t pid = 0;
        if (!parseWorkerHello(body, &pid))
            return false;
        std::string ip = p.addr.substr(0, p.addr.rfind(':'));
        p.identity = std::to_string(pid) + "@" + ip;
        p.helloed = true;
        return true;
    }

    std::string
    configBody() const
    {
        WorkerConfig cfg;
        cfg.leaseMs = leaseMs_;
        cfg.faultPlan = opts_.faultPlanSpec;
        cfg.netFaultPlan = netPlanSpec_;
        return serializeWorkerConfig(cfg);
    }

    void
    handleHello(Peer &p, const std::string &body)
    {
        if (!parseHello(p, body)) {
            losePeer(p, "hello carries no vanguard-remote header");
            return;
        }
        bool reconnect;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            // Same identity back again = a reconnect (source ports
            // change per connection, so the hello pid is the anchor).
            reconnect = !seenIdentities_.insert(p.identity).second;
            if (reconnect) {
                stats_.reconnects++;
                p.notBefore =
                    after(opts_.backoff.delayMs(losses_[p.identity]));
            }
        }
        if (reconnect)
            bumpCounter("engine.net.reconnects");
        if (send(p, ipc::kFrameConfig, configBody()) ==
            ipc::SendStatus::Disconnected)
            losePeer(p, "lost during config");
    }

    void
    heartbeatIdlePeers()
    {
        const auto interval =
            std::chrono::milliseconds(heartbeatIntervalMs(leaseMs_));
        const Clock::time_point now = Clock::now();
        for (auto &pp : peers_) {
            Peer &p = *pp;
            if (p.local || p.dead || !p.helloed ||
                now - p.lastTx < interval)
                continue;
            // Keeps waiting workers from mistaking an empty queue for
            // a dead coordinator.
            if (send(p, ipc::kFrameHeartbeat, "") ==
                ipc::SendStatus::Disconnected)
                losePeer(p, "lost during heartbeat");
        }
    }

    // ---- both origins ----

    void
    pumpPeers()
    {
        for (auto &pp : peers_) {
            Peer &p = *pp;
            while (!p.dead) {
                ipc::Frame f;
                ipc::ReadStatus st;
                try {
                    st = p.chan.read(&f, 0); // non-blocking drain
                    if (st == ipc::ReadStatus::Timeout)
                        break;
                    if (st == ipc::ReadStatus::Eof) {
                        losePeer(p, "disconnected", true);
                        break;
                    }
                    countFrame(p, f.type);
                    handleFrame(p, f);
                } catch (const SimError &e) {
                    // Desync, or a frame body of a version this build
                    // cannot read: it costs that peer its connection,
                    // never the dispatcher.
                    losePeer(p, "protocol desync (" + e.detail() + ")");
                }
            }
        }
    }

    void
    handleFrame(Peer &p, const ipc::Frame &f)
    {
        switch (f.type) {
        case ipc::kFrameHello:
            handleHello(p, f.body);
            return;
        case ipc::kFrameClaim:
            if (p.helloed)
                p.claimPending = true;
            return;
        case ipc::kFrameRenew: {
            // A malformed renew (lease 0) is tolerated: the lease
            // simply expires.
            uint64_t lease = parseLeaseRef(f.body, "vanguard-renew");
            std::lock_guard<std::mutex> lock(mutex_);
            Offer *o = offerOfLease(lease);
            if (o != nullptr && o->state == Offer::Leased &&
                o->leaseId == lease)
                o->leaseExpiry = after(leaseMs_);
            return;
        }
        case ipc::kFrameResult:
            handleResult(p, f.body);
            return;
        case ipc::kFrameHeartbeat:
            return;
        case ipc::kFrameStats: {
            // Advisory live stats for the telemetry hub. Identity is
            // receiver-assigned, and a malformed body is dropped,
            // never a desync — telemetry cannot cost a peer its
            // connection.
            PeerStats ps;
            if (opts_.telemetry != nullptr && p.helloed &&
                parsePeerStats(f.body, &ps)) {
                ps.identity = p.identity;
                opts_.telemetry->notePeerStats(ps);
            }
            return;
        }
        default:
            losePeer(p, detail::csprintf("protocol desync (frame '%c')",
                                         f.type));
        }
    }

    /** Caller holds mutex_. Null for a lease this dispatcher never
     *  granted or whose offer is gone. */
    Offer *
    offerOfLease(uint64_t lease)
    {
        auto it = leaseHistory_.find(lease);
        if (it == leaseHistory_.end())
            return nullptr;
        auto o = offers_.find(it->second);
        return o == offers_.end() ? nullptr : &o->second;
    }

    void
    handleResult(Peer &p, const std::string &body)
    {
        uint64_t lease = 0;
        std::string result_bytes, err;
        if (!parseResultEnvelope(body, &lease, &result_bytes, &err)) {
            losePeer(p, "protocol desync (" + err + ")");
            return;
        }
        // Validate the payload before recording it as the truth
        // duplicates get compared against.
        {
            WorkerResult parsed;
            if (!parseWorkerResult(result_bytes, &parsed, &err)) {
                losePeer(p, "protocol desync (unreadable worker result: " +
                                err + ")");
                return;
            }
        }
        if (p.leaseId == lease) {
            p.leaseId = 0;
            if (p.local && opts_.metrics != nullptr) {
                auto rtt =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        Clock::now() - p.leaseSent)
                        .count();
                opts_.metrics
                    ->histogram("engine.worker.job_rtt",
                                workerRttBoundsMs())
                    .observe(static_cast<uint64_t>(rtt));
            }
        }

        bool duplicate = false;
        std::string divergence;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Offer *o = offerOfLease(lease);
            if (o == nullptr) {
                vg_warn("fabric: result for unknown lease %llu from "
                        "%s; acknowledged and ignored",
                        static_cast<unsigned long long>(lease),
                        p.identity.c_str());
            } else if (o->state == Offer::Done) {
                stats_.duplicateResults++;
                duplicate = true;
                // The exactly-once proof: a duplicate completion must
                // be bit-identical to the recorded one. (A failed
                // offer has no recorded bytes; its late result is just
                // dropped.)
                if (!o->failed && o->resultBytes != result_bytes)
                    divergence = detail::csprintf(
                        "duplicate completion of %s diverges from the "
                        "recorded result (%zu vs %zu bytes); a worker "
                        "is computing different bits for the same job",
                        o->key.c_str(), result_bytes.size(),
                        o->resultBytes.size());
            } else {
                // First completion wins — whether it came from the
                // current leaseholder or a presumed-dead worker whose
                // lease already expired and was requeued.
                if (o->state == Offer::Queued)
                    queue_.erase(
                        std::find(queue_.begin(), queue_.end(), o->id));
                o->resultBytes = std::move(result_bytes);
                ledger_.noteCompletion(o->key);
                losses_[p.identity] = 0;
                finishLocked(*o);
            }
        }
        if (duplicate)
            bumpCounter("engine.net.duplicate_results");
        if (!divergence.empty()) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (ledger_.markBroken(SimError::Kind::Divergence,
                                   divergence))
                flightRecord("error", "fabric.broken", divergence);
            cv_.notify_all();
            return;
        }
        // A local child that dies after reporting is reaped; the
        // result stands.
        if (send(p, ipc::kFrameResultAck,
                 serializeLeaseRef("vanguard-ack", lease)) ==
            ipc::SendStatus::Disconnected)
            losePeer(p, "lost during result ack");
    }

    /** Settle an offer; its execute() call returns the recorded
     *  result. Caller holds mutex_. */
    void
    finishLocked(Offer &o)
    {
        o.state = Offer::Done;
        o.leaseId = 0;
        o.job = WorkerJob();
        cv_.notify_all();
    }

    /** Settle an offer with a failure its execute() call throws.
     *  Caller holds mutex_. */
    void
    failLocked(Offer &o, SimError::Kind kind, std::string message)
    {
        o.failed = true;
        o.failKind = kind;
        o.failMessage = std::move(message);
        finishLocked(o);
    }

    /** A loss against `key` ("" = no job to blame). Breaks the
     *  dispatcher past the storm limit. Caller holds mutex_. */
    SupervisionLedger::Loss
    noteLossLocked(const std::string &key)
    {
        SupervisionLedger::Loss loss = ledger_.noteLoss(key);
        if (loss.storm) {
            std::string why = detail::csprintf(
                "worker loss storm: %u consecutive lost workers or "
                "leases with no completed job; breaking the sweep",
                loss.streak);
            flightRecord("error", "fabric.broken", why);
            ledger_.markBroken(SimError::Kind::Internal, why);
            cv_.notify_all();
        }
        return loss;
    }

    /** A lease-holding peer vanished or a lease expired: requeue the
     *  offer or, after quarantineDeaths losses, fail it as poison.
     *  Returns whether it was quarantined. Caller holds mutex_. */
    bool
    loseLeaseLocked(Offer &o, const std::string &why)
    {
        const uint64_t lost_lease = o.leaseId;
        const std::string identity = o.leasedTo;
        o.state = Offer::Queued;
        o.leaseId = 0;
        o.leasedTo.clear();

        SupervisionLedger::Loss loss = noteLossLocked(o.key);
        losses_[identity]++;
        std::string what = detail::csprintf(
            "lease on %s (held by %s) lost: %s", o.key.c_str(),
            identity.c_str(), why.c_str());
        flightRecord("event", "worker.lost",
                     detail::csprintf("%s (loss %u)", what.c_str(),
                                      loss.deaths));
        for (auto &pp : peers_) {
            // A still-connected holder of the lost lease becomes
            // grantable again (its eventual result reconciles through
            // leaseHistory_), after the backoff delay.
            if (pp->leaseId == lost_lease)
                pp->leaseId = 0;
            if (pp->identity == identity && !pp->dead)
                pp->notBefore =
                    after(opts_.backoff.delayMs(losses_[identity]));
        }
        if (loss.quarantine) {
            stats_.quarantinedJobs++;
            std::string msg = detail::csprintf(
                "poison job quarantined: %s lost %u consecutive leases "
                "(last: %s)",
                o.key.c_str(), loss.deaths, why.c_str());
            flightRecord("error", "worker.quarantine", msg);
            failLocked(o, SimError::Kind::Internal, std::move(msg));
            return true;
        }
        queue_.push_back(o.id);
        vg_warn("%s; redelivering (loss %u of %u)", what.c_str(),
                loss.deaths, opts_.quarantineDeaths);
        return false;
    }

    /** The peer is gone or broken. A local child is reaped first
     *  (SIGKILLed unless it already hung up), and how it ended is the
     *  reason. */
    void
    losePeer(Peer &p, std::string why, bool hung_up = false)
    {
        if (p.dead)
            return;
        if (p.local) {
            std::string fate = retire(p, !hung_up);
            if (hung_up)
                why = fate;
        }
        p.dead = true;
        bool quarantined = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Offer *o = offerOfLease(p.leaseId);
            if (o != nullptr && o->state == Offer::Leased &&
                o->leaseId == p.leaseId)
                quarantined = loseLeaseLocked(*o, why);
            else if (p.helloed)
                vg_warn("worker %s %s", p.identity.c_str(), why.c_str());
            p.leaseId = 0;
        }
        if (quarantined && p.local)
            bumpCounter("engine.worker.quarantined_jobs");
    }

    void
    expireLeases()
    {
        std::vector<uint64_t> due;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const Clock::time_point now = Clock::now();
            for (const auto &kv : offers_)
                if (kv.second.state == Offer::Leased &&
                    kv.second.leaseExpiry <= now)
                    due.push_back(kv.second.leaseId);
        }
        uint64_t expired = 0; // TCP leases, re-granted
        for (uint64_t lease : due) {
            Peer *local = nullptr;
            for (auto &pp : peers_)
                if (pp->local && !pp->dead && pp->leaseId == lease)
                    local = pp.get();
            if (local != nullptr) {
                hang(*local);
                continue;
            }
            std::lock_guard<std::mutex> lock(mutex_);
            Offer *o = offerOfLease(lease);
            if (o == nullptr || o->state != Offer::Leased ||
                o->leaseId != lease)
                continue;
            stats_.leasesExpired++;
            expired++;
            loseLeaseLocked(*o, "expired");
        }
        bumpCounter("engine.net.leases_expired", expired);
    }

    /** A local worker went silent past its lease: SIGKILL it and fail
     *  the job as a Hang. That is a determination about the job, not
     *  a supervision failure: non-transient, no quarantine
     *  bookkeeping (the runner will not retry it). */
    void
    hang(Peer &p)
    {
        const int pid = p.pid;
        const uint64_t lease = p.leaseId;
        p.leaseId = 0;
        retire(p, true);
        std::string job;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Offer &o = *offerOfLease(lease);
            stats_.heartbeatMisses++;
            ledger_.noteCompletion(o.key);
            job = detail::csprintf("%s job %zu", o.job.phase.c_str(),
                                   o.job.slot);
            failLocked(o, SimError::Kind::Hang,
                       detail::csprintf("worker heartbeat deadline (%u "
                                        "ms) missed; killed worker pid "
                                        "%d during %s",
                                        leaseMs_, pid, job.c_str()));
        }
        bumpCounter("engine.worker.heartbeat_misses");
        flightRecord("error", "worker.heartbeat_miss",
                     detail::csprintf("pid %d silent past %u ms during %s",
                                      pid, leaseMs_, job.c_str()));
    }

    void
    grantLeases()
    {
        uint64_t granted = 0, regranted = 0; // TCP counters
        struct Grant
        {
            Peer *peer;
            uint64_t lease;
            std::string body;
            std::string writeFault;
        };
        std::vector<Grant> grants;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!grantingLocked())
                return;
            const Clock::time_point now = Clock::now();
            for (auto &pp : peers_) {
                Peer &p = *pp;
                if (p.dead || !p.helloed || !p.claimPending ||
                    p.leaseId != 0 || p.notBefore > now)
                    continue;
                Offer *o = nullptr;
                while (o == nullptr && !queue_.empty()) {
                    auto it = offers_.find(queue_.front());
                    queue_.pop_front();
                    if (it != offers_.end() &&
                        it->second.state == Offer::Queued &&
                        !it->second.discarded)
                        o = &it->second;
                }
                if (o == nullptr)
                    break; // queue empty: wait for the next offer
                o->job.delivery = ledger_.nextDelivery(o->key);
                o->state = Offer::Leased;
                o->leaseId = nextLeaseId_++;
                o->leasedTo = p.identity;
                o->leaseExpiry = now + std::chrono::milliseconds(leaseMs_);
                o->remote |= !p.local;
                leaseHistory_[o->leaseId] = o->id;
                o->grants++;
                if (!p.local) {
                    stats_.leasesGranted++;
                    granted++;
                    if (o->grants > 1) {
                        stats_.leasesRegranted++;
                        regranted++;
                    }
                }
                p.claimPending = false;
                p.leaseId = o->leaseId;
                grants.push_back(
                    {&p, o->leaseId,
                     serializeLease(o->leaseId, leaseMs_, o->job),
                     std::move(o->writeFault)});
            }
        }
        bumpCounter("engine.net.leases_granted", granted);
        bumpCounter("engine.net.leases_regranted", regranted);
        for (Grant &g : grants) {
            Peer &p = *g.peer;
            std::string err = std::move(g.writeFault);
            ipc::SendStatus st =
                err.empty() ? send(p, ipc::kFrameLease, g.body, &err)
                            : ipc::SendStatus::Disconnected;
            if (st != ipc::SendStatus::Disconnected) {
                // Dropped (TCP only): the worker never saw the lease;
                // its claim times out and lease expiry requeues the
                // job — the injected-duplicate/requeue drill path.
                p.leaseSent = Clock::now();
                continue;
            }
            if (!p.local) {
                losePeer(p, "lost during lease grant");
                continue;
            }
            // A local stream whose write failed is of unknown
            // integrity: reap the child and fail the job with the
            // transient Io error the runner retries.
            p.leaseId = 0;
            losePeer(p, "lease send failed");
            std::lock_guard<std::mutex> lock(mutex_);
            noteLossLocked("");
            failLocked(*offerOfLease(g.lease), SimError::Kind::Io, err);
        }
    }

    void
    reapDeadPeers()
    {
        for (size_t i = 0; i < peers_.size();) {
            if (peers_[i]->dead) {
                ::close(peers_[i]->fd);
                peers_.erase(peers_.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }
    }

    // ---- shutdown ----

    /** Final DRAIN, sent injection-free: shutdown is a control path,
     *  not a chaos subject (an injected drop here would strand a
     *  worker retrying a dead port forever). */
    bool
    sayGoodbye(Peer &p)
    {
        try {
            ipc::writeFrame(p.fd, ipc::kFrameDrain, serializeDrain(true));
        } catch (const SimError &) {
            return false;
        }
        countFrame(p, ipc::kFrameDrain);
        return true;
    }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (shutdownDone_)
                return;
            shutdownDone_ = true;
            draining_ = true;
            // Under mutex_, so no caller takes the lead after this.
            stop_.store(true, std::memory_order_release);
        }
        // Unhook the lease-table closure before any teardown: an HTTP
        // scrape racing shutdown must not call into a dying dispatcher.
        if (opts_.telemetry != nullptr)
            opts_.telemetry->setLeaseTableProvider(nullptr);
        wake();
        if (service_.joinable())
            service_.join();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return !leading_; });
        }

        // Nothing runs the loop any more; peers_ is ours now.
        discardQueued(true);
        std::set<std::string> drained;
        for (auto &pp : peers_) {
            Peer &p = *pp;
            if (!p.dead && sayGoodbye(p) && !p.identity.empty())
                drained.insert(p.identity);
            // Peer gone mid-goodbye: if it reconnects it gets the
            // lame-duck DRAIN below instead.
            p.dead = true;
        }
        reapLocalWorkers();
        reapDeadPeers();
        if (listenFd_ >= 0)
            lameDuck(&drained);
        for (int *fd : {&listenFd_, &wake_[0], &wake_[1]}) {
            if (*fd >= 0)
                ::close(*fd);
            *fd = -1;
        }
    }

    /** Exactly one SIGTERM per live local child after its DRAIN, a
     *  bounded reap, SIGKILL for stragglers: no zombie survives. */
    void
    reapLocalWorkers()
    {
        std::vector<Peer *> pending;
        for (auto &pp : peers_) {
            if (pp->local && pp->pid > 0) {
                ::kill(pp->pid, SIGTERM);
                pending.push_back(pp.get());
            }
        }
        const Clock::time_point deadline = after(pool_.reapTimeoutMs);
        while (!pending.empty() && Clock::now() < deadline) {
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
        for (Peer *p : pending)
            retire(*p, true);
        std::lock_guard<std::mutex> lock(mutex_);
        for (Slot &s : slots_)
            s.pid = -1;
    }

    /**
     * Lame duck: a worker knocked off right at sweep end (an injected
     * disconnect, plain bad timing) reconnects with sub-second backoff
     * and must find a goodbye, not a dead port. Keep accepting for a
     * bounded window and send every new connection the final DRAIN at
     * once — before its HELLO, which the net plan may drop — reading
     * HELLOs only to learn who was told, until each identity this
     * sweep ever saw has a goodbye (an identity that never returns — a
     * SIGKILLed worker, say — just costs the full window). Window >
     * the worker's worst-case reconnect gap (backoff cap 1000 ms +
     * jitter up to half that, plus connect time).
     */
    void
    lameDuck(std::set<std::string> *drained)
    {
        const Clock::time_point end = after(2500);
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (std::includes(drained->begin(), drained->end(),
                                  seenIdentities_.begin(),
                                  seenIdentities_.end()))
                    break;
            }
            const Clock::time_point now = Clock::now();
            if (now >= end)
                break;
            pollSet_.clear();
            pollSet_.push_back({listenFd_, POLLIN, 0});
            for (const auto &pp : peers_)
                pollSet_.push_back({pp->fd, POLLIN, 0});
            auto wait =
                std::chrono::ceil<std::chrono::milliseconds>(end - now);
            ::poll(pollSet_.data(), pollSet_.size(),
                   static_cast<int>(wait.count()));

            const size_t known = peers_.size();
            acceptPeers();
            for (size_t i = known; i < peers_.size(); ++i)
                peers_[i]->dead = !sayGoodbye(*peers_[i]);
            for (auto &pp : peers_) {
                Peer &p = *pp;
                ipc::Frame f;
                try {
                    while (!p.dead) {
                        ipc::ReadStatus st = p.chan.read(&f, 0);
                        if (st == ipc::ReadStatus::Timeout)
                            break;
                        if (st == ipc::ReadStatus::Eof)
                            p.dead = true;
                        else if (f.type == ipc::kFrameHello &&
                                 parseHello(p, f.body))
                            drained->insert(p.identity);
                    }
                } catch (const SimError &) {
                    // Desync, or a body version this build cannot
                    // read: drop the peer, keep serving.
                    p.dead = true;
                }
            }
            reapDeadPeers();
        }
        for (auto &p : peers_)
            ::close(p->fd);
        peers_.clear();
    }

    DispatchOptions opts_;
    const unsigned leaseMs_;
    const bool threaded_;       ///< the loop has a thread (coordinator)
    WorkerPool::Options pool_;  ///< local spawn settings (pool face)
    int listenFd_ = -1;         ///< coordinator face only
    uint16_t port_ = 0;
    std::string netPlanSpec_;
    int wake_[2] = {-1, -1};    ///< self-pipe: execute()/shutdown()

    // Private to whoever runs the loop (the service thread or the
    // leading execute() caller; the constructor before and shutdown()
    // after):
    std::vector<std::unique_ptr<Peer>> peers_;
    std::vector<Slot> slots_;   ///< pid also read under mutex_
    std::vector<struct pollfd> pollSet_;
    uint64_t acceptOrdinal_ = 0;
    uint64_t spawnAttempts_ = 0; ///< worker.spawn draw ordinal

    // Shared (guarded by mutex_):
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<uint64_t, Offer> offers_;
    std::deque<uint64_t> queue_;
    std::map<uint64_t, uint64_t> leaseHistory_; ///< lease -> offer
    SupervisionLedger ledger_;
    /** Per-identity lease losses: the backoff before its next grant. */
    std::map<std::string, unsigned> losses_;
    std::set<std::string> seenIdentities_;
    uint64_t nextOfferId_ = 1;
    uint64_t nextLeaseId_ = 1;
    bool draining_ = false;
    bool shutdownDone_ = false;
    bool leading_ = false;      ///< an execute() caller runs the loop
    DispatchStats stats_;

    std::atomic<bool> stop_{false};
    std::thread service_;       ///< declared last: it uses all of the above
};

// ---------------------------------------------------------------------
// The two faces
// ---------------------------------------------------------------------

WorkerPool::WorkerPool(const Options &opts) : impl_(new Dispatcher(opts))
{
}

WorkerPool::~WorkerPool() = default;

WorkerResult
WorkerPool::execute(WorkerJob job)
{
    // Drawn here, on the runner thread under the job's fault scope, so
    // the draw sequence matches the in-process pool; a fire fails the
    // LEASE send when the job is granted.
    std::string write_fault;
    try {
        faultinject::site("worker.frame.write", SimError::Kind::Io);
    } catch (const SimError &e) {
        write_fault = e.detail();
    }
    return impl_->execute(std::move(job), std::move(write_fault));
}

void
WorkerPool::shutdown()
{
    impl_->shutdown();
}

std::vector<int>
WorkerPool::workerPids() const
{
    std::vector<int> pids;
    std::lock_guard<std::mutex> lock(impl_->mutex_);
    for (const Dispatcher::Slot &s : impl_->slots_)
        if (s.pid > 0)
            pids.push_back(s.pid);
    return pids;
}

WorkerPool::Stats
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex_);
    return impl_->stats_;
}

Coordinator::Coordinator(const Options &opts)
    : impl_(new Dispatcher(opts))
{
}

Coordinator::~Coordinator() = default;

uint16_t
Coordinator::port() const
{
    return impl_->port_;
}

WorkerResult
Coordinator::execute(WorkerJob job)
{
    return impl_->execute(std::move(job), "");
}

void
Coordinator::shutdown()
{
    impl_->shutdown();
}

Coordinator::Stats
Coordinator::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex_);
    return impl_->stats_;
}

} // namespace vanguard
