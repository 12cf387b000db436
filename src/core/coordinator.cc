/**
 * @file
 * Sweep-fabric implementation: lease bookkeeping and the coordinator
 * service thread. See coordinator.hh for the protocol and state
 * machine; the remote worker lives with the shared worker loop in
 * worker_pool.cc.
 */

#include "core/coordinator.hh"

#include <atomic>
#include <chrono>
#include <set>

#include <unistd.h>

#include "support/fault_inject.hh"
#include "support/flight_recorder.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/telemetry.hh"

namespace vanguard {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

struct Coordinator::Impl
{
    struct Peer
    {
        int fd = -1;
        ipc::FrameChannel chan;
        std::string addr;       ///< ip:port of the connection
        std::string identity;   ///< "pid@ip" from the hello frame
        bool helloed = false;
        bool claimPending = false;
        bool dead = false;
        uint64_t leaseId = 0;   ///< active lease on this connection
        uint64_t connScope = 0; ///< net.* draw scope
        uint64_t drawCursor = 0;
        Clock::time_point notBefore;  ///< backoff gate for grants
        Clock::time_point lastTx;     ///< for idle heartbeats
    };

    struct Offer
    {
        enum State { Queued, Leased, Done };
        State state = Queued;
        uint64_t id = 0;
        WorkerJob job;
        std::string key;        ///< "phase:slot" (policy bookkeeping)
        unsigned grants = 0;    ///< deliveries so far
        uint64_t leaseId = 0;   ///< current lease (Leased only)
        std::string leasedTo;   ///< identity of the leaseholder
        Clock::time_point leaseExpiry;
        bool discarded = false; ///< drained before any lease
        std::string resultBytes; ///< recorded result (Done)
        bool failSynthesized = false; ///< poison-quarantine failure
        std::string failMessage;
    };

    explicit Impl(const Options &opts)
        : opts_(opts),
          ledger_(opts.quarantineDeaths, opts.restartStormLimit)
    {
        if (opts_.leaseMs == 0)
            opts_.leaseMs = 1;
        if (opts_.faultPlanSpec.empty() && faultinject::armed())
            opts_.faultPlanSpec =
                faultPlanSpec(faultinject::currentPlan());
        if (faultinject::netArmed())
            netPlanSpec_ = faultPlanSpec(faultinject::currentNetPlan());
        listenFd_ = ipc::listenTcp(opts_.port);
        port_ = ipc::listenPort(listenFd_);
        if (opts_.telemetry != nullptr) {
            // The /progress lease table reads the offer map under
            // mutex_; shutdown() clears the provider before this Impl
            // can die, so the closure never outlives `this`.
            opts_.telemetry->setLeaseTableProvider([this] {
                std::vector<LeaseInfo> out;
                Clock::time_point now = Clock::now();
                std::lock_guard<std::mutex> lock(mutex_);
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
        service_ = std::thread([this] { serviceLoop(); });
    }

    ~Impl()
    {
        shutdown();
    }

    void
    bumpCounter(const char *name, uint64_t delta = 1)
    {
        if (opts_.metrics != nullptr)
            opts_.metrics->counter(name).add(delta);
    }

    // ---- execute() side (runner pool threads) ----

    WorkerResult
    execute(WorkerJob job)
    {
        job.bindSpecName();
        const std::string key =
            job.phase + ":" + std::to_string(job.slot);

        std::unique_lock<std::mutex> lock(mutex_);
        ledger_.throwIfBroken();
        if (draining_ || shutdownRequested())
            throw JobDiscarded();
        uint64_t id = nextOfferId_++;
        {
            Offer &o = offers_[id];
            o.id = id;
            o.job = std::move(job);
            o.job.bindSpecName();
            o.key = key;
            queue_.push_back(id);
        }
        cv_.wait(lock, [&] {
            const Offer &o = offers_[id];
            return ledger_.broken() || o.state == Offer::Done ||
                   o.discarded;
        });
        ledger_.throwIfBroken();
        Offer &o = offers_[id];
        if (o.discarded)
            throw JobDiscarded();
        if (o.failSynthesized)
            throw SimError(SimError::Kind::Internal, o.failMessage);

        WorkerResult res;
        std::string err;
        if (!parseWorkerResult(o.resultBytes, &res, &err)) {
            // The bytes were CRC-clean on the wire and parse-checked
            // at receive time; failing here is a coordinator bug.
            throw SimError(SimError::Kind::Internal,
                           "recorded result for " + o.key +
                               " unreadable: " + err);
        }
        lock.unlock();
        for (size_t k = 0; k < FaultPlan::kNumKinds; ++k)
            faultinject::recordRemoteInjections(
                static_cast<SimError::Kind>(k), res.injected[k]);
        if (!res.ok)
            throw SimError(res.kind, res.message);
        return res;
    }

    void
    markBroken(SimError::Kind kind, const std::string &reason)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (ledger_.markBroken(kind, reason))
            flightRecord("error", "fabric.broken", reason);
        cv_.notify_all();
    }

    // ---- service thread ----

    ipc::SendStatus
    sendToPeer(Peer &p, char type, const std::string &body)
    {
        ipc::SendStatus st =
            ipc::sendFrameNet(p.fd, type, body, p.connScope,
                              &p.drawCursor);
        p.lastTx = Clock::now();
        if (st == ipc::SendStatus::Ok) {
            std::lock_guard<std::mutex> lock(mutex_);
            stats_.frames++;
        }
        if (st == ipc::SendStatus::Ok)
            bumpCounter("engine.net.frames");
        if (st == ipc::SendStatus::Disconnected)
            p.dead = true;
        return st;
    }

    void
    serviceLoop()
    {
        while (!stop_.load(std::memory_order_acquire)) {
            if (shutdownRequested())
                discardQueued();
            acceptPeers();
            pumpPeers();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                expireLeases();
            }
            grantLeases();
            heartbeatIdlePeers();
            reapDeadPeers();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        // Final drain: every connected peer gets its goodbye, sent
        // injection-free — shutdown is a control path, not a chaos
        // subject (an injected drop here would strand a worker
        // retrying a dead port forever).
        discardQueued();
        std::set<std::string> drained;
        auto drainPeer = [&](Peer &p) {
            if (p.dead)
                return;
            try {
                ipc::writeFrame(p.fd, ipc::kFrameDrain,
                                serializeDrain(true));
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    stats_.frames++;
                }
                bumpCounter("engine.net.frames");
                if (!p.identity.empty())
                    drained.insert(p.identity);
            } catch (const SimError &) {
                // Peer gone mid-goodbye; if it reconnects it gets
                // the lame-duck DRAIN below instead.
            }
            p.dead = true;
        };
        for (auto &p : peers_)
            drainPeer(*p);
        reapDeadPeers();

        // Lame duck: a worker knocked off right at sweep end (an
        // injected disconnect, plain bad timing) reconnects with
        // sub-second backoff and must find a goodbye, not a dead
        // port. Keep accepting for a bounded window, answering every
        // HELLO with an immediate final DRAIN, until each identity
        // this sweep ever saw has one (an identity that never returns
        // — a SIGKILLed worker, say — just costs the full window).
        // Window > the worker's worst-case reconnect gap (backoff cap
        // 1000ms + jitter up to half that, plus connect/hello time).
        auto lame_duck_end =
            Clock::now() + std::chrono::milliseconds(2500);
        while (Clock::now() < lame_duck_end) {
            bool all_drained = true;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                for (const std::string &ident : seenIdentities_) {
                    if (drained.find(ident) == drained.end()) {
                        all_drained = false;
                        break;
                    }
                }
            }
            if (all_drained)
                break;
            acceptPeers();
            for (auto &pp : peers_) {
                Peer &p = *pp;
                if (p.dead)
                    continue;
                ipc::Frame f;
                ipc::ReadStatus st;
                bool hello;
                try {
                    st = p.chan.read(&f, 0);
                    hello = st == ipc::ReadStatus::Ok &&
                            f.type == ipc::kFrameHello &&
                            parseHello(p, f.body);
                } catch (const SimError &) {
                    // Desync, or a body version this build cannot
                    // read: drop the peer, keep serving.
                    p.dead = true;
                    continue;
                }
                if (st == ipc::ReadStatus::Eof)
                    p.dead = true;
                else if (hello)
                    drainPeer(p);
            }
            reapDeadPeers();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        for (auto &p : peers_)
            ::close(p->fd);
        peers_.clear();
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
    }

    void
    discardQueued()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bool any = false;
        for (uint64_t id : queue_) {
            Offer &o = offers_[id];
            if (o.state == Offer::Queued && !o.discarded) {
                o.discarded = true;
                any = true;
            }
        }
        queue_.clear();
        if (any)
            cv_.notify_all();
    }

    void
    acceptPeers()
    {
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
            uint64_t ord = acceptOrdinal_++;
            uint64_t scope = ipc::netConnScope(ord, 0);
            if (faultinject::netSiteFires("net.accept",
                                          SimError::Kind::Io, scope,
                                          0)) {
                ::close(fd);
                continue;
            }
            auto p = std::make_unique<Peer>();
            p->fd = fd;
            p->chan.reset(fd);
            p->addr = addr;
            p->connScope = scope;
            p->notBefore = Clock::now();
            p->lastTx = Clock::now();
            peers_.push_back(std::move(p));
        }
    }

    void
    pumpPeers()
    {
        for (auto &pp : peers_) {
            Peer &p = *pp;
            if (p.dead)
                continue;
            for (;;) {
                ipc::Frame f;
                ipc::ReadStatus st;
                try {
                    st = p.chan.read(&f, 0); // non-blocking drain
                } catch (const SimError &e) {
                    losePeer(p, "protocol desync (" + e.detail() +
                                    ")");
                    break;
                }
                if (st == ipc::ReadStatus::Timeout)
                    break;
                if (st == ipc::ReadStatus::Eof) {
                    losePeer(p, "disconnected");
                    break;
                }
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    stats_.frames++;
                }
                bumpCounter("engine.net.frames");
                bool keep;
                try {
                    keep = handleFrame(p, f);
                } catch (const SimError &e) {
                    // A frame body of a version this build cannot
                    // read costs that peer its connection, never the
                    // coordinator.
                    losePeer(p, "protocol desync (" + e.detail() + ")");
                    break;
                }
                if (!keep)
                    break;
            }
        }
    }

    bool
    handleFrame(Peer &p, const ipc::Frame &f)
    {
        switch (f.type) {
        case ipc::kFrameHello:
            return handleHello(p, f.body);
        case ipc::kFrameClaim:
            if (p.helloed)
                p.claimPending = true;
            return true;
        case ipc::kFrameRenew: {
            // A malformed renew (lease 0) is tolerated: the lease
            // simply expires.
            uint64_t lease = parseLeaseRef(f.body, "vanguard-renew");
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = leaseHistory_.find(lease);
            if (it != leaseHistory_.end()) {
                Offer &o = offers_[it->second];
                if (o.state == Offer::Leased && o.leaseId == lease)
                    o.leaseExpiry =
                        Clock::now() +
                        std::chrono::milliseconds(opts_.leaseMs);
            }
            return true;
        }
        case ipc::kFrameResult:
            return handleResult(p, f.body);
        case ipc::kFrameHeartbeat:
            return true;
        case ipc::kFrameStats: {
            // Advisory live stats for the telemetry hub. Identity is
            // receiver-assigned (the HELLO-derived pid@ip), and a
            // malformed body is dropped, never a desync — telemetry
            // cannot cost a peer its connection.
            PeerStats ps;
            if (opts_.telemetry != nullptr && p.helloed &&
                parsePeerStats(f.body, &ps)) {
                ps.identity = p.identity;
                opts_.telemetry->notePeerStats(ps);
            }
            return true;
        }
        default:
            losePeer(p, detail::csprintf(
                            "protocol desync (frame '%c')", f.type));
            return false;
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

    bool
    handleHello(Peer &p, const std::string &body)
    {
        if (!parseHello(p, body)) {
            losePeer(p, "hello carries no vanguard-remote header");
            return false;
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
                    Clock::now() +
                    std::chrono::milliseconds(
                        opts_.backoff.delayMs(losses_[p.identity]));
            }
        }
        if (reconnect)
            bumpCounter("engine.net.reconnects");

        WorkerConfig cfg;
        cfg.leaseMs = opts_.leaseMs;
        cfg.faultPlan = opts_.faultPlanSpec;
        cfg.netFaultPlan = netPlanSpec_;
        if (sendToPeer(p, ipc::kFrameConfig,
                       serializeWorkerConfig(cfg)) ==
            ipc::SendStatus::Disconnected) {
            losePeer(p, "lost during config");
            return false;
        }
        return true;
    }

    bool
    handleResult(Peer &p, const std::string &body)
    {
        uint64_t lease = 0;
        std::string result_bytes, err;
        if (!parseResultEnvelope(body, &lease, &result_bytes, &err)) {
            losePeer(p, err);
            return false;
        }
        // Validate the payload before recording it as the truth
        // duplicates get compared against.
        {
            WorkerResult parsed;
            if (!parseWorkerResult(result_bytes, &parsed, &err)) {
                losePeer(p, "unreadable worker result (" + err + ")");
                return false;
            }
        }
        if (p.leaseId == lease)
            p.leaseId = 0;

        bool duplicate = false;
        bool divergence = false;
        std::string divergence_msg;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = leaseHistory_.find(lease);
            if (it == leaseHistory_.end()) {
                vg_warn("fabric: result for unknown lease %llu from "
                        "%s; acknowledged and ignored",
                        static_cast<unsigned long long>(lease),
                        p.identity.c_str());
            } else {
                Offer &o = offers_[it->second];
                if (o.state == Offer::Done) {
                    stats_.duplicateResults++;
                    duplicate = true;
                    // The exactly-once proof: a duplicate completion
                    // must be bit-identical to the recorded one. (A
                    // quarantined offer has no recorded bytes; its
                    // late result is just dropped.)
                    if (!o.resultBytes.empty() &&
                        o.resultBytes != result_bytes) {
                        divergence = true;
                        divergence_msg = detail::csprintf(
                            "duplicate completion of %s diverges from "
                            "the recorded result (%zu vs %zu bytes); "
                            "a worker is computing different bits for "
                            "the same job",
                            o.key.c_str(), result_bytes.size(),
                            o.resultBytes.size());
                    }
                } else {
                    // First completion wins — whether it came from the
                    // current leaseholder or a presumed-dead worker
                    // whose lease already expired and was requeued.
                    if (o.state == Offer::Queued)
                        removeFromQueue(o.id);
                    o.state = Offer::Done;
                    o.leaseId = 0;
                    o.resultBytes = std::move(result_bytes);
                    ledger_.noteCompletion(o.key);
                    losses_[p.identity] = 0;
                    cv_.notify_all();
                }
            }
        }
        if (duplicate)
            bumpCounter("engine.net.duplicate_results");
        if (divergence) {
            markBroken(SimError::Kind::Divergence, divergence_msg);
            return true;
        }
        if (sendToPeer(p, ipc::kFrameResultAck,
                       serializeLeaseRef("vanguard-ack", lease)) ==
            ipc::SendStatus::Disconnected) {
            losePeer(p, "lost during result ack");
            return false;
        }
        return true;
    }

    void
    removeFromQueue(uint64_t id)
    {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (*it == id) {
                queue_.erase(it);
                return;
            }
        }
    }

    /** A lease-holding peer vanished or a lease expired: requeue the
     *  offer and run the loss policy. Caller holds mutex_. */
    void
    loseLeaseLocked(Offer &o, const std::string &why)
    {
        const uint64_t lost_lease = o.leaseId;
        o.state = Offer::Queued;
        o.leaseId = 0;
        const std::string identity = o.leasedTo;
        o.leasedTo.clear();

        SupervisionLedger::Loss loss = ledger_.noteLoss(o.key);
        losses_[identity]++;
        flightRecord("event", "fabric.lease_lost",
                     o.key + " held by " + identity + ": " + why);
        for (auto &pp : peers_) {
            // A still-connected holder of the lost lease becomes
            // grantable again (its eventual result reconciles through
            // leaseHistory_), after the backoff delay.
            if (pp->leaseId == lost_lease)
                pp->leaseId = 0;
            if (pp->identity == identity && !pp->dead)
                pp->notBefore =
                    Clock::now() +
                    std::chrono::milliseconds(
                        opts_.backoff.delayMs(losses_[identity]));
        }
        if (loss.storm) {
            ledger_.markBroken(
                SimError::Kind::Internal,
                detail::csprintf("lease-loss storm: %u consecutive "
                                 "lost leases with no completed job; "
                                 "breaking the fabric",
                                 loss.streak));
            cv_.notify_all();
        }
        if (loss.quarantine) {
            o.state = Offer::Done;
            o.failSynthesized = true;
            o.failMessage = detail::csprintf(
                "poison job quarantined: %s lost %u consecutive "
                "leases (last: %s)",
                o.key.c_str(), loss.deaths, why.c_str());
            flightRecord("error", "fabric.quarantine", o.failMessage);
            cv_.notify_all();
        } else {
            queue_.push_back(o.id);
            vg_warn("fabric: %s lease on %s %s; requeued "
                    "(loss %u of %u)",
                    identity.c_str(), o.key.c_str(), why.c_str(),
                    loss.deaths, opts_.quarantineDeaths);
        }
    }

    void
    losePeer(Peer &p, const std::string &why)
    {
        if (p.dead)
            return;
        p.dead = true;
        if (p.helloed) {
            vg_warn("fabric: worker %s %s", p.identity.c_str(),
                    why.c_str());
            flightRecord("event", "fabric.peer_lost",
                         p.identity + ": " + why);
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (p.leaseId != 0) {
            auto it = leaseHistory_.find(p.leaseId);
            if (it != leaseHistory_.end()) {
                Offer &o = offers_[it->second];
                if (o.state == Offer::Leased &&
                    o.leaseId == p.leaseId)
                    loseLeaseLocked(o, "holder " + why);
            }
            p.leaseId = 0;
        }
    }

    /** Caller holds mutex_. */
    void
    expireLeases()
    {
        Clock::time_point now = Clock::now();
        for (auto &kv : offers_) {
            Offer &o = kv.second;
            if (o.state != Offer::Leased || o.leaseExpiry > now)
                continue;
            stats_.leasesExpired++;
            expiredToBump_++;
            loseLeaseLocked(o, "expired");
        }
    }

    void
    grantLeases()
    {
        // Counter bumps deferred out of the lock.
        uint64_t granted = 0, regranted = 0, expired = 0;
        struct Grant
        {
            Peer *peer;
            uint64_t lease;
            std::string body;
        };
        std::vector<Grant> grants;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            expired = expiredToBump_;
            expiredToBump_ = 0;
            Clock::time_point now = Clock::now();
            bool stop_granting =
                ledger_.broken() || draining_ || shutdownRequested();
            if (!stop_granting) {
                for (auto &pp : peers_) {
                    Peer &p = *pp;
                    if (p.dead || !p.helloed || !p.claimPending ||
                        p.leaseId != 0 || p.notBefore > now)
                        continue;
                    uint64_t id = 0;
                    bool found = false;
                    while (!queue_.empty()) {
                        id = queue_.front();
                        queue_.pop_front();
                        Offer &cand = offers_[id];
                        if (cand.state == Offer::Queued &&
                            !cand.discarded) {
                            found = true;
                            break;
                        }
                    }
                    if (!found)
                        break; // queue empty: idle heartbeats cover it
                    Offer &o = offers_[id];
                    o.job.delivery = ledger_.nextDelivery(o.key);
                    o.state = Offer::Leased;
                    o.leaseId = nextLeaseId_++;
                    o.leasedTo = p.identity;
                    o.leaseExpiry =
                        now + std::chrono::milliseconds(opts_.leaseMs);
                    leaseHistory_[o.leaseId] = o.id;
                    o.grants++;
                    stats_.leasesGranted++;
                    granted++;
                    if (o.grants > 1) {
                        stats_.leasesRegranted++;
                        regranted++;
                    }
                    p.claimPending = false;
                    grants.push_back(
                        {&p, o.leaseId,
                         serializeLease(o.leaseId, opts_.leaseMs,
                                        o.job)});
                }
            }
        }
        bumpCounter("engine.net.leases_granted", granted);
        bumpCounter("engine.net.leases_regranted", regranted);
        bumpCounter("engine.net.leases_expired", expired);
        for (Grant &g : grants) {
            ipc::SendStatus st =
                sendToPeer(*g.peer, ipc::kFrameLease, g.body);
            if (st == ipc::SendStatus::Disconnected) {
                losePeer(*g.peer, "lost during lease grant");
            } else if (st == ipc::SendStatus::Ok ||
                       st == ipc::SendStatus::Dropped) {
                // Dropped: the worker never saw the lease; its claim
                // times out and the lease expiry requeues the job —
                // the injected-duplicate/requeue drill path.
                g.peer->leaseId = g.lease;
            }
        }
    }

    void
    heartbeatIdlePeers()
    {
        unsigned interval = heartbeatIntervalMs(opts_.leaseMs);
        Clock::time_point now = Clock::now();
        for (auto &pp : peers_) {
            Peer &p = *pp;
            if (p.dead || !p.helloed)
                continue;
            if (now - p.lastTx >=
                std::chrono::milliseconds(interval)) {
                // Keeps waiting workers from mistaking an empty queue
                // for a dead coordinator.
                if (sendToPeer(p, ipc::kFrameHeartbeat, "") ==
                    ipc::SendStatus::Disconnected)
                    losePeer(p, "lost during heartbeat");
            }
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

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (shutdownDone_)
                return;
            shutdownDone_ = true;
            draining_ = true;
        }
        // Unhook the lease-table closure before any teardown: an HTTP
        // scrape racing shutdown must not call into a dying Impl.
        if (opts_.telemetry != nullptr)
            opts_.telemetry->setLeaseTableProvider(nullptr);
        stop_.store(true, std::memory_order_release);
        if (service_.joinable())
            service_.join();
        // Wake any straggling execute() callers (their offers were
        // discarded by the service thread's final drain pass).
        cv_.notify_all();
    }

    Options opts_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::string netPlanSpec_;
    std::thread service_;
    std::atomic<bool> stop_{false};

    // Service-thread-private:
    std::vector<std::unique_ptr<Peer>> peers_;
    uint64_t acceptOrdinal_ = 0;

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
    uint64_t expiredToBump_ = 0;
    bool draining_ = false;
    bool shutdownDone_ = false;
    Stats stats_;
};

Coordinator::Coordinator(const Options &opts)
    : impl_(new Impl(opts))
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
    return impl_->execute(std::move(job));
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
