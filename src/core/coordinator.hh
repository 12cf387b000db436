/**
 * @file
 * Distributed sweep fabric: a TCP coordinator that leases job indices
 * to remote workers — and the lease dispatcher it shares with the
 * process-isolated WorkerPool.
 *
 * This is the networked half of the worker architecture: the same
 * self-contained job bodies (core/worker_pool.hh WorkerJob /
 * WorkerResult, codecs and all) cross a TCP socket instead of a
 * socketpair, and the remote worker (runRemoteWorker in
 * core/worker_pool.hh) runs the very loop a `--worker` process runs,
 * speaking the same CRC-framed protocol (support/ipc.hh). Every piece
 * of sweep bookkeeping — journal,
 * metric merges, result slots, retry policy, artifact reuse — stays
 * in the coordinator process, which is exactly why a distributed run
 * is byte-identical to an in-process one: the runner consumes the
 * same slot-indexed results either way; only *where* a body computed
 * differs.
 *
 * Lease protocol (all frame bodies versioned; see ipc.hh for types):
 *
 *   worker                    coordinator
 *   ------                    -----------
 *   HELLO "vanguard-remote"->
 *                          <- CONFIG (lease-ms, fault plans)
 *   CLAIM                  ->
 *                          <- LEASE (lease id, job body)   [or: idle
 *                                                           HEARTBEATs
 *                                                           while the
 *                                                           queue is
 *                                                           empty]
 *   RENEW (every lease/4)  ->
 *   RESULT (lease id, body)->
 *                          <- RESULT-ACK (lease id)
 *   ...claim again...
 *                          <- DRAIN (final)                [shutdown]
 *
 * Lease state machine (per offered job):
 *
 *   Queued --grant--> Leased --result--> Done
 *     ^                  |                 ^
 *     |   expiry/peer    |                 |  late/duplicate result:
 *     +---- loss --------+                 |  byte-compare against the
 *           (re-grant to a live peer;      |  recorded result; mismatch
 *            kQuarantine consecutive       |  is a loud
 *            losses fail the job)          +- SimError(Divergence)
 *
 * Delivery semantics: leases make delivery *at least once* — an
 * expired lease is re-granted even though the original worker may
 * still finish (a renew lost to the network looks identical to a dead
 * worker). Completions are reconciled idempotently: the first result
 * for an offer is recorded (and flows into the journal/metric merges,
 * which are keyed by slot and already idempotent from the resume
 * path); every later result must be bit-identical to the recorded
 * bytes or the sweep dies with SimError(Divergence) — at-least-once
 * delivery + idempotent ledger merge = exactly-once effect, and the
 * byte-compare is the proof it held.
 *
 * Robustness policy (SupervisionLedger, applied to leases):
 * late-joining workers are admitted at any time; a worker
 * identity ("pid@ip") that loses leases is re-granted work only after
 * the shared BackoffPolicy delay; a job that loses quarantineDeaths
 * consecutive leases is failed as poison (SimError(Internal)) instead
 * of starving the queue; restartStormLimit consecutive lease losses
 * with no completion anywhere break the fabric loudly. SIGINT/SIGTERM
 * (the process-wide shutdown latch) discards queued-but-unleased
 * offers — their execute() calls raise JobDiscarded so the runner
 * records *nothing* for them, keeping resume byte-identity — while
 * leased offers run to completion and checkpoint.
 *
 * The remote worker renews its lease from a side thread while the body
 * runs, retransmits unacknowledged results, and reconnects with
 * jittered exponential backoff across coordinator restarts and
 * injected partitions (journal resume makes the coordinator itself
 * crash-safe; an unACKed result is simply discarded on reconnect
 * because re-execution is idempotent).
 *
 * One dispatcher runs this state machine for both supervisors: the
 * offer queue, lease grant and renew, result reconciliation and ACK,
 * and the STATS feed. Its loop blocks in one poll(2) over the listen
 * socket (coordinator only), every peer and a self-pipe that execute()
 * and shutdown() write to; lease expiry and idle heartbeats are the
 * poll timeout. The coordinator runs the loop on a service thread;
 * the pool has no thread of its own, and the callers waiting in
 * execute() take turns running it. A peer's origin is fixed when it
 * is created and decides the two things that differ:
 *
 *   silence (lease expiry)    local child: SIGKILLed, job fails Hang
 *                             TCP peer:    lease re-granted
 *   failed LEASE send         local child: reaped, job fails with the
 *                                          transient Io the runner
 *                                          retries
 *                             TCP peer:    peer lost, offer requeued
 *
 * plus the counter family: engine.worker.* for local children (no
 * idle HEARTBEATs, frames = LEASE + RESULT), engine.net.* for TCP
 * peers (every frame).
 */

#ifndef VANGUARD_CORE_COORDINATOR_HH
#define VANGUARD_CORE_COORDINATOR_HH

#include <cstdint>
#include <memory>

#include "core/worker_pool.hh"

namespace vanguard {

class Coordinator
{
  public:
    struct Options : DispatchOptions
    {
        uint16_t port = 0;          ///< 0 = ephemeral (see port())
        unsigned leaseMs = 10000;   ///< lease duration / renew base
    };

    /** Binds the listener and starts the service thread. Throws
     *  SimError(Io) if the port cannot be bound. */
    explicit Coordinator(const Options &opts);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** The bound port (resolves port 0 to the kernel's pick). */
    uint16_t port() const;

    /**
     * Run one job body on some remote worker (blocking; thread-safe;
     * called from runner pool threads). Returns only an ok result.
     * Worker-reported failures rethrow as SimError(kind, message)
     * verbatim; poison jobs throw SimError(Internal); a broken fabric
     * (restart storm, divergent duplicate) throws its reason from
     * every call; a shutdown drain throws JobDiscarded for offers no
     * worker had leased.
     */
    WorkerResult execute(WorkerJob job);

    /**
     * Drain and stop: joins the service thread, discards unfinished
     * offers, sends every connected peer a final DRAIN frame, holds
     * the port for the lame-duck window (every connection accepted
     * there gets a final DRAIN at once), and closes all sockets.
     * Idempotent; the destructor calls it.
     */
    void shutdown();

    using Stats = DispatchStats;
    Stats stats() const;

  private:
    std::unique_ptr<Dispatcher> impl_;
};

} // namespace vanguard

#endif // VANGUARD_CORE_COORDINATOR_HH
