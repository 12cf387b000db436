/**
 * @file
 * Worker-pool unit tests (tier1): the ipc frame codec (round-trip,
 * torn frames, CRC corruption, oversize refusal), the worker job /
 * result body codecs with exact hexfloat numeric round-trips, the
 * LEASE / RESULT envelopes around them and every other lease-protocol
 * decoder under hostile input, the supervision arithmetic
 * (heartbeat interval, backoff schedule, the loss ledger, kill /
 * heartbeat scope keys), and the deterministic worker fault sites. Everything here is in-process — the end-to-end kill drills
 * live in test_worker_kill.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/worker_pool.hh"
#include "support/checksum.hh"
#include "support/fault_inject.hh"
#include "support/ipc.hh"
#include "support/telemetry.hh"
#include "workloads/suites.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define VANGUARD_TEST_POSIX 1
#endif

namespace vanguard {
namespace {

#ifdef VANGUARD_TEST_POSIX

/** A connected socketpair that closes both ends on scope exit. */
struct PairFds
{
    int fds[2] = {-1, -1};
    PairFds() { ipc::makeSocketPair(fds); }
    ~PairFds()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        if (fds[1] >= 0)
            ::close(fds[1]);
    }
};

TEST(IpcFrame, RoundTripsBinaryAndEmptyPayloads)
{
    PairFds p;
    std::string binary("\x00\x01\xff\n\r\x7f frame", 12);
    ipc::writeFrame(p.fds[0], ipc::kFrameLease, binary);
    ipc::writeFrame(p.fds[0], ipc::kFrameHeartbeat, "");

    ipc::FrameChannel chan(p.fds[1]);
    ipc::Frame f;
    ASSERT_EQ(chan.read(&f, 1000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameLease);
    EXPECT_EQ(f.body, binary);
    ASSERT_EQ(chan.read(&f, 1000), ipc::ReadStatus::Ok);
    EXPECT_EQ(f.type, ipc::kFrameHeartbeat);
    EXPECT_TRUE(f.body.empty());

    // Nothing queued: the deadline expires as Timeout, not an error.
    EXPECT_EQ(chan.read(&f, 10), ipc::ReadStatus::Timeout);
}

TEST(IpcFrame, TornFrameThenPeerCloseIsEof)
{
    PairFds p;
    // Hand-build a valid frame, then send only half of it and close:
    // a worker killed mid-write. The reader must report Eof, never a
    // partial frame.
    std::string payload = "Jhello";
    uint32_t len = static_cast<uint32_t>(payload.size());
    uint32_t crc = crc32(payload);
    std::string wire;
    for (int i = 0; i < 4; ++i)
        wire += static_cast<char>((len >> (8 * i)) & 0xff);
    for (int i = 0; i < 4; ++i)
        wire += static_cast<char>((crc >> (8 * i)) & 0xff);
    wire += payload;

    ASSERT_EQ(::write(p.fds[0], wire.data(), wire.size() / 2),
              static_cast<ssize_t>(wire.size() / 2));
    ::close(p.fds[0]);
    p.fds[0] = -1;

    ipc::FrameChannel chan(p.fds[1]);
    ipc::Frame f;
    EXPECT_EQ(chan.read(&f, 1000), ipc::ReadStatus::Eof);
}

TEST(IpcFrame, CrcCorruptionAndOversizeAreLoudIoErrors)
{
    {
        PairFds p;
        std::string payload = "Jpayload";
        uint32_t len = static_cast<uint32_t>(payload.size());
        uint32_t crc = crc32(payload) ^ 1; // one bit off
        std::string wire;
        for (int i = 0; i < 4; ++i)
            wire += static_cast<char>((len >> (8 * i)) & 0xff);
        for (int i = 0; i < 4; ++i)
            wire += static_cast<char>((crc >> (8 * i)) & 0xff);
        wire += payload;
        ASSERT_EQ(::write(p.fds[0], wire.data(), wire.size()),
                  static_cast<ssize_t>(wire.size()));

        ipc::FrameChannel chan(p.fds[1]);
        ipc::Frame f;
        try {
            chan.read(&f, 1000);
            FAIL() << "CRC mismatch accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Io);
        }
    }
    {
        PairFds p;
        // A length prefix past kMaxFramePayload is desync: refuse
        // before buffering gigabytes.
        uint32_t len = ipc::kMaxFramePayload + 1;
        std::string wire;
        for (int i = 0; i < 4; ++i)
            wire += static_cast<char>((len >> (8 * i)) & 0xff);
        wire += std::string(4, '\0');
        ASSERT_EQ(::write(p.fds[0], wire.data(), wire.size()),
                  static_cast<ssize_t>(wire.size()));

        ipc::FrameChannel chan(p.fds[1]);
        ipc::Frame f;
        try {
            chan.read(&f, 1000);
            FAIL() << "oversize frame accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimError::Kind::Io);
        }
    }
}

#endif // VANGUARD_TEST_POSIX

TEST(WorkerSupervision, HeartbeatIntervalIsQuarterDeadline)
{
    EXPECT_EQ(heartbeatIntervalMs(10000), 2500u);
    EXPECT_EQ(heartbeatIntervalMs(400), 100u);
    // Degenerate deadlines still beat (never a zero interval).
    EXPECT_EQ(heartbeatIntervalMs(3), 1u);
    EXPECT_EQ(heartbeatIntervalMs(0), 1u);
}

TEST(WorkerSupervision, BackoffDoublesFromBaseAndClampsAtCap)
{
    BackoffPolicy b;
    b.baseMs = 25;
    b.capMs = 1000;
    EXPECT_EQ(b.delayMs(0), 0u); // first spawn is free
    EXPECT_EQ(b.delayMs(1), 25u);
    EXPECT_EQ(b.delayMs(2), 50u);
    EXPECT_EQ(b.delayMs(3), 100u);
    EXPECT_EQ(b.delayMs(6), 800u);
    EXPECT_EQ(b.delayMs(7), 1000u);
    EXPECT_EQ(b.delayMs(100), 1000u); // huge counts cannot overflow
    // Deterministic: same inputs, same schedule.
    for (unsigned n = 0; n < 32; ++n)
        EXPECT_EQ(b.delayMs(n), b.delayMs(n));
}

TEST(WorkerSupervision, LedgerQuarantinesStormsAndResetsOnCompletion)
{
    SupervisionLedger l(3, 4); // quarantine at 3, storm past 4

    // Delivery ordinals count per key, independently.
    EXPECT_EQ(l.nextDelivery("simulate:0"), 0u);
    EXPECT_EQ(l.nextDelivery("simulate:0"), 1u);
    EXPECT_EQ(l.nextDelivery("train:0"), 0u);
    EXPECT_EQ(l.nextDelivery("simulate:0"), 2u);

    // K consecutive deaths of one job quarantine it, and the count
    // starts over afterwards.
    EXPECT_EQ(l.noteLoss("simulate:7").deaths, 1u);
    EXPECT_FALSE(l.noteLoss("simulate:7").quarantine);
    SupervisionLedger::Loss third = l.noteLoss("simulate:7");
    EXPECT_EQ(third.deaths, 3u);
    EXPECT_TRUE(third.quarantine);
    EXPECT_EQ(l.noteLoss("simulate:7").deaths, 1u);

    // A completion resets the job's deaths and the storm streak.
    l.noteCompletion("simulate:7");
    SupervisionLedger::Loss after = l.noteLoss("simulate:7");
    EXPECT_EQ(after.deaths, 1u);
    EXPECT_EQ(after.streak, 1u);
    l.noteCompletion("simulate:7");

    // N losses with no completion are tolerated; the next one trips
    // the breaker exactly once. A loss with no job only grows the
    // streak.
    for (unsigned i = 1; i <= 4; ++i) {
        SupervisionLedger::Loss x = l.noteLoss(i % 2 ? "" : "train:1");
        EXPECT_EQ(x.streak, i);
        EXPECT_FALSE(x.storm);
        EXPECT_EQ(x.deaths, i % 2 ? 0u : i / 2);
    }
    EXPECT_FALSE(l.broken());
    EXPECT_NO_THROW(l.throwIfBroken());
    EXPECT_TRUE(l.noteLoss("").storm);

    // The owner breaks it with its own message; the first reason
    // wins and every later call sees it.
    EXPECT_TRUE(l.markBroken(SimError::Kind::Internal, "storm"));
    EXPECT_FALSE(l.markBroken(SimError::Kind::Divergence, "later"));
    EXPECT_FALSE(l.noteLoss("").storm);
    try {
        l.throwIfBroken();
        FAIL() << "broken ledger did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Internal);
        EXPECT_EQ(e.detail(), "storm");
    }
}

TEST(WorkerSupervision, KillAndHeartbeatScopesAreStableAndDistinct)
{
    // The scope keys are part of the determinism contract: a fault
    // plan replays identically across runs and worker counts because
    // these are pure functions. Pin exact values so an accidental
    // hash change shows up as a test diff, not a silent repro break.
    EXPECT_EQ(workerKillScope(0, 0), workerKillScope(0, 0));
    EXPECT_NE(workerKillScope(0xabc, 0), workerKillScope(0xabc, 1));
    EXPECT_NE(workerKillScope(0xabc, 0), workerKillScope(0xabd, 0));
    EXPECT_NE(workerHeartbeatScope(0xabc), workerKillScope(0xabc, 0));
    uint64_t pinned = workerKillScope(0x1234, 2);
    EXPECT_EQ(pinned, workerKillScope(0x1234, 2));
}

TEST(WorkerCodec, JobRoundTripsEverySpecOptionAndScopeField)
{
    WorkerJob j;
    j.phase = "simulate";
    j.slot = 41;
    j.scopeKey = 0xdeadbeefcafe1234ull;
    j.scopeStartDraw = 7;
    j.delivery = 2;
    j.config = 0;
    j.seed = 0xfeedface01ull;
    j.collectStalls = true;
    j.profileText = std::string("vanguard-profile\n\x00\x01raw", 21);

    j.spec = findBenchmark("gcc-like");
    j.spec.iterations = 12345;
    j.spec.noisePU = 1.0 / 3.0;       // not exactly representable in
    j.spec.takenPU = 0.1;             // decimal: hexfloat must carry
    j.specName = j.spec.name;         // them bit-exactly
    j.bindSpecName();

    j.options.width = 8;
    j.options.predictor = "tage";
    j.options.applyDecomposition = false;
    j.options.selection.minExposed = 2.0 / 7.0;
    j.options.selection.minPredictability = 0.3;
    j.options.superblock.biasThreshold = 0.99999999999999989;
    j.options.simCycleBudget = 987654321;

    WorkerJob back;
    std::string err;
    ASSERT_TRUE(parseWorkerJob(serializeWorkerJob(j), &back, &err))
        << err;

    EXPECT_EQ(back.phase, j.phase);
    EXPECT_EQ(back.slot, j.slot);
    EXPECT_EQ(back.scopeKey, j.scopeKey);
    EXPECT_EQ(back.scopeStartDraw, j.scopeStartDraw);
    EXPECT_EQ(back.delivery, j.delivery);
    EXPECT_EQ(back.config, j.config);
    EXPECT_EQ(back.seed, j.seed);
    EXPECT_EQ(back.collectStalls, j.collectStalls);
    EXPECT_EQ(back.profileText, j.profileText);

    ASSERT_NE(back.spec.name, nullptr);
    EXPECT_STREQ(back.spec.name, j.spec.name);
    EXPECT_EQ(back.spec.fp, j.spec.fp);
    EXPECT_EQ(back.spec.hammocksPU, j.spec.hammocksPU);
    EXPECT_EQ(back.spec.hammocksBP, j.spec.hammocksBP);
    EXPECT_EQ(back.spec.hammocksUP, j.spec.hammocksUP);
    EXPECT_EQ(back.spec.loadsPerSucc, j.spec.loadsPerSucc);
    EXPECT_EQ(back.spec.chainedSuccLoads, j.spec.chainedSuccLoads);
    EXPECT_EQ(back.spec.aluPerSucc, j.spec.aluPerSucc);
    EXPECT_EQ(back.spec.fpPerSucc, j.spec.fpPerSucc);
    EXPECT_EQ(back.spec.storesPerSucc, j.spec.storesPerSucc);
    EXPECT_EQ(back.spec.workingSetKB, j.spec.workingSetKB);
    EXPECT_EQ(back.spec.strideLines, j.spec.strideLines);
    EXPECT_EQ(back.spec.storesEarly, j.spec.storesEarly);
    EXPECT_EQ(back.spec.condChainOps, j.spec.condChainOps);
    EXPECT_EQ(back.spec.coldBlocks, j.spec.coldBlocks);
    EXPECT_EQ(back.spec.coldBlockInsts, j.spec.coldBlockInsts);
    EXPECT_EQ(back.spec.coldPeriod, j.spec.coldPeriod);
    EXPECT_EQ(back.spec.iterations, j.spec.iterations);
    // Bit-exact, not approximately equal: the whole point of the
    // hexfloat encoding.
    EXPECT_EQ(std::memcmp(&back.spec.noisePU, &j.spec.noisePU, 8), 0);
    EXPECT_EQ(std::memcmp(&back.spec.takenPU, &j.spec.takenPU, 8), 0);

    EXPECT_EQ(back.options.width, j.options.width);
    EXPECT_EQ(back.options.predictor, j.options.predictor);
    EXPECT_EQ(back.options.applyDecomposition,
              j.options.applyDecomposition);
    EXPECT_EQ(back.options.simCycleBudget, j.options.simCycleBudget);
    EXPECT_EQ(std::memcmp(&back.options.selection.minExposed,
                          &j.options.selection.minExposed, 8), 0);
    EXPECT_EQ(std::memcmp(&back.options.selection.minPredictability,
                          &j.options.selection.minPredictability, 8),
              0);
    EXPECT_EQ(std::memcmp(&back.options.superblock.biasThreshold,
                          &j.options.superblock.biasThreshold, 8), 0);
}

TEST(WorkerCodec, JobParseRejectsGarbage)
{
    WorkerJob out;
    std::string err;
    EXPECT_FALSE(parseWorkerJob("", &out, &err));
    EXPECT_FALSE(parseWorkerJob("not a job\n", &out, &err));
    // A future version is refused loudly at the header, by name (a
    // version-skewed worker binary must not limp along).
    try {
        parseWorkerJob("vanguard-workerjob v9\n", &out, &err);
        FAIL() << "future workerjob version accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Io);
        EXPECT_NE(e.detail().find("v9"), std::string::npos);
    }
    // An unknown top-level key is a desync, not silently dropped.
    EXPECT_FALSE(parseWorkerJob(
        "vanguard-workerjob v1\nphase train\nbogus 1\n", &out, &err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    // A phase outside the taxonomy is refused.
    EXPECT_FALSE(parseWorkerJob(
        "vanguard-workerjob v1\nphase assemble\n", &out, &err));
    // A blob whose declared length overruns the body is torn.
    EXPECT_FALSE(parseWorkerJob(
        "vanguard-workerjob v1\nphase train\nblob profile 99\nxx",
        &out, &err));
    EXPECT_NE(err.find("truncated"), std::string::npos);

    // The LEASE and RESULT envelopes around job and result bodies
    // refuse the same damage, without a crash or a huge allocation.
    WorkerJob job;
    job.phase = "train";
    job.spec = findBenchmark("gcc-like");
    job.specName = job.spec.name;
    job.bindSpecName();
    const std::string lease = serializeLease(7, 500, job);
    uint64_t id = 0;
    unsigned lease_ms = 0;
    ASSERT_TRUE(parseLease(lease, &id, &lease_ms, &out, &err)) << err;
    EXPECT_EQ(id, 7u);
    EXPECT_EQ(lease_ms, 500u);
    EXPECT_EQ(out.phase, "train");

    WorkerResult res;
    res.ok = false;
    res.message = "boom";
    const std::string envelope = serializeResultEnvelope(9, res);
    std::string bytes;
    ASSERT_TRUE(parseResultEnvelope(envelope, &id, &bytes, &err)) << err;
    EXPECT_EQ(id, 9u);
    EXPECT_EQ(bytes, serializeWorkerResult(res));

    auto inflate = [](std::string body) {
        size_t at = body.find("blob ");
        size_t nl = body.find('\n', at);
        return body.substr(0, at) + "blob x 18446744073709551615" +
               body.substr(nl);
    };
    const std::string bad_leases[] = {
        lease.substr(0, lease.size() / 2),          // truncated
        inflate(lease),                             // inflated length
        "vanguard-lease v1\nlease-ms 5\n",          // no lease id
        "vanguard-lease v1\nlease 0\n",             // lease id 0
        "vanguard-workerjob v1\nphase train\n",     // wrong header
        "",
    };
    for (const std::string &b : bad_leases)
        EXPECT_FALSE(parseLease(b, &id, &lease_ms, &out, &err)) << b;
    const std::string bad_envelopes[] = {
        envelope.substr(0, envelope.size() / 2),
        inflate(envelope),
        "vanguard-remoteresult v1\nblob result 2\nok\n",
        "vanguard-lease v1\nlease 9\nblob result 2\nok\n",
        "",
    };
    for (const std::string &b : bad_envelopes)
        EXPECT_FALSE(parseResultEnvelope(b, &id, &bytes, &err)) << b;
    // A future envelope version is refused by name, as a job is.
    EXPECT_THROW(parseLease("vanguard-lease v9\n", &id, &lease_ms,
                            &out, &err),
                 SimError);
    EXPECT_THROW(parseResultEnvelope("vanguard-remoteresult v9\n", &id,
                                     &bytes, &err),
                 SimError);

    // The other lease-protocol decoders (HELLO, CONFIG, RENEW/ACK,
    // DRAIN, STATS) refuse truncated, inflated-length and wrong-header
    // bodies (false, or lease 0) and a future version by name. A body
    // without blobs is inflated through a numeric field past its range.
    const std::string huge = " 99999999999999999999999\n";
    const std::string huge_blob = "blob x 18446744073709551615\n";
    const std::string drain = serializeDrain(true);

    uint64_t pid = 0;
    ASSERT_TRUE(parseWorkerHello(serializeWorkerHello(42), &pid));
    EXPECT_EQ(pid, 42u);
    for (const std::string &b :
         {std::string("vanguard-rem"), std::string("vanguard-remote v1\n"),
          "vanguard-remote v1\npid" + huge,
          serializeWorkerHello(42) + huge_blob, drain, std::string()})
        EXPECT_FALSE(parseWorkerHello(b, &pid)) << b;
    EXPECT_THROW(parseWorkerHello("vanguard-remote v9\npid 1\n", &pid),
                 SimError);

    WorkerConfig cfg;
    cfg.leaseMs = 250;
    cfg.faultPlan = "io:0.5,seed=3";
    cfg.netFaultPlan = "hang:0.1,seed=4";
    const std::string config = serializeWorkerConfig(cfg);
    WorkerConfig cfg_out;
    ASSERT_TRUE(parseWorkerConfig(config, &cfg_out));
    EXPECT_EQ(cfg_out.leaseMs, 250u);
    EXPECT_EQ(cfg_out.faultPlan, cfg.faultPlan);
    EXPECT_EQ(cfg_out.netFaultPlan, cfg.netFaultPlan);
    for (const std::string &b :
         {config.substr(0, config.size() - 3), inflate(config),
          "vanguard-workerconfig v1\nheartbeat-ms" + huge, lease,
          std::string()})
        EXPECT_FALSE(parseWorkerConfig(b, &cfg_out)) << b;
    EXPECT_THROW(parseWorkerConfig("vanguard-workerconfig v9\n", &cfg_out),
                 SimError);

    const std::string renew = serializeLeaseRef("vanguard-renew", 5);
    EXPECT_EQ(parseLeaseRef(renew, "vanguard-renew"), 5u);
    for (const std::string &b :
         {renew.substr(0, renew.size() - 3),
          "vanguard-renew v1\nlease" + huge, renew + huge_blob,
          serializeLeaseRef("vanguard-ack", 5), std::string()})
        EXPECT_EQ(parseLeaseRef(b, "vanguard-renew"), 0u) << b;
    EXPECT_THROW(parseLeaseRef("vanguard-ack v9\nlease 5\n", "vanguard-ack"),
                 SimError);

    bool final_drain = false;
    ASSERT_TRUE(parseDrain(drain, &final_drain));
    EXPECT_TRUE(final_drain);
    ASSERT_TRUE(parseDrain(serializeDrain(false), &final_drain));
    EXPECT_FALSE(final_drain);
    for (const std::string &b :
         {drain.substr(0, drain.size() - 3),
          "vanguard-drain v1\nfinal" + huge, drain + huge_blob, renew,
          std::string()})
        EXPECT_FALSE(parseDrain(b, &final_drain)) << b;
    EXPECT_THROW(parseDrain("vanguard-drain v9\nfinal 1\n", &final_drain),
                 SimError);

    // STATS is advisory: a future version is dropped, not an error.
    PeerStats ps;
    ps.pid = 77;
    ps.jobsDone = 3;
    const std::string stats = serializePeerStats(ps);
    PeerStats ps_out;
    ASSERT_TRUE(parsePeerStats(stats, &ps_out));
    EXPECT_EQ(ps_out.pid, 77u);
    for (const std::string &b :
         {stats.substr(0, 10), "vanguard-stats v1\njobs-done" + huge,
          drain, std::string(), std::string("vanguard-stats v9\npid 1\n")})
        EXPECT_FALSE(parsePeerStats(b, &ps_out)) << b;
}

TEST(WorkerCodec, ResultRoundTripsOkFailAndInjectedCounts)
{
    {
        // Simulate success: stats travel through the journal record
        // codec (CRC-guarded, the same bytes a resume replays).
        WorkerResult r;
        r.ok = true;
        r.slot = 9;
        r.stats.cycles = 1234567;
        r.stats.dynamicInsts = 99999;
        r.stats.brMispredicts = 321;
        r.stats.halted = true;
        r.stats.branchStalls[17] = {100, 7};
        r.injected[static_cast<size_t>(SimError::Kind::Io)] = 3;

        WorkerResult back;
        std::string err;
        ASSERT_TRUE(
            parseWorkerResult(serializeWorkerResult(r), &back, &err))
            << err;
        EXPECT_TRUE(back.ok);
        EXPECT_EQ(back.slot, 9u);
        EXPECT_EQ(back.stats.cycles, r.stats.cycles);
        EXPECT_EQ(back.stats.dynamicInsts, r.stats.dynamicInsts);
        EXPECT_EQ(back.stats.brMispredicts, r.stats.brMispredicts);
        EXPECT_EQ(back.stats.halted, r.stats.halted);
        EXPECT_EQ(back.stats.branchStalls, r.stats.branchStalls);
        EXPECT_EQ(
            back.injected[static_cast<size_t>(SimError::Kind::Io)],
            3u);
    }
    {
        // Train success: the profile blob is opaque bytes.
        WorkerResult r;
        r.ok = true;
        r.slot = 0;
        r.profileText = std::string("p\x00\xffrofile\n", 10);
        WorkerResult back;
        std::string err;
        ASSERT_TRUE(
            parseWorkerResult(serializeWorkerResult(r), &back, &err))
            << err;
        EXPECT_EQ(back.profileText, r.profileText);
    }
    {
        // Failure: kind and message must survive verbatim (the
        // supervisor rethrows them, and the failure table's bytes are
        // part of the identity contract). Newlines and spaces in the
        // message ride the length-prefixed blob unescaped.
        WorkerResult r;
        r.ok = false;
        r.slot = 4;
        r.kind = SimError::Kind::Hang;
        r.message = "cycle budget exceeded\nwith a second line | and "
                    "table chars";
        WorkerResult back;
        std::string err;
        ASSERT_TRUE(
            parseWorkerResult(serializeWorkerResult(r), &back, &err))
            << err;
        EXPECT_FALSE(back.ok);
        EXPECT_EQ(back.kind, SimError::Kind::Hang);
        EXPECT_EQ(back.message, r.message);
    }
    {
        // An ok result with neither profile nor record is desync.
        WorkerResult out;
        std::string err;
        EXPECT_FALSE(parseWorkerResult(
            "vanguard-workerresult v1\nslot 1\nstatus ok\n", &out,
            &err));
    }
}

TEST(WorkerFaults, KillDrawsVaryByDeliveryAndSuppressionIsPerJob)
{
    // The worker.kill site draws one value per (job scope, delivery):
    // a redelivered job draws fresh (a fault-plan kill is a one-shot
    // crash, not a poison job), and the pattern is a pure function of
    // the plan — the contract behind worker-count independence.
    faultinject::arm(parseFaultPlan("internal:0.5,seed=42"));
    auto kills = [](uint64_t job_scope) {
        std::vector<bool> fired;
        for (uint64_t d = 0; d < 16; ++d) {
            faultinject::Scope s(workerKillScope(job_scope, d));
            fired.push_back(faultinject::siteFires(
                "worker.kill", SimError::Kind::Internal));
        }
        return fired;
    };
    std::vector<bool> a1 = kills(0x1111);
    std::vector<bool> a2 = kills(0x1111);
    std::vector<bool> b = kills(0x2222);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
    EXPECT_NE(std::count(a1.begin(), a1.end(), true), 0);
    EXPECT_NE(std::count(a1.begin(), a1.end(), true), 16);

    // Heartbeat suppression is all-or-nothing per job: every beat of
    // one job draws under the same scope at draw 0, so either the
    // whole job's heartbeat goes silent (guaranteed watchdog trip) or
    // none of it does.
    faultinject::arm(parseFaultPlan("hang:0.5,seed=9"));
    auto beat = [](uint64_t job_scope) {
        faultinject::Scope s(workerHeartbeatScope(job_scope));
        return faultinject::siteFires("worker.heartbeat",
                                      SimError::Kind::Hang);
    };
    bool found_suppressed = false, found_beating = false;
    for (uint64_t scope = 0; scope < 64; ++scope) {
        bool first = beat(scope);
        for (int k = 0; k < 8; ++k)
            EXPECT_EQ(beat(scope), first) << "beat " << k
                                          << " of job " << scope;
        found_suppressed |= first;
        found_beating |= !first;
    }
    EXPECT_TRUE(found_suppressed);
    EXPECT_TRUE(found_beating);

    // siteFires is a non-throwing, non-counting probe: the injected
    // gauges must not move (they are part of dump identity).
    faultinject::disarm();
}

TEST(WorkerFaults, SiteFiresDoesNotPerturbJobDrawsOrGauges)
{
    faultinject::arm(parseFaultPlan("internal:1.0,seed=1"));
    faultinject::Scope job_scope(0x77);
    uint64_t before_draws = faultinject::currentDrawCount();
    uint64_t before_injected =
        faultinject::injectedCount(SimError::Kind::Internal);
    {
        // The worker draws kill probes under a nested one-off scope,
        // exactly as maybeDeliberateCrash does, so the enclosing job
        // scope's draw sequence is untouched.
        faultinject::Scope probe(workerKillScope(0x77, 0));
        EXPECT_TRUE(faultinject::siteFires(
            "worker.kill", SimError::Kind::Internal));
    }
    // No draw visible to in-body sites was consumed, and no injected
    // gauge moved: both are part of cross-mode dump identity.
    EXPECT_EQ(faultinject::currentDrawCount(), before_draws);
    EXPECT_EQ(faultinject::injectedCount(SimError::Kind::Internal),
              before_injected);
    faultinject::disarm();
}

TEST(WorkerPoolApi, RttHistogramBoundsAreSharedAndSorted)
{
    // The runner registers engine.worker.job_rtt unconditionally with
    // these bounds so both isolation modes dump identical histogram
    // shapes; the pool observes into the same instrument.
    std::vector<uint64_t> bounds = workerRttBoundsMs();
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_LT(bounds[i - 1], bounds[i]);
}

} // namespace
} // namespace vanguard
