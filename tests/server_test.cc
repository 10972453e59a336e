/**
 * @file
 * interpd end-to-end and unit tests.
 *
 * The end-to-end suite runs a real Server (event loop on its own
 * thread, workers on the harness pool) against a Unix-domain socket
 * and drives it through the same loadgen code path the CLI tool uses.
 * It pins the acceptance contract of the serving mode:
 *
 *   identity   every OK response is byte-identical to what the batch
 *              harness produces for the same spec (commands, native
 *              instructions, stdout) — serving must not perturb the
 *              measurement, even with several modes in flight;
 *   shedding   an over-capacity burst yields SHED responses and zero
 *              crashes, and every request id is answered exactly once;
 *   deadlines  an already-expired deadline returns DEADLINE without
 *              executing; a mid-run expiry aborts at a safepoint;
 *   stats      STATS counters reconcile exactly with client-observed
 *              totals.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <unistd.h>

#include "harness/runner.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "server/stats.hh"
#include "support/logging.hh"
#include "tracefile/reader.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::server;
using harness::Lang;

namespace {

/** A running daemon on a private Unix socket, torn down on scope exit. */
class TestServer
{
  public:
    explicit TestServer(ServerConfig cfg)
    {
        static int counter = 0;
        char path[96];
        std::snprintf(path, sizeof(path), "/tmp/interpd_test_%d_%d.sock",
                      (int)::getpid(), counter++);
        cfg.unixPath = path;
        server = std::make_unique<Server>(cfg);
        server->start();
        loop = std::thread([this] { server->run(); });
    }

    ~TestServer()
    {
        server->stop();
        loop.join();
        server.reset();
    }

    const std::string &path() const { return server->config().unixPath; }
    Server &daemon() { return *server; }

  private:
    std::unique_ptr<Server> server;
    std::thread loop;
};

/** What the batch harness measures for a micro spec under `mode`. */
harness::Measurement
batchMeasure(Lang mode, const std::string &op, int iterations)
{
    harness::BenchSpec spec =
        harness::microBench(harness::baselineOf(mode), op, iterations);
    spec.lang = mode;
    return harness::run(spec, {}, nullptr, /*with_machine=*/false);
}

EvalRequest
microRequest(Lang mode, uint32_t iterations)
{
    EvalRequest req;
    req.mode = mode;
    req.program = "micro:a=b+c";
    req.iterations = iterations;
    return req;
}

} // namespace

// --- protocol unit tests ---------------------------------------------------

TEST(Protocol, EvalRequestRoundTrip)
{
    EvalRequest req;
    req.id = 7;
    req.mode = Lang::JavaQuick;
    req.flags = kFlagRecordTrace | kFlagWithMachine;
    req.deadlineMs = 1500;
    req.maxCommands = 123456789;
    req.iterations = 42;
    req.kind = ProgramKind::Inline;
    req.program = "puts \"hi\"";

    std::string wire;
    encodeEvalRequest(wire, req);

    std::string payload;
    ASSERT_EQ(takeFrame(wire, payload, kMaxRequestBytes),
              FrameResult::Frame);
    EXPECT_TRUE(wire.empty());
    EXPECT_EQ(requestVerb(payload), (uint8_t)Verb::Eval);

    EvalRequest back;
    ASSERT_TRUE(decodeEvalRequest(payload, back));
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.mode, req.mode);
    EXPECT_EQ(back.flags, req.flags);
    EXPECT_EQ(back.deadlineMs, req.deadlineMs);
    EXPECT_EQ(back.maxCommands, req.maxCommands);
    EXPECT_EQ(back.iterations, req.iterations);
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.program, req.program);
}

TEST(Protocol, ResponseRoundTripAndPartialFrames)
{
    EvalResponse resp;
    resp.id = 99;
    resp.status = Status::Deadline;
    resp.commands = 1;
    resp.instructions = 2;
    resp.cycles = 3;
    resp.queueMicros = 4;
    resp.serviceMicros = 5;
    resp.result = "late";

    std::string wire;
    encodeResponse(wire, resp);

    // Feed the stream a byte at a time: Incomplete until the last one.
    std::string buf, payload;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        buf.push_back(wire[i]);
        ASSERT_EQ(takeFrame(buf, payload, kMaxResponseBytes),
                  FrameResult::Incomplete);
    }
    buf.push_back(wire.back());
    ASSERT_EQ(takeFrame(buf, payload, kMaxResponseBytes),
              FrameResult::Frame);

    EvalResponse back;
    ASSERT_TRUE(decodeResponse(payload, back));
    EXPECT_EQ(back.id, resp.id);
    EXPECT_EQ(back.status, resp.status);
    EXPECT_EQ(back.result, resp.result);
    EXPECT_EQ(back.queueMicros, resp.queueMicros);
}

TEST(Protocol, MalformationsAreRejected)
{
    // Oversized frame length.
    std::string buf("\xff\xff\xff\xff", 4);
    std::string payload;
    EXPECT_EQ(takeFrame(buf, payload, kMaxRequestBytes),
              FrameResult::Malformed);

    // Unknown mode byte.
    EvalRequest req;
    req.program = "des";
    std::string wire;
    encodeEvalRequest(wire, req);
    ASSERT_EQ(takeFrame(wire, payload, kMaxRequestBytes),
              FrameResult::Frame);
    std::string bad = payload;
    bad[5] = (char)0x7f; // mode field (verb + u32 id precede it)
    EvalRequest back;
    EXPECT_FALSE(decodeEvalRequest(bad, back));
    bad[5] = (char)harness::kNumModes; // first byte past the table
    EXPECT_FALSE(decodeEvalRequest(bad, back));

    // Truncated payload.
    bad = payload.substr(0, payload.size() - 1);
    EXPECT_FALSE(decodeEvalRequest(bad, back));
    // Trailing garbage.
    bad = payload + "x";
    EXPECT_FALSE(decodeEvalRequest(bad, back));

    // STATS decoder rejects an EVAL payload and vice versa.
    StatsRequest sback;
    EXPECT_FALSE(decodeStatsRequest(payload, sback));
}

TEST(Protocol, EveryModeNameRoundTripsCaseInsensitively)
{
    ASSERT_EQ(harness::kNumModes, 11);
    for (const harness::ModeInfo &m : harness::kModeTable) {
        std::string upper = m.name;
        for (char &c : upper)
            c = (char)std::toupper((unsigned char)c);
        for (const std::string &name : {std::string(m.name), upper}) {
            Lang back = Lang::C;
            EXPECT_TRUE(langFromName(name, back)) << name;
            EXPECT_EQ(back, m.lang) << name;
        }
    }
    Lang back = Lang::C;
    EXPECT_TRUE(langFromName("JVM-Quick", back));
    EXPECT_EQ(back, Lang::JavaQuick);
    EXPECT_FALSE(langFromName("Tcl-turbo", back));
    EXPECT_FALSE(langFromName("Perl-ic", back));
    EXPECT_FALSE(langFromName("Tcl-jit", back));
    EXPECT_FALSE(langFromName("", back));
}

TEST(Protocol, StatsRequestRoundTrip)
{
    StatsRequest req;
    req.id = 31337;
    std::string wire;
    encodeStatsRequest(wire, req);
    std::string payload;
    ASSERT_EQ(takeFrame(wire, payload, kMaxRequestBytes),
              FrameResult::Frame);
    EXPECT_EQ(requestVerb(payload), (uint8_t)Verb::Stats);
    StatsRequest back;
    ASSERT_TRUE(decodeStatsRequest(payload, back));
    EXPECT_EQ(back.id, req.id);
}

TEST(Protocol, RecvBufferBurstDrainsIdenticalFrames)
{
    // The O(F*B) regression: a large pipelined burst used to cost one
    // whole-buffer memmove per frame. The RecvBuffer drain must hand
    // back exactly the frame sequence the string-based drain does, in
    // every chunking, with hello handling included.
    std::string wire;
    encodeHello(wire);
    constexpr int kFrames = 4000;
    for (int i = 0; i < kFrames; ++i) {
        EvalRequest req;
        req.id = (uint32_t)i;
        req.mode = Lang::Tcl;
        // Sizes vary so frame boundaries land at every chunk offset.
        req.program = std::string(1 + (i * 37) % 300, 'a' + i % 26);
        encodeEvalRequest(wire, req);
    }

    auto drainString = [&](size_t chunk) {
        std::vector<std::string> frames;
        std::string buf, payload;
        bool greeted = false;
        for (size_t off = 0; off < wire.size(); off += chunk) {
            buf.append(wire, off, std::min(chunk, wire.size() - off));
            if (!greeted) {
                if (takeHello(buf) != HelloResult::Ok)
                    continue;
                greeted = true;
            }
            while (takeFrame(buf, payload, kMaxRequestBytes) ==
                   FrameResult::Frame)
                frames.push_back(payload);
        }
        EXPECT_TRUE(buf.empty());
        return frames;
    };
    auto drainRecv = [&](size_t chunk) {
        std::vector<std::string> frames;
        RecvBuffer buf;
        std::string payload;
        bool greeted = false;
        for (size_t off = 0; off < wire.size(); off += chunk) {
            size_t n = std::min(chunk, wire.size() - off);
            buf.append(wire.data() + off, n);
            if (!greeted) {
                if (takeHello(buf) != HelloResult::Ok)
                    continue;
                greeted = true;
            }
            while (takeFrame(buf, payload, kMaxRequestBytes) ==
                   FrameResult::Frame)
                frames.push_back(payload);
        }
        EXPECT_TRUE(buf.empty());
        return frames;
    };

    // One poll cycle delivering the whole burst, typical read sizes,
    // and a pathological byte-at-a-time trickle over a small prefix.
    for (size_t chunk : {wire.size(), (size_t)65536, (size_t)4096,
                         (size_t)1023}) {
        std::vector<std::string> want = drainString(chunk);
        std::vector<std::string> got = drainRecv(chunk);
        ASSERT_EQ(want.size(), got.size()) << "chunk " << chunk;
        EXPECT_EQ(want.size(), (size_t)kFrames) << "chunk " << chunk;
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(want[i], got[i])
                << "chunk " << chunk << " frame " << i;
    }
}

TEST(Protocol, RecvBufferCompactsOncePerAppendCycle)
{
    // consume() must not move bytes; the erase happens lazily on the
    // next append. size()/data() always describe the unread suffix.
    RecvBuffer buf;
    buf.append("abcdef", 6);
    buf.consume(4);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_EQ(std::string(buf.data(), buf.size()), "ef");
    buf.append("gh", 2);
    EXPECT_EQ(std::string(buf.data(), buf.size()), "efgh");
    buf.consume(4);
    EXPECT_TRUE(buf.empty());
    // Defensive clamp: a consume past the end empties, never UB.
    buf.append("xy", 2);
    buf.consume(99);
    EXPECT_TRUE(buf.empty());
    buf.clear();
    EXPECT_TRUE(buf.empty());
}

// --- stats unit tests ------------------------------------------------------

TEST(LatencyHistogram, BucketsAreLog2)
{
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 0);
    EXPECT_EQ(LatencyHistogram::bucketOf(2), 1);
    EXPECT_EQ(LatencyHistogram::bucketOf(3), 1);
    EXPECT_EQ(LatencyHistogram::bucketOf(1023), 9);
    EXPECT_EQ(LatencyHistogram::bucketOf(1024), 10);
    EXPECT_EQ(LatencyHistogram::bucketFloor(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketFloor(10), 1024u);
    EXPECT_EQ(LatencyHistogram::bucketCeil(0), 1u);
    EXPECT_EQ(LatencyHistogram::bucketCeil(10), 2047u);
    // Every value lands in the bucket that brackets it:
    // floor <= v <= ceil.
    for (uint64_t v :
         {0ull, 1ull, 7ull, 100ull, 4095ull, 1ull << 20}) {
        int b = LatencyHistogram::bucketOf(v);
        EXPECT_LE(LatencyHistogram::bucketFloor(b), v);
        EXPECT_GE(LatencyHistogram::bucketCeil(b), v);
    }

    LatencyHistogram h;
    for (int i = 0; i < 99; ++i)
        h.add(10); // bucket 3: [8, 16)
    h.add(100000); // bucket 16: [65536, 131072)
    EXPECT_EQ(h.count(), 100u);
    // Quantiles resolve to the bucket's inclusive upper bound, so
    // they never under-report the tail (the old floor answer turned
    // a p99 of 10us into "8us").
    EXPECT_EQ(h.quantile(0.50), 15u);
    EXPECT_EQ(h.quantile(0.99), 15u);
    EXPECT_EQ(h.quantile(1.0), 131071u);
    EXPECT_LE(10u, h.quantile(0.50));
    EXPECT_LE(100000u, h.quantile(1.0));
}

TEST(LatencyHistogram, QuantileNeverBelowExactQuantile)
{
    // The histogram quantile and LoadgenTotals::percentile use the
    // same rank formula (q * (n-1) over the sorted samples); with
    // ceiling resolution the coarse answer must bound the exact one
    // from above at every probed quantile.
    std::vector<uint64_t> samples;
    LatencyHistogram h;
    uint64_t v = 1;
    for (int i = 0; i < 500; ++i) {
        v = (v * 2862933555777941757ull + 3037000493ull) % 200000;
        samples.push_back(v);
        h.add(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        uint64_t exact =
            samples[(size_t)(q * (double)(samples.size() - 1))];
        EXPECT_LE(exact, h.quantile(q)) << "q=" << q;
    }
}

TEST(ServerStatsJson, RenderAndParse)
{
    ServerStats stats;
    stats.noteAccepted(Lang::Tcl);
    stats.noteServed(Lang::Tcl);
    stats.noteAccepted(Lang::Mipsi);
    stats.noteShed(Lang::Mipsi);
    stats.noteLatency(10, 1000);

    std::string json = stats.renderJson(3, 2);
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "accepted", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.served", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.MIPSI.shed", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "queued_jobs", v));
    EXPECT_EQ(v, 3u);
    ASSERT_TRUE(statsJsonUint(json, "idle_workers", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "histograms.total_us.count", v));
    EXPECT_EQ(v, 1u);
    EXPECT_FALSE(statsJsonUint(json, "modes.Perl.served", v));
    EXPECT_FALSE(statsJsonUint(json, "no.such.path", v));
}

// --- end-to-end: identity under concurrency --------------------------------

TEST(ServerEndToEnd, LoadgenMatchesBatchHarnessAcrossModes)
{
    const uint32_t kIters = 300;
    const std::vector<Lang> modes = {Lang::Mipsi, Lang::Java,
                                     Lang::Tcl, Lang::MipsiThreaded};

    // The serving path must reproduce the batch harness bit for bit.
    std::map<Lang, harness::Measurement> expected;
    for (Lang mode : modes)
        expected.emplace(mode,
                         batchMeasure(mode, "a=b+c", (int)kIters));

    ServerConfig cfg;
    cfg.workers = 2;
    TestServer ts(cfg);

    LoadgenOptions opt;
    opt.unixPath = ts.path();
    opt.clients = 4;
    opt.requestsPerClient = 6;
    for (Lang mode : modes)
        opt.mix.push_back(microRequest(mode, kIters));
    opt.onResponse = [&expected](const EvalRequest &req,
                                 const EvalResponse &resp) {
        ASSERT_EQ(resp.status, Status::Ok) << resp.result;
        const harness::Measurement &m = expected.at(req.mode);
        EXPECT_EQ(resp.commands, m.commands);
        EXPECT_EQ(resp.instructions, m.profile.instructions());
        EXPECT_EQ(resp.result, m.stdoutText);
        EXPECT_EQ(resp.cycles, 0u); // no kFlagWithMachine
    };

    LoadgenReport report = runLoadgen(opt);
    EXPECT_EQ(report.all.sent, 24u);
    EXPECT_EQ(report.all.ok, 24u);

    // STATS reconciles exactly with the client-observed totals.
    Client conn = Client::connectUnix(ts.path());
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "accepted", v));
    EXPECT_EQ(v, report.all.sent);
    ASSERT_TRUE(statsJsonUint(json, "served", v));
    EXPECT_EQ(v, report.all.ok);
    ASSERT_TRUE(statsJsonUint(json, "shed", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "deadline", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "failed", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "histograms.total_us.count", v));
    EXPECT_EQ(v, report.all.ok);
    for (Lang mode : modes) {
        std::string path = std::string("modes.") +
                           harness::langName(mode) + ".served";
        ASSERT_TRUE(statsJsonUint(json, path, v)) << path;
        EXPECT_EQ(v, report.byMode.at(harness::langName(mode)).ok);
    }
}

// --- end-to-end: backpressure ----------------------------------------------

TEST(ServerEndToEnd, OverCapacityBurstShedsWithoutCrashing)
{
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxQueue = 2;
    cfg.maxBatch = 1;
    TestServer ts(cfg);

    // Pipeline a burst far beyond queue capacity; every id must come
    // back exactly once, sheds must appear, nothing may crash.
    const uint32_t kBurst = 12;
    Client conn = Client::connectUnix(ts.path());
    for (uint32_t i = 1; i <= kBurst; ++i) {
        EvalRequest req = microRequest(Lang::Tcl, 20000);
        req.id = i;
        conn.sendEval(req);
    }

    std::map<uint32_t, Status> outcomes;
    for (uint32_t i = 0; i < kBurst; ++i) {
        EvalResponse resp = conn.recv();
        EXPECT_TRUE(outcomes.emplace(resp.id, resp.status).second)
            << "duplicate response for id " << resp.id;
    }
    ASSERT_EQ(outcomes.size(), kBurst);

    uint64_t ok = 0, shed = 0;
    for (const auto &entry : outcomes) {
        ASSERT_TRUE(entry.second == Status::Ok ||
                    entry.second == Status::Shed)
            << "id " << entry.first << " -> "
            << statusName(entry.second);
        (entry.second == Status::Ok ? ok : shed)++;
    }
    EXPECT_GE(ok, 1u);   // at least the in-flight request ran
    EXPECT_GE(shed, 1u); // the burst exceeded queue + in-flight
    EXPECT_EQ(ok + shed, kBurst);

    // And the daemon is still healthy afterwards.
    EvalRequest again = microRequest(Lang::Tcl, 300);
    again.id = 777;
    EvalResponse resp = conn.eval(again);
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "accepted", v));
    EXPECT_EQ(v, (uint64_t)kBurst + 1);
    ASSERT_TRUE(statsJsonUint(json, "shed", v));
    EXPECT_EQ(v, shed);
    ASSERT_TRUE(statsJsonUint(json, "served", v));
    EXPECT_EQ(v, ok + 1);
}

// --- end-to-end: deadlines -------------------------------------------------

TEST(ServerEndToEnd, ExpiredDeadlineReturnsWithoutExecuting)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());

    // A (no deadline) occupies the single worker; B (deadline 0 =
    // already expired) must be answered DEADLINE at dequeue with zero
    // work done. FIFO order makes this deterministic.
    EvalRequest a = microRequest(Lang::Mipsi, 20000);
    a.id = 1;
    EvalRequest b = microRequest(Lang::Mipsi, 20000);
    b.id = 2;
    b.deadlineMs = 0;
    conn.sendEval(a);
    conn.sendEval(b);

    std::map<uint32_t, EvalResponse> responses;
    for (int i = 0; i < 2; ++i) {
        EvalResponse resp = conn.recv();
        responses[resp.id] = resp;
    }
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].status, Status::Ok) << responses[1].result;
    EXPECT_EQ(responses[2].status, Status::Deadline);
    EXPECT_EQ(responses[2].commands, 0u);
    EXPECT_EQ(responses[2].instructions, 0u);
    EXPECT_EQ(responses[2].result, "deadline expired before execution");

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "deadline", v));
    EXPECT_EQ(v, 1u);
}

TEST(ServerEndToEnd, MidRunDeadlineAbortsAtSafepoint)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    // Big enough to run well past the deadline; the safepoint sink
    // must cut it off (or the dequeue check, if the queue was slow —
    // either way: DEADLINE, never a full run).
    EvalRequest req = microRequest(Lang::Tcl, 2'000'000);
    req.id = 5;
    req.deadlineMs = 1;
    EvalResponse resp = conn.eval(req);
    EXPECT_EQ(resp.status, Status::Deadline);
    EXPECT_EQ(resp.commands, 0u);
}

TEST(ServerEndToEnd, MixedClassLoadSplitsOutcomesByClass)
{
    // A heterogeneous interactive:batch mix through one overloaded
    // daemon: deadline misses and sheds must be attributable to the
    // traffic class that suffered them, and the client-side per-class
    // ledger must reconcile with the server's STATS counters.
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxQueue = 2;
    cfg.maxBatch = 1;
    TestServer ts(cfg);

    auto named = [](const char *name, uint32_t deadline) {
        EvalRequest req;
        req.mode = Lang::Mipsi;
        req.kind = ProgramKind::Named;
        req.program = name;
        req.deadlineMs = deadline;
        return req;
    };

    LoadgenOptions opt;
    opt.unixPath = ts.path();
    opt.clients = 4;
    opt.requestsPerClient = 8;
    opt.openRatePerSec = 2000; // far beyond one worker + queue of 2
    // Interactive requests carry an already-expired deadline, so any
    // that reach the worker are answered DEADLINE deterministically;
    // batch requests are unbounded registry runs slow enough (~70ms)
    // that the open-loop schedule must overflow the queue.
    opt.mix.push_back(named("spin", 0));
    opt.mix.push_back(named("matmul", kNoDeadline));
    opt.classOf = [](const EvalRequest &req) {
        const workloads::Workload *w = workloads::find(req.program);
        return std::string(
            w ? workloads::trafficName(w->traffic) : "other");
    };

    LoadgenReport report = runLoadgen(opt);

    ASSERT_EQ(report.byClass.size(), 2u);
    const LoadgenTotals &inter = report.byClass.at("interactive");
    const LoadgenTotals &batch = report.byClass.at("batch");

    // The classes partition the run exactly.
    EXPECT_EQ(report.all.sent, 32u);
    EXPECT_EQ(inter.sent, 16u);
    EXPECT_EQ(batch.sent, 16u);
    for (const LoadgenTotals *t : {&inter, &batch})
        EXPECT_EQ(t->sent,
                  t->ok + t->shed + t->deadline + t->error);

    // Deadline enforcement lands only on the class that set one: an
    // expired-deadline request never executes, so interactive gets no
    // OK and at least one DEADLINE, while batch can never miss.
    EXPECT_EQ(inter.ok, 0u);
    EXPECT_GE(inter.deadline, 1u);
    EXPECT_EQ(batch.deadline, 0u);
    EXPECT_EQ(inter.error, 0u);
    EXPECT_EQ(batch.error, 0u);
    // The overload must shed, yet batch work still completes.
    EXPECT_GE(report.all.shed, 1u);
    EXPECT_GE(batch.ok, 1u);

    // Server-side accounting reconciles with the per-class view:
    // every DEADLINE the daemon counted was an interactive request,
    // every SHED is in the client ledger.
    Client conn = Client::connectUnix(ts.path());
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "deadline", v));
    EXPECT_EQ(v, inter.deadline);
    ASSERT_TRUE(statsJsonUint(json, "shed", v));
    EXPECT_EQ(v, report.all.shed);
}

// --- end-to-end: containment, inline programs, recording -------------------

TEST(ServerEndToEnd, PoisonedProgramIsContainedAsError)
{
    ServerConfig cfg;
    cfg.workers = 1;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());

    // Inline tclish program that works.
    EvalRequest good;
    good.id = 1;
    good.mode = Lang::Tcl;
    good.kind = ProgramKind::Inline;
    good.program = "puts \"served inline\"";
    EvalResponse resp = conn.eval(good);
    ASSERT_EQ(resp.status, Status::Ok) << resp.result;
    EXPECT_EQ(resp.result, "served inline\n");
    EXPECT_GT(resp.commands, 0u);

    // A poisoned program fails its own request, not the daemon.
    EvalRequest bad;
    bad.id = 2;
    bad.mode = Lang::Tcl;
    bad.kind = ProgramKind::Inline;
    bad.program = "no_such_command_at_all 1 2 3";
    resp = conn.eval(bad);
    EXPECT_EQ(resp.status, Status::Error);
    EXPECT_FALSE(resp.result.empty());

    // An unknown catalog name likewise.
    EvalRequest unknown;
    unknown.id = 3;
    unknown.mode = Lang::Perl;
    unknown.program = "no-such-benchmark";
    resp = conn.eval(unknown);
    EXPECT_EQ(resp.status, Status::Error);

    // The daemon survived both and still serves.
    resp = conn.eval(good);
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "failed", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "served", v));
    EXPECT_EQ(v, 2u);
}

TEST(ServerEndToEnd, RecordFlagWritesReplayableTape)
{
    char dir[96];
    std::snprintf(dir, sizeof(dir), "/tmp/interpd_test_tapes_%d",
                  (int)::getpid());

    ServerConfig cfg;
    cfg.workers = 1;
    cfg.recordDir = dir;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    EvalRequest req = microRequest(Lang::Java, 300);
    req.id = 44;
    req.flags = kFlagRecordTrace;
    EvalResponse resp = conn.eval(req);
    ASSERT_EQ(resp.status, Status::Ok) << resp.result;

    // The tape exists, is finalized, and records the same run.
    // microBench names the spec after the op; -r44 is the request id.
    std::string tape = std::string(dir) + "/java-a_b_c-r44.itr";
    tracefile::TraceReader reader(tape);
    EXPECT_EQ(reader.meta().commands, resp.commands);
    EXPECT_TRUE(reader.meta().finished);
    std::remove(tape.c_str());
}

// --- end-to-end: open loop -------------------------------------------------

TEST(ServerEndToEnd, OpenLoopAccountsForEveryRequest)
{
    ServerConfig cfg;
    cfg.workers = 2;
    TestServer ts(cfg);

    LoadgenOptions opt;
    opt.unixPath = ts.path();
    opt.clients = 2;
    opt.requestsPerClient = 5;
    opt.openRatePerSec = 200; // paced sends, pipelined receives
    opt.mix.push_back(microRequest(Lang::Tcl, 300));
    opt.mix.push_back(microRequest(Lang::Mipsi, 300));

    LoadgenReport report = runLoadgen(opt);
    EXPECT_EQ(report.all.sent, 10u);
    EXPECT_EQ(report.all.ok + report.all.shed + report.all.deadline +
                  report.all.error,
              10u);
    EXPECT_EQ(report.all.ok, report.all.latencyUs.size());
    EXPECT_FALSE(report.table().empty());
}

// --- histogram edge cases ---------------------------------------------------

TEST(LatencyHistogram, QuantileOnEmptyIsZero)
{
    // An empty histogram has no samples to rank; every quantile is 0,
    // never a bucket bound hallucinated from zero counts. The proxy
    // renders quantiles for shards that have served nothing yet.
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 0u) << "q=" << q;
}

TEST(LatencyHistogram, MergeFromPartialPeerIsExactAtBucketGrain)
{
    // Merging a peer that has seen only some buckets (the common
    // cluster case: a shard that answered a handful of requests)
    // must equal the histogram of the concatenated sample sets —
    // bucket by bucket, count included.
    std::vector<uint64_t> mine = {1, 9, 9, 300, 70000};
    std::vector<uint64_t> peers = {10, 10000};

    LatencyHistogram a;
    for (uint64_t v : mine)
        a.add(v);
    LatencyHistogram b;
    for (uint64_t v : peers)
        b.add(v);
    LatencyHistogram all;
    for (uint64_t v : mine)
        all.add(v);
    for (uint64_t v : peers)
        all.add(v);

    a.mergeFrom(b);
    EXPECT_EQ(a.count(), all.count());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(a.bucket(i), all.bucket(i)) << "bucket " << i;
    for (double q : {0.5, 0.99, 1.0})
        EXPECT_EQ(a.quantile(q), all.quantile(q)) << "q=" << q;

    // Merging into an empty histogram reproduces the peer exactly;
    // merging an empty peer is a no-op.
    LatencyHistogram empty;
    empty.mergeFrom(all);
    EXPECT_EQ(empty.count(), all.count());
    LatencyHistogram before = all;
    LatencyHistogram nothing;
    all.mergeFrom(nothing);
    EXPECT_EQ(all.count(), before.count());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(all.bucket(i), before.bucket(i));
}

// --- end-to-end: dynamic tier-up -------------------------------------------

TEST(ServerEndToEnd, TierPromotionFiresAndPreservesIdentity)
{
    const uint32_t kIters = 300;

    // Baseline ground truth from the batch harness: every response,
    // whatever tier it ran at, must reproduce these.
    harness::Measurement java =
        batchMeasure(Lang::Java, "a=b+c", (int)kIters);
    harness::Measurement tcl =
        batchMeasure(Lang::Tcl, "a=b+c", (int)kIters);

    ServerConfig cfg;
    cfg.workers = 1; // sequential requests -> deterministic ladder
    cfg.tier.enabled = true;
    cfg.tier.remedyAfter = 2;
    cfg.tier.tier2After = 4;
    cfg.tier.commandsPerPoint = 1'000'000'000;
    cfg.tier.decayEvery = 1'000'000;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    const int kRequests = 6;
    std::vector<uint64_t> javaInsts, tclInsts;
    for (int i = 0; i < kRequests; ++i) {
        EvalResponse jr = conn.eval(microRequest(Lang::Java, kIters));
        ASSERT_EQ(jr.status, Status::Ok) << jr.result;
        EXPECT_EQ(jr.commands, java.commands) << "request " << i;
        EXPECT_EQ(jr.result, java.stdoutText) << "request " << i;
        javaInsts.push_back(jr.instructions);

        EvalResponse tr = conn.eval(microRequest(Lang::Tcl, kIters));
        ASSERT_EQ(tr.status, Status::Ok) << tr.result;
        EXPECT_EQ(tr.commands, tcl.commands) << "request " << i;
        EXPECT_EQ(tr.result, tcl.stdoutText) << "request " << i;
        tclInsts.push_back(tr.instructions);
    }

    // The cold run is the baseline; the fully-promoted run must be
    // spending measurably fewer native instructions per request.
    EXPECT_EQ(javaInsts.front(), java.profile.instructions());
    EXPECT_EQ(tclInsts.front(), tcl.profile.instructions());
    EXPECT_LT(javaInsts.back(), javaInsts.front());
    EXPECT_LT(tclInsts.back(), tclInsts.front());

    // STATS carries the promotion ledger, attributed to the baseline
    // request mode.
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_remedy", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tiered_runs", v));
    EXPECT_EQ(v, (uint64_t)kRequests - 1);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_remedy", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tiered_runs", v));
    EXPECT_EQ(v, (uint64_t)kRequests - 1);
    // Daemon-total rollup includes the tier counters.
    ASSERT_TRUE(statsJsonUint(json, "tier_up_remedy", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(json, "tier_up_tier2", v));
    EXPECT_EQ(v, 2u);
}

TEST(ServerEndToEnd, TierPromotionSafeUnderConcurrency)
{
    // The shared-mutable-program regression: many workers running —
    // and promoting — the same catalog program at once. Every
    // response must stay byte-identical to the batch harness, and
    // each promotion threshold must fire exactly once no matter how
    // many requests race across it.
    const uint32_t kIters = 300;
    harness::Measurement java =
        batchMeasure(Lang::Java, "a=b+c", (int)kIters);

    ServerConfig cfg;
    cfg.workers = 4;
    cfg.maxQueue = 256;
    cfg.tier.enabled = true;
    cfg.tier.remedyAfter = 3;
    cfg.tier.tier2After = 6;
    cfg.tier.commandsPerPoint = 1'000'000'000;
    cfg.tier.decayEvery = 1'000'000;
    TestServer ts(cfg);

    LoadgenOptions opt;
    opt.unixPath = ts.path();
    opt.clients = 4;
    opt.requestsPerClient = 8;
    opt.mix.push_back(microRequest(Lang::Java, kIters));
    opt.onResponse = [&java](const EvalRequest &,
                             const EvalResponse &resp) {
        ASSERT_EQ(resp.status, Status::Ok) << resp.result;
        EXPECT_EQ(resp.commands, java.commands);
        EXPECT_EQ(resp.result, java.stdoutText);
    };
    LoadgenReport report = runLoadgen(opt);
    EXPECT_EQ(report.all.sent, 32u);
    EXPECT_EQ(report.all.ok, 32u);

    Client conn = Client::connectUnix(ts.path());
    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_remedy", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Java.tiered_runs", v));
    EXPECT_GE(v, 2u);
}

TEST(ServerEndToEnd, JitPromotionClimbsToTierThreeAndPreservesIdentity)
{
    // The tier-3 rung over the wire: a hot catalog program must climb
    // baseline -> remedy -> tier-2 -> jit without the client seeing
    // anything but identical answers and a falling instruction bill.
    // Mipsi exercises the aside-build: the first tier-3 request
    // compiles and publishes the stencil program, later ones load it
    // from the catalog slot. Tcl has no template backend and stops at
    // tier 2.
    const uint32_t kIters = 300;
    harness::Measurement mipsi =
        batchMeasure(Lang::Mipsi, "a=b+c", (int)kIters);
    harness::Measurement tcl =
        batchMeasure(Lang::Tcl, "a=b+c", (int)kIters);

    ServerConfig cfg;
    cfg.workers = 1; // sequential requests -> deterministic ladder
    cfg.tier.enabled = true;
    cfg.tier.remedyAfter = 2;
    cfg.tier.tier2After = 4;
    cfg.tier.jitAfter = 6;
    cfg.tier.commandsPerPoint = 1'000'000'000;
    cfg.tier.decayEvery = 1'000'000;
    TestServer ts(cfg);

    Client conn = Client::connectUnix(ts.path());
    const int kRequests = 9; // three requests past the jit threshold
    std::vector<uint64_t> mipsiInsts, tclInsts;
    for (int i = 0; i < kRequests; ++i) {
        EvalResponse mr = conn.eval(microRequest(Lang::Mipsi, kIters));
        ASSERT_EQ(mr.status, Status::Ok) << mr.result;
        EXPECT_EQ(mr.commands, mipsi.commands) << "request " << i;
        EXPECT_EQ(mr.result, mipsi.stdoutText) << "request " << i;
        mipsiInsts.push_back(mr.instructions);

        EvalResponse tr = conn.eval(microRequest(Lang::Tcl, kIters));
        ASSERT_EQ(tr.status, Status::Ok) << tr.result;
        EXPECT_EQ(tr.commands, tcl.commands) << "request " << i;
        EXPECT_EQ(tr.result, tcl.stdoutText) << "request " << i;
        tclInsts.push_back(tr.instructions);
    }

    EXPECT_EQ(mipsiInsts.front(), mipsi.profile.instructions());
    EXPECT_EQ(tclInsts.front(), tcl.profile.instructions());
    // Fully promoted beats both the cold run and the tier it came
    // from (the request right before the jit threshold).
    EXPECT_LT(mipsiInsts.back(), mipsiInsts.front());
    EXPECT_LT(tclInsts.back(), tclInsts.front());
    EXPECT_LT(mipsiInsts.back(), mipsiInsts[4]);
    EXPECT_EQ(tclInsts.back(), tclInsts[4]);
    // Mipsi's builder request compiles in-run; once the published
    // stencil program is loaded the compile charge disappears.
    EXPECT_LT(mipsiInsts.back(), mipsiInsts[5]);

    std::string json = conn.stats();
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "modes.MIPSI.tier_up_jit", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_jit", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "modes.Tcl.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "modes.MIPSI.tiered_runs", v));
    EXPECT_EQ(v, (uint64_t)kRequests - 1);
    // Daemon-total rollup carries the new counter.
    ASSERT_TRUE(statsJsonUint(json, "tier_up_jit", v));
    EXPECT_EQ(v, 1u);
}
