/**
 * @file
 * interproxy cluster tests: unit (ring, histogram merge, STATS
 * aggregation, hello hardening) and end-to-end against real shards.
 *
 * The end-to-end suite spawns in-process interpd shards plus an
 * interproxy router (cluster::LocalCluster) and pins the cluster
 * acceptance contract:
 *
 *   identity   an EVAL answered through the proxy carries exactly the
 *              payload a single interpd produces for the same spec
 *              (status, commands, instructions, stdout), across modes
 *              and with pipelined out-of-order replies;
 *   failover   killing a shard mid-run hangs nothing: in-flight
 *              requests fail over to the next ring candidate, new
 *              requests route around the corpse, STATS reports the
 *              DEGRADED shard, and a restarted shard is re-adopted;
 *   shedding   the client sees SHED only at aggregate cluster
 *              capacity (every alive shard refused), not on one
 *              unlucky shard;
 *   stats      the proxy's cluster document reconciles with client
 *              totals, and the merged shard histograms/catalog
 *              counters behave (each program warms exactly one
 *              shard's catalog);
 *   hardening  a peer that opens with garbage instead of the
 *              protocol hello gets one contained ERROR reply and a
 *              close — from the daemon and from the proxy alike —
 *              and truncated/oversized frames never wedge either.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.hh"
#include "cluster/spawn.hh"
#include "cluster/stats.hh"
#include "harness/runner.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "server/stats.hh"
#include "support/logging.hh"
#include "workloads/registry.hh"

using namespace interp;
using namespace interp::server;
using namespace interp::cluster;
using harness::Lang;

namespace {

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

/** Raw connected fd to a unix socket — no hello, no framing. */
int
rawConnect(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un sun{};
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd, (const sockaddr *)&sun, sizeof(sun)), 0)
        << path << ": " << std::strerror(errno);
    return fd;
}

/** Everything the peer sends until it closes (bounded read loop). */
std::string
readToEof(int fd)
{
    std::string in;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        in.append(buf, (size_t)n);
    }
    return in;
}

std::string
proxyStats(const std::string &path)
{
    Client conn = Client::connectUnix(path);
    return conn.stats();
}

/** Poll the proxy until shard @p name reports @p state (or timeout). */
bool
waitShardState(const std::string &proxy_path, const std::string &name,
               const std::string &state, int max_ms)
{
    for (int waited = 0; waited < max_ms; waited += 50) {
        std::string json = proxyStats(proxy_path);
        std::string needle =
            "\"" + name + "\":{\"state\":\"" + state + "\"";
        if (json.find(needle) != std::string::npos)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return false;
}

} // namespace

// --- ring unit tests -------------------------------------------------------

TEST(HashRing, DeterministicAndCovering)
{
    HashRing ring(4, 64);
    std::vector<uint64_t> hits(4, 0);
    for (int i = 0; i < 4000; ++i) {
        std::string key =
            routingKey((uint8_t)(i % 8), "prog" + std::to_string(i));
        int s = ring.shardFor(key);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 4);
        EXPECT_EQ(s, ring.shardFor(key)); // stable
        ++hits[(size_t)s];
    }
    // 64 vnodes spread keys roughly evenly; insist only that no
    // shard starves (each gets >= 5% of the keys).
    for (int s = 0; s < 4; ++s)
        EXPECT_GE(hits[(size_t)s], 200u) << "shard " << s;
}

TEST(HashRing, CandidatesAreEveryShardOnceHomeFirst)
{
    HashRing ring(5, 32);
    std::vector<int> cand;
    for (int i = 0; i < 200; ++i) {
        std::string key = routingKey(1, "p" + std::to_string(i));
        ring.candidatesFor(key, cand);
        ASSERT_EQ(cand.size(), 5u);
        EXPECT_EQ(cand[0], ring.shardFor(key));
        std::set<int> distinct(cand.begin(), cand.end());
        EXPECT_EQ(distinct.size(), 5u);
    }
}

TEST(HashRing, GrowthRemapsOnlyOntoTheNewShard)
{
    // The consistent-hashing contract: adding shard N leaves every
    // key either where it was or on the new shard — nothing shuffles
    // between the old shards.
    HashRing before(4, 64), after(5, 64);
    int moved = 0, total = 3000;
    for (int i = 0; i < total; ++i) {
        std::string key = routingKey((uint8_t)(i % 8),
                                     "prog" + std::to_string(i));
        int was = before.shardFor(key);
        int now = after.shardFor(key);
        if (now != was) {
            EXPECT_EQ(now, 4) << "key moved between old shards";
            ++moved;
        }
    }
    // Roughly 1/5 of keys should move; insist it is well under half
    // (modulo hashing would move ~4/5).
    EXPECT_GT(moved, 0);
    EXPECT_LT(moved, total / 2);
}

// --- histogram merge unit tests --------------------------------------------

TEST(HistogramMerge, MergeEqualsConcatenation)
{
    // mergeFrom is exact at bucket granularity: merging histograms
    // of two sample sets equals the histogram of the concatenation.
    std::vector<uint64_t> a, b;
    uint64_t v = 7;
    for (int i = 0; i < 300; ++i) {
        v = (v * 6364136223846793005ull + 1442695040888963407ull) %
            500000;
        (i % 2 ? a : b).push_back(v);
    }
    LatencyHistogram ha, hb, hall;
    for (uint64_t s : a) {
        ha.add(s);
        hall.add(s);
    }
    for (uint64_t s : b) {
        hb.add(s);
        hall.add(s);
    }
    ha.mergeFrom(hb);
    EXPECT_EQ(ha.count(), hall.count());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(ha.bucket(i), hall.bucket(i)) << "bucket " << i;
    for (double q : {0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(ha.quantile(q), hall.quantile(q)) << "q=" << q;
}

TEST(HistogramMerge, JsonRoundTripIsLosslessAndAccumulates)
{
    LatencyHistogram h;
    for (uint64_t s : {0ull, 1ull, 3ull, 900ull, 70000ull, 70001ull,
                       1ull << 25})
        h.add(s);

    std::string json = "{";
    appendHistogramJson(json, "lat_us", h);
    json += "}";

    LatencyHistogram back;
    ASSERT_TRUE(statsJsonHistogram(json, "lat_us", back));
    EXPECT_EQ(back.count(), h.count());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(back.bucket(i), h.bucket(i)) << "bucket " << i;

    // Parsing into a non-empty histogram accumulates (the cluster
    // aggregation path: parse each shard on top of the running sum).
    ASSERT_TRUE(statsJsonHistogram(json, "lat_us", back));
    EXPECT_EQ(back.count(), 2 * h.count());
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(back.bucket(i), 2 * h.bucket(i)) << "bucket " << i;
}

TEST(ClusterStatsMerge, SumsCountersAndFoldsHistograms)
{
    ServerStats s1, s2;
    s1.noteAccepted(Lang::Tcl);
    s1.noteServed(Lang::Tcl);
    s1.noteLatency(100, 1000);
    s2.noteAccepted(Lang::Mipsi);
    s2.noteAccepted(Lang::Mipsi);
    s2.noteShed(Lang::Mipsi);
    s2.noteServed(Lang::Mipsi);
    s2.noteLatency(200, 3000);

    CatalogCounters c1{5, 1, 1}, c2{7, 2, 2};
    std::vector<std::string> docs = {
        s1.renderJson(0, 2, c1, "s0"),
        s2.renderJson(1, 1, c2, "s1"),
        "not json at all", // a garbled shard reply is skipped
    };
    std::string merged = mergeShardStats(docs);

    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(merged, "shards_reporting", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(merged, "accepted", v));
    EXPECT_EQ(v, 3u);
    ASSERT_TRUE(statsJsonUint(merged, "served", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(merged, "shed", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(merged, "catalog.hits", v));
    EXPECT_EQ(v, 12u);
    ASSERT_TRUE(statsJsonUint(merged, "catalog.loads", v));
    EXPECT_EQ(v, 3u);
    // Two samples folded into every histogram.
    ASSERT_TRUE(statsJsonUint(merged, "histograms.queue_us.count", v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(statsJsonUint(merged, "histograms.total_us.count", v));
    EXPECT_EQ(v, 2u);
}

namespace {

/** Erase every `,"key":<digits>` occurrence from a stats document. */
std::string
stripUintKey(std::string json, const std::string &key)
{
    const std::string needle = ",\"" + key + "\":";
    for (size_t pos; (pos = json.find(needle)) != std::string::npos;) {
        size_t end = pos + needle.size();
        while (end < json.size() && json[end] >= '0' &&
               json[end] <= '9')
            ++end;
        json.erase(pos, end - pos);
    }
    return json;
}

} // namespace

TEST(ClusterStatsMerge, JitCounterSumsAndToleratesPreJitShards)
{
    ServerStats s1, s2;
    s1.noteAccepted(Lang::Mipsi);
    s1.noteTierJit(Lang::Mipsi);
    s1.noteTierJit(Lang::Mipsi);
    s2.noteAccepted(Lang::Tcl);
    s2.noteTierJit(Lang::Mipsi);

    CatalogCounters c{0, 0, 0};
    // The third document mimics a shard running a pre-jit build: no
    // tier_up_jit key anywhere. The merge must count it as zero, not
    // drop the shard or fail the parse.
    std::vector<std::string> docs = {
        s1.renderJson(0, 1, c, "s0"),
        s2.renderJson(0, 1, c, "s1"),
        stripUintKey(s2.renderJson(0, 1, c, "s2"), "tier_up_jit"),
    };
    ASSERT_EQ(docs[2].find("tier_up_jit"), std::string::npos);

    std::string merged = mergeShardStats(docs);
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(merged, "shards_reporting", v));
    EXPECT_EQ(v, 3u);
    ASSERT_TRUE(statsJsonUint(merged, "tier_up_jit", v));
    EXPECT_EQ(v, 3u);
    // The stripped document still contributed its other counters.
    ASSERT_TRUE(statsJsonUint(merged, "accepted", v));
    EXPECT_EQ(v, 3u);
}

// --- hello hardening -------------------------------------------------------

TEST(ProtocolHello, IncrementalAcceptAndFirstByteReject)
{
    std::string hello;
    encodeHello(hello);
    ASSERT_EQ(hello.size(), kHelloBytes);

    // Byte at a time: Incomplete until the last, then Ok + consumed.
    std::string buf;
    for (size_t i = 0; i + 1 < hello.size(); ++i) {
        buf.push_back(hello[i]);
        EXPECT_EQ(takeHello(buf), HelloResult::Incomplete);
    }
    buf.push_back(hello.back());
    EXPECT_EQ(takeHello(buf), HelloResult::Ok);
    EXPECT_TRUE(buf.empty());

    // Garbage is rejected on the first wrong byte — one byte of an
    // HTTP request is enough, no need to wait for four.
    std::string garbage = "G";
    EXPECT_EQ(takeHello(garbage), HelloResult::Mismatch);

    // Right magic, wrong version.
    std::string wrong = {'I', 'P', 'D',
                         (char)(kProtocolVersion + 1)};
    EXPECT_EQ(takeHello(wrong), HelloResult::Mismatch);
}

namespace {

/** Open with garbage: expect one framed ERROR (id 0) then close. */
void
expectGarbageRejected(const std::string &path)
{
    int fd = rawConnect(path);
    const char garbage[] = "GET / HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL),
              (ssize_t)(sizeof(garbage) - 1));
    std::string in = readToEof(fd);
    ::close(fd);

    std::string payload;
    ASSERT_EQ(takeFrame(in, payload, kMaxResponseBytes),
              FrameResult::Frame)
        << "no framed reply before close";
    EvalResponse resp;
    ASSERT_TRUE(decodeResponse(payload, resp));
    EXPECT_EQ(resp.id, 0u);
    EXPECT_EQ(resp.status, Status::Error);
    EXPECT_NE(resp.result.find("protocol mismatch"),
              std::string::npos)
        << resp.result;
    EXPECT_TRUE(in.empty()) << "bytes after the ERROR reply";
}

/** Hello then a truncated frame then close: no reply, no wedge. */
void
expectTruncatedFrameContained(const std::string &path)
{
    int fd = rawConnect(path);
    std::string bytes;
    encodeHello(bytes);
    // Header claims 100 payload bytes; send 3 and hang up.
    bytes += std::string("\x64\x00\x00\x00", 4);
    bytes += "abc";
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              (ssize_t)bytes.size());
    ::shutdown(fd, SHUT_WR);
    EXPECT_TRUE(readToEof(fd).empty());
    ::close(fd);

    // An oversized length is a protocol error: closed, no reply.
    fd = rawConnect(path);
    bytes.clear();
    encodeHello(bytes);
    bytes += std::string("\xff\xff\xff\xff", 4);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              (ssize_t)bytes.size());
    EXPECT_TRUE(readToEof(fd).empty());
    ::close(fd);
}

} // namespace

TEST(ClusterEndToEnd, GarbageAndTruncationContainedByBothDaemons)
{
    ClusterConfig cc;
    cc.shardCount = 1;
    cc.workersPerShard = 1;
    LocalCluster cluster(cc);
    cluster.start();

    // The shard daemon rejects a bad greeting and survives runts...
    expectGarbageRejected(cluster.shardPath(0));
    expectTruncatedFrameContained(cluster.shardPath(0));
    // ...and the proxy front door behaves identically.
    expectGarbageRejected(cluster.proxyPath());
    expectTruncatedFrameContained(cluster.proxyPath());

    // Both still serve a well-behaved client end to end.
    Client conn = Client::connectUnix(cluster.proxyPath());
    EvalRequest req = microRequest(Lang::Tcl, 300);
    req.id = 9;
    EvalResponse resp = conn.eval(req);
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;
}

// --- end-to-end: identity through the cluster ------------------------------

TEST(ClusterEndToEnd, IdentityAcrossModesAndStatsReconcile)
{
    const uint32_t kIters = 300;
    const std::vector<Lang> modes = {Lang::Mipsi, Lang::Tcl,
                                     Lang::Java};

    std::map<Lang, harness::Measurement> expected;
    for (Lang mode : modes)
        expected.emplace(mode,
                         batchMeasure(mode, "a=b+c", (int)kIters));

    ClusterConfig cc;
    cc.shardCount = 3;
    cc.workersPerShard = 2;
    LocalCluster cluster(cc);
    cluster.start();

    // Every response routed through the proxy must carry exactly the
    // payload a lone interpd would have produced (same contract the
    // single-daemon identity test pins): the cluster must not perturb
    // the measurement.
    LoadgenOptions opt;
    opt.unixPath = cluster.proxyPath();
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
        EXPECT_EQ(resp.cycles, 0u);
    };
    LoadgenReport report = runLoadgen(opt);
    EXPECT_EQ(report.all.sent, 24u);
    EXPECT_EQ(report.all.ok, 24u);

    // The proxy's cluster STATS document reconciles with the client.
    std::string json = proxyStats(cluster.proxyPath());
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "proxy.accepted", v));
    EXPECT_EQ(v, report.all.sent);
    ASSERT_TRUE(statsJsonUint(json, "proxy.served", v));
    EXPECT_EQ(v, report.all.ok);
    ASSERT_TRUE(statsJsonUint(json, "proxy.forwarded", v));
    EXPECT_EQ(v, report.all.sent); // no retries in a healthy run
    ASSERT_TRUE(statsJsonUint(json, "proxy.shard_failures", v));
    EXPECT_EQ(v, 0u);
    ASSERT_TRUE(statsJsonUint(json, "proxy.shards_up", v));
    EXPECT_EQ(v, 3u);
    ASSERT_TRUE(statsJsonUint(json, "proxy.degraded", v));
    EXPECT_EQ(v, 0u);
    for (Lang mode : modes) {
        std::string path = std::string("modes.") +
                           harness::langName(mode) + ".served";
        ASSERT_TRUE(statsJsonUint(json, path, v)) << path;
        EXPECT_EQ(v, report.byMode.at(harness::langName(mode)).ok);
    }

    // Merged shard documents: every shard reported, counters sum to
    // the cluster totals, histograms folded across shards.
    ASSERT_TRUE(statsJsonUint(json, "merged.shards_reporting", v));
    EXPECT_EQ(v, 3u);
    ASSERT_TRUE(statsJsonUint(json, "merged.served", v));
    EXPECT_EQ(v, report.all.ok);
    ASSERT_TRUE(
        statsJsonUint(json, "merged.histograms.total_us.count", v));
    EXPECT_EQ(v, report.all.ok);

    // Warm-catalog replication: (mode, program) pins to one shard,
    // so each of the 3 routing keys is built exactly once in the
    // whole cluster and every other request hits warm.
    ASSERT_TRUE(statsJsonUint(json, "merged.catalog.loads", v));
    EXPECT_EQ(v, modes.size());
    ASSERT_TRUE(statsJsonUint(json, "merged.catalog.misses", v));
    EXPECT_EQ(v, modes.size());
    ASSERT_TRUE(statsJsonUint(json, "merged.catalog.hits", v));
    EXPECT_EQ(v, report.all.ok - modes.size());
}

TEST(ClusterEndToEnd, PipelinedRepliesDemuxOutOfOrder)
{
    ClusterConfig cc;
    cc.shardCount = 2;
    cc.workersPerShard = 2;
    LocalCluster cluster(cc);
    cluster.start();

    harness::Measurement heavy = batchMeasure(Lang::Tcl, "a=b+c", 20000);
    harness::Measurement light = batchMeasure(Lang::Mipsi, "a=b+c", 300);

    // One connection, 8 pipelined requests alternating a slow Tcl
    // run and a fast MIPSI run: the two route to (possibly) distinct
    // shards and complete out of submission order; the proxy must
    // hand every reply back under the client's id regardless.
    Client conn = Client::connectUnix(cluster.proxyPath());
    for (uint32_t i = 1; i <= 8; ++i) {
        EvalRequest req = (i % 2) ? microRequest(Lang::Tcl, 20000)
                                  : microRequest(Lang::Mipsi, 300);
        req.id = i;
        conn.sendEval(req);
    }
    std::map<uint32_t, EvalResponse> responses;
    for (int i = 0; i < 8; ++i) {
        EvalResponse resp = conn.recv();
        EXPECT_TRUE(responses.emplace(resp.id, resp).second)
            << "duplicate reply for id " << resp.id;
    }
    ASSERT_EQ(responses.size(), 8u);
    for (const auto &entry : responses) {
        const harness::Measurement &m =
            (entry.first % 2) ? heavy : light;
        ASSERT_EQ(entry.second.status, Status::Ok)
            << entry.second.result;
        EXPECT_EQ(entry.second.commands, m.commands);
        EXPECT_EQ(entry.second.result, m.stdoutText);
    }
}

// --- end-to-end: failover --------------------------------------------------

TEST(ClusterEndToEnd, ShardDeathFailsOverAndRecovers)
{
    ClusterConfig cc;
    cc.shardCount = 2;
    cc.workersPerShard = 2;
    cc.proxy.maxRetries = 2;
    cc.proxy.probeIntervalMs = 100;
    cc.proxy.probeMissLimit = 2;
    cc.proxy.connectBackoffMs = 50;
    LocalCluster cluster(cc);
    cluster.start();

    // Find the home shard of the request key so the kill provably
    // hits the hot path (the other shard would be a no-op kill).
    EvalRequest probe = microRequest(Lang::Tcl, 2000);
    HashRing ring(2, cc.proxy.vnodes);
    int home =
        ring.shardFor(routingKey((uint8_t)probe.mode, probe.program));

    std::atomic<bool> killed{false};
    LoadgenOptions opt;
    opt.unixPath = cluster.proxyPath();
    opt.clients = 4;
    opt.requestsPerClient = 12;
    opt.mix.push_back(probe);
    unsigned kill_after = 8; // responses before the kill
    std::atomic<unsigned> seen{0};
    std::thread killer;
    opt.onResponse = [&](const EvalRequest &, const EvalResponse &) {
        if (++seen == kill_after && !killed.exchange(true))
            killer = std::thread(
                [&cluster, home] { cluster.killShard((size_t)home); });
    };

    LoadgenReport report = runLoadgen(opt);
    if (killer.joinable())
        killer.join();

    // Nothing hangs and every request is answered exactly once; with
    // a 2-shard ring and retries, the shard death surfaces as
    // failover (OK via the surviving shard) — at worst a handful of
    // ERRORs for requests that exhausted retries mid-kill.
    EXPECT_EQ(report.all.sent, 48u);
    EXPECT_EQ(report.all.ok + report.all.shed + report.all.deadline +
                  report.all.error,
              report.all.sent);
    EXPECT_GE(report.all.ok, report.all.sent - 8);

    // The proxy accounted the death: shard down, DEGRADED visible.
    std::string name = "s" + std::to_string(home);
    ASSERT_TRUE(
        waitShardState(cluster.proxyPath(), name, "down", 3000));
    std::string json = proxyStats(cluster.proxyPath());
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "proxy.shard_failures", v));
    EXPECT_GE(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "proxy.degraded", v));
    EXPECT_GE(v, 1u);
    ASSERT_TRUE(
        statsJsonUint(json, "shards." + name + ".down_events", v));
    EXPECT_GE(v, 1u);

    // New traffic for the dead shard's key routes around the corpse.
    Client conn = Client::connectUnix(cluster.proxyPath());
    EvalRequest req = probe;
    req.id = 1000;
    EvalResponse resp = conn.eval(req);
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;
    json = proxyStats(cluster.proxyPath());
    ASSERT_TRUE(statsJsonUint(json, "proxy.rerouted", v));
    EXPECT_GE(v, 1u);

    // A restarted shard is re-adopted (reconnect + probes pass).
    cluster.restartShard((size_t)home);
    ASSERT_TRUE(waitShardState(cluster.proxyPath(), name, "up", 5000));
    req.id = 1001;
    resp = conn.eval(req);
    EXPECT_EQ(resp.status, Status::Ok) << resp.result;
    json = proxyStats(cluster.proxyPath());
    ASSERT_TRUE(
        statsJsonUint(json, "shards." + name + ".reconnects", v));
    EXPECT_GE(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "proxy.degraded", v));
    EXPECT_EQ(v, 0u);
}

// --- end-to-end: aggregate-capacity shedding -------------------------------

TEST(ClusterEndToEnd, ShedsOnlyAtAggregateCapacity)
{
    ClusterConfig cc;
    cc.shardCount = 1;
    cc.workersPerShard = 1;
    cc.maxQueuePerShard = 1;
    cc.maxBatchPerShard = 1;
    cc.proxy.maxRetries = 1;
    LocalCluster cluster(cc);
    cluster.start();

    // Pipeline a burst far beyond the single shard's queue: the
    // shard sheds, the proxy retries, finds no other candidate, and
    // only then answers SHED — tagged as a cluster-capacity refusal.
    const uint32_t kBurst = 12;
    Client conn = Client::connectUnix(cluster.proxyPath());
    for (uint32_t i = 1; i <= kBurst; ++i) {
        EvalRequest req = microRequest(Lang::Tcl, 20000);
        req.id = i;
        conn.sendEval(req);
    }
    std::map<uint32_t, EvalResponse> outcomes;
    for (uint32_t i = 0; i < kBurst; ++i) {
        EvalResponse resp = conn.recv();
        EXPECT_TRUE(outcomes.emplace(resp.id, resp).second)
            << "duplicate reply for id " << resp.id;
    }
    ASSERT_EQ(outcomes.size(), kBurst);

    uint64_t ok = 0, shed = 0;
    for (const auto &entry : outcomes) {
        ASSERT_TRUE(entry.second.status == Status::Ok ||
                    entry.second.status == Status::Shed)
            << "id " << entry.first << " -> "
            << statusName(entry.second.status);
        if (entry.second.status == Status::Shed) {
            ++shed;
            EXPECT_NE(
                entry.second.result.find("cluster at capacity"),
                std::string::npos)
                << entry.second.result;
        } else {
            ++ok;
        }
    }
    EXPECT_GE(ok, 1u);
    EXPECT_GE(shed, 1u);
    EXPECT_EQ(ok + shed, (uint64_t)kBurst);

    std::string json = proxyStats(cluster.proxyPath());
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "proxy.shed", v));
    EXPECT_EQ(v, shed);
    ASSERT_TRUE(statsJsonUint(json, "proxy.retries", v));
    EXPECT_GE(v, shed); // every client SHED burned a retry first
}

TEST(ClusterEndToEnd, MixedClassLoadSplitsOutcomesByClass)
{
    // The single-daemon mixed-class contract holds through the
    // proxy: an interactive:batch registry mix against an overloaded
    // cluster keeps deadline misses and sheds attributable per
    // traffic class, and the proxy's cluster document reconciles
    // with the per-class client ledger.
    ClusterConfig cc;
    cc.shardCount = 1;
    cc.workersPerShard = 1;
    cc.maxQueuePerShard = 1;
    cc.maxBatchPerShard = 1;
    cc.proxy.maxRetries = 1;
    LocalCluster cluster(cc);
    cluster.start();

    auto named = [](const char *name, uint32_t deadline) {
        EvalRequest req;
        req.mode = Lang::Mipsi;
        req.kind = ProgramKind::Named;
        req.program = name;
        req.deadlineMs = deadline;
        return req;
    };

    LoadgenOptions opt;
    opt.unixPath = cluster.proxyPath();
    opt.clients = 4;
    opt.requestsPerClient = 8;
    opt.openRatePerSec = 2000; // far beyond the one-shard capacity
    opt.mix.push_back(named("spin", 0)); // expired: DEADLINE at dequeue
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

    EXPECT_EQ(report.all.sent, 32u);
    EXPECT_EQ(inter.sent, 16u);
    EXPECT_EQ(batch.sent, 16u);
    for (const LoadgenTotals *t : {&inter, &batch})
        EXPECT_EQ(t->sent,
                  t->ok + t->shed + t->deadline + t->error);

    EXPECT_EQ(inter.ok, 0u);
    EXPECT_GE(inter.deadline, 1u);
    EXPECT_EQ(batch.deadline, 0u);
    EXPECT_EQ(inter.error, 0u);
    EXPECT_EQ(batch.error, 0u);
    EXPECT_GE(report.all.shed, 1u);
    EXPECT_GE(batch.ok, 1u);

    // Cluster accounting: every shed the client saw was a proxy
    // capacity refusal, every deadline the merged shard document
    // counted was an interactive request.
    std::string json = proxyStats(cluster.proxyPath());
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "proxy.shed", v));
    EXPECT_EQ(v, report.all.shed);
    ASSERT_TRUE(statsJsonUint(json, "merged.deadline", v));
    EXPECT_EQ(v, inter.deadline);
}

// --- end-to-end: loadgen endpoint accounting -------------------------------

TEST(ClusterEndToEnd, LoadgenCountsConnectFailuresPerEndpoint)
{
    ClusterConfig cc;
    cc.shardCount = 1;
    cc.workersPerShard = 1;
    LocalCluster cluster(cc);
    cluster.start();

    // Two endpoints: the live proxy and a socket nobody listens on.
    // Clients alternate; the dead endpoint's failures must land in
    // the per-endpoint transport tallies — not as SHED, which is a
    // server's answer, never the transport's.
    std::string dead = cluster.proxyPath() + ".nobody";
    LoadgenOptions opt;
    opt.endpoints = {cluster.proxyPath(), dead};
    opt.connectAttempts = 2;
    opt.clients = 2;
    opt.requestsPerClient = 3;
    opt.mix.push_back(microRequest(Lang::Tcl, 300));

    LoadgenReport report = runLoadgen(opt);

    EXPECT_EQ(report.all.sent, 3u); // only the live endpoint's client
    EXPECT_EQ(report.all.ok, 3u);
    EXPECT_EQ(report.all.shed, 0u);
    EXPECT_EQ(report.all.error, 0u);

    const EndpointTotals &live =
        report.byEndpoint.at(cluster.proxyPath());
    EXPECT_EQ(live.connects, 1u);
    EXPECT_EQ(live.connectFailures, 0u);
    EXPECT_EQ(live.sent, 3u);
    EXPECT_EQ(live.ok, 3u);

    const EndpointTotals &down = report.byEndpoint.at(dead);
    EXPECT_EQ(down.connects, 0u);
    EXPECT_EQ(down.connectFailures, 2u); // both attempts refused
    EXPECT_EQ(down.abandoned, 3u);       // its requests never ran
    EXPECT_EQ(down.sent, 0u);
}

// --- end-to-end: slow shard, late reply ------------------------------------

TEST(ClusterEndToEnd, LateReplyAfterTimeoutIsCountedOnceAndDropped)
{
    // A shard that answers *after* the proxy's forward timeout: the
    // client must see exactly one reply (the timeout ERROR), the late
    // frame must be dropped — not delivered, not double-decremented —
    // and the lateReplies gauges must record it.
    ClusterConfig cc;
    cc.shardCount = 1;
    cc.workersPerShard = 1;
    cc.proxy.forwardTimeoutMs = 60;
    cc.proxy.maxRetries = 0; // a retry would just time out again
    LocalCluster cluster(cc);
    cluster.start();

    Client conn = Client::connectUnix(cluster.proxyPath());
    EvalRequest slow = microRequest(Lang::Tcl, 60000);
    slow.id = 1;
    EvalResponse resp = conn.eval(slow);
    EXPECT_EQ(resp.status, Status::Error);
    EXPECT_NE(resp.result.find("timed out"), std::string::npos)
        << resp.result;

    // Wait for the shard to finish the run and its reply to reach
    // the proxy's late-reply branch.
    bool late_seen = false;
    for (int waited = 0; waited < 5000 && !late_seen; waited += 50) {
        std::string json = proxyStats(cluster.proxyPath());
        uint64_t v = 0;
        late_seen = statsJsonUint(json, "proxy.late_replies", v) &&
                    v >= 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(late_seen) << "late reply never counted";

    std::string json = proxyStats(cluster.proxyPath());
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "proxy.late_replies", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "shards.s0.late_replies", v));
    EXPECT_EQ(v, 1u);
    // The in-flight slot was released exactly once — the gauge is
    // back to zero, not underflowed.
    ASSERT_TRUE(statsJsonUint(json, "shards.s0.inflight", v));
    EXPECT_EQ(v, 0u);
    // Exactly one ERROR was delivered for the request.
    ASSERT_TRUE(statsJsonUint(json, "proxy.failed", v));
    EXPECT_EQ(v, 1u);

    // The connection and the shard both still serve normally.
    EvalRequest ok = microRequest(Lang::Tcl, 100);
    ok.id = 2;
    EvalResponse resp2 = conn.eval(ok);
    EXPECT_EQ(resp2.status, Status::Ok) << resp2.result;
}

// --- end-to-end: tier-up across the cluster --------------------------------

TEST(ClusterEndToEnd, TierCountersMergeAcrossShards)
{
    // Shards promote independently; the proxy's merged STATS document
    // must roll the per-shard tier ledgers up, and promotion must not
    // perturb the payload the cluster returns.
    const uint32_t kIters = 300;
    harness::Measurement tcl =
        batchMeasure(Lang::Tcl, "a=b+c", (int)kIters);

    ClusterConfig cc;
    cc.shardCount = 2;
    cc.workersPerShard = 1;
    cc.tierPerShard.enabled = true;
    cc.tierPerShard.remedyAfter = 2;
    cc.tierPerShard.tier2After = 4;
    cc.tierPerShard.commandsPerPoint = 1'000'000'000;
    cc.tierPerShard.decayEvery = 1'000'000;
    LocalCluster cluster(cc);
    cluster.start();

    // Consistent hashing pins the program to one home shard, so its
    // hotness accumulates there run after run.
    Client conn = Client::connectUnix(cluster.proxyPath());
    std::vector<uint64_t> insts;
    for (int i = 0; i < 6; ++i) {
        EvalResponse resp = conn.eval(microRequest(Lang::Tcl, kIters));
        ASSERT_EQ(resp.status, Status::Ok) << resp.result;
        EXPECT_EQ(resp.commands, tcl.commands) << "request " << i;
        EXPECT_EQ(resp.result, tcl.stdoutText) << "request " << i;
        insts.push_back(resp.instructions);
    }
    EXPECT_EQ(insts.front(), tcl.profile.instructions());
    EXPECT_LT(insts.back(), insts.front());

    std::string json = proxyStats(cluster.proxyPath());
    uint64_t v = 0;
    ASSERT_TRUE(statsJsonUint(json, "merged.tier_up_remedy", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "merged.tier_up_tier2", v));
    EXPECT_EQ(v, 1u);
    ASSERT_TRUE(statsJsonUint(json, "merged.tiered_runs", v));
    EXPECT_GE(v, 4u);
}

// --- end-to-end: teardown hygiene ------------------------------------------

TEST(ClusterEndToEnd, TeardownSweepsTempSocketsEvenAfterShardKill)
{
    // The /tmp/interproxy-XXXXXX leak: a SIGKILL'd shard can never
    // unlink its own socket file, so teardown must sweep whatever is
    // left in the temp dir — orphaned sockets included — and remove
    // the dir itself, on every exit path.
    std::string dir;
    {
        ClusterConfig cc;
        cc.shardCount = 2;
        cc.workersPerShard = 1;
        LocalCluster cluster(cc);
        cluster.start();
        dir = cluster.tempDir();
        ASSERT_FALSE(dir.empty());
        struct stat st{};
        ASSERT_EQ(::stat(dir.c_str(), &st), 0) << dir;
        ASSERT_TRUE(S_ISDIR(st.st_mode));

        // Serve one request so every socket in the dir is live.
        Client conn = Client::connectUnix(cluster.proxyPath());
        EvalResponse resp = conn.eval(microRequest(Lang::Tcl, 50));
        EXPECT_EQ(resp.status, Status::Ok) << resp.result;

        // Hard-kill a shard: its socket file is now an orphan.
        cluster.killShard(0);
    }
    // Destructor teardown: no /tmp residue, dir and all.
    struct stat st{};
    errno = 0;
    EXPECT_NE(::stat(dir.c_str(), &st), 0)
        << dir << " left behind after teardown";
    EXPECT_EQ(errno, ENOENT);
}
