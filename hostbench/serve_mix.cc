/**
 * @file
 * serve-mix: interpd (--tierup, two workers) behind one interproxy,
 * each in its own process, driven closed-loop by server::runLoadgen
 * from this process with two clients per interpd worker, so a worker
 * finds the next request queued instead of waiting for it to cross
 * the client, the proxy and the event loop.
 *
 * The request stream is a seeded interleaving of interactive micro
 * requests (small iteration count) and batch registry programs in
 * Tcl, Perl, Java and MIPSI. A round is every client sending the whole
 * stream once. Every OK response is checked against a baseline-mode
 * run of the same program made in this process beforehand.
 *
 * Set-up is the time from spawning both daemons to the first OK
 * answer through the proxy. The traced run alternates plain rounds
 * with rounds bracketed by STATS and /proc samples of both daemons,
 * then sends the interactive stream through the proxy and straight to
 * interpd, one client per worker, to price the proxy hop.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "common.hh"
#include "server/client.hh"
#include "server/stats.hh"
#include "workloads/registry.hh"

namespace hostbench {

using namespace interp;
using harness::Lang;
using server::EvalRequest;
using server::EvalResponse;

namespace {

constexpr int kSetups = 15;
constexpr unsigned kWorkers = 2; // interpd's default
constexpr unsigned kClients = 2 * kWorkers;
constexpr int kWarmRounds = 2; // lets every entry climb the tier ladder
constexpr uint32_t kMicroIterations = 10;
constexpr int kMicroCopies = 4; // per (language, op) in one stream
constexpr double kTailQuantile = 0.99;
constexpr size_t kMinInteractive = 1000; // >= 10 samples beyond p99

const Lang kLangs[] = {Lang::Tcl, Lang::Perl, Lang::Java, Lang::Mipsi};
const char *const kMicroOps[] = {"a=b+c", "if", "null-proc",
                                 "string-concat", "string-split"};
const char *const kBatchPrograms[] = {"spin", "matmul", "rxmatch", "kanren"};

bool
isInteractive(const EvalRequest &req)
{
    return req.program.rfind("micro:", 0) == 0;
}

std::string
requestKey(const EvalRequest &req)
{
    return std::string(harness::langName(req.mode)) + "/" + req.program +
           "/" + std::to_string(req.iterations);
}

std::vector<EvalRequest>
buildStream(Rng &rng)
{
    std::vector<EvalRequest> stream;
    for (Lang lang : kLangs) {
        EvalRequest req;
        req.mode = lang;
        for (const char *op : kMicroOps)
            for (int i = 0; i < kMicroCopies; ++i) {
                req.program = std::string("micro:") + op;
                req.iterations = kMicroIterations;
                stream.push_back(req);
            }
        for (const char *name : kBatchPrograms)
            if (workloads::find(name)->supports(lang)) {
                req.program = name;
                req.iterations = 0;
                stream.push_back(req);
            }
    }
    rng.shuffle(stream);
    return stream;
}

harness::BenchSpec
referenceSpec(const EvalRequest &req)
{
    if (isInteractive(req))
        return harness::microBench(req.mode, req.program.substr(6),
                                   (int)req.iterations);
    return workloads::specFor(*workloads::find(req.program), req.mode);
}

// --- daemons ---------------------------------------------------------------

/** One child process, stopped (SIGTERM, then SIGKILL) and reaped on
 *  destruction. It also dies with this process (parent-death signal). */
class Daemon
{
  public:
    Daemon(const std::string &exe, const std::vector<std::string> &args,
           const std::string &log)
    {
        pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ < 0)
            fatal("hostbench: fork: %s", std::strerror(errno));
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
            std::vector<char *> argv;
            argv.push_back(const_cast<char *>(exe.c_str()));
            for (const std::string &a : args)
                argv.push_back(const_cast<char *>(a.c_str()));
            argv.push_back(nullptr);
            ::execv(exe.c_str(), argv.data());
            ::_exit(127);
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        for (int i = 0; i < 200; ++i) { // up to 2 s
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

/** CPU, context switches, faults and peak RSS of a daemon (/proc). */
struct ProcUsage
{
    double cpuSeconds = 0;
    uint64_t ctxSwitches = 0;
    uint64_t minorFaults = 0;
    double peakRssMb = 0;
};

ProcUsage
procUsage(pid_t pid)
{
    ProcUsage u;
    std::string dir = "/proc/" + std::to_string(pid);
    std::ifstream stat(dir + "/stat");
    std::string line;
    std::getline(stat, line);
    size_t close = line.rfind(')');
    if (close != std::string::npos) {
        // Fields after the command name start at field 3 (state).
        std::istringstream in(line.substr(close + 2));
        std::vector<std::string> f;
        for (std::string tok; in >> tok;)
            f.push_back(tok);
        if (f.size() > 12) {
            double tick = (double)::sysconf(_SC_CLK_TCK);
            // minflt is field 10, utime and stime fields 14 and 15.
            u.minorFaults = std::stoull(f[7]);
            u.cpuSeconds = (std::stod(f[11]) + std::stod(f[12])) / tick;
        }
    }
    u.peakRssMb = procStatusValue(dir + "/status", "VmHWM:") / 1024.0;
    if (DIR *tasks = ::opendir((dir + "/task").c_str())) {
        while (dirent *e = ::readdir(tasks)) {
            if (e->d_name[0] == '.')
                continue;
            std::string st = dir + "/task/" + e->d_name + "/status";
            u.ctxSwitches += procStatusValue(st, "voluntary_ctxt_switches:") +
                             procStatusValue(st, "nonvoluntary_ctxt_switches:");
        }
        ::closedir(tasks);
    }
    return u;
}

/** interpd + interproxy, up and answering. */
struct Cluster
{
    std::string shardSock, proxySock;
    std::unique_ptr<Daemon> interpd, proxy;
    double setupSeconds = 0;
};

std::unique_ptr<Cluster>
startCluster(const Options &opt)
{
    auto c = std::make_unique<Cluster>();
    c->shardSock = opt.workDir + "/s0.sock";
    c->proxySock = opt.workDir + "/px.sock";
    ::unlink(c->shardSock.c_str());
    ::unlink(c->proxySock.c_str());

    // The first answer is a batch program, so set-up includes its
    // catalog load (MiniC -> MIPS compile) as well as process start.
    EvalRequest probe;
    probe.mode = Lang::Mipsi;
    probe.program = "spin";

    auto t0 = Clock::now();
    c->interpd = std::make_unique<Daemon>(
        opt.binDir + "/interp/programs/interpd",
        std::vector<std::string>{"--socket", c->shardSock, "--tierup",
                                 "--workers", std::to_string(kWorkers),
                                 "--shard-id", "s0"},
        opt.workDir + "/interpd.log");
    // The proxy starts once interpd accepts connections, so its first
    // connect does not fail into a reconnect backoff.
    for (bool up = false; !up;) {
        up = contained([&] {
                 server::Client::connectUnix(c->shardSock);
             }).empty();
        if (!up && secondsSince(t0) > 30)
            fatal("hostbench: interpd did not come up within 30 s");
        if (!up)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    c->proxy = std::make_unique<Daemon>(
        opt.binDir + "/interp/programs/interproxy",
        std::vector<std::string>{"--socket", c->proxySock, "--shard",
                                 "unix:" + c->shardSock},
        opt.workDir + "/interproxy.log");
    for (;;) {
        bool ok = false;
        contained([&] {
            server::Client client = server::Client::connectUnix(c->proxySock);
            ok = client.eval(probe).status == server::Status::Ok;
        });
        if (ok)
            break;
        if (secondsSince(t0) > 30)
            fatal("hostbench: no OK answer through interproxy after 30 s");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    c->setupSeconds = secondsSince(t0);
    return c;
}

std::string
statsOf(const std::string &sock)
{
    return server::Client::connectUnix(sock).stats();
}

uint64_t
statsValue(const std::string &json, const std::string &path)
{
    uint64_t v = 0;
    if (!server::statsJsonUint(json, path, v))
        fatal("hostbench: STATS lacks %s", path.c_str());
    return v;
}

// --- rounds ------------------------------------------------------------------

/** What one loadgen pass observed, beyond LoadgenReport. */
struct Pass
{
    double wallS = 0;
    uint64_t sent = 0, ok = 0;
    uint64_t instructions = 0;
    std::vector<double> interactiveUs;
    /** Per OK response, in completion order. */
    std::vector<double> queueUs, interactiveServiceUs, batchServiceUs;
    std::vector<double> transportUs;
    std::map<Lang, std::vector<double>> batchServiceByLang;
};

Pass
runPass(const std::string &endpoint, const std::vector<EvalRequest> &stream,
        unsigned clients,
        const std::map<std::string, std::string> &reference, Outcome &outcome)
{
    Pass pass;
    std::vector<std::pair<double, double>> interactive_qs; // queue, service
    server::LoadgenOptions lo;
    lo.endpoints = {"unix:" + endpoint};
    lo.clients = clients;
    lo.requestsPerClient = (unsigned)stream.size();
    lo.mix = stream;
    lo.classOf = [](const EvalRequest &req) {
        return std::string(isInteractive(req) ? "interactive" : "batch");
    };
    // Runs under loadgen's tally lock, right after the latency of this
    // response joined its class list, so the i-th interactive OK here
    // is the i-th interactive latency sample.
    lo.onResponse = [&](const EvalRequest &req, const EvalResponse &resp) {
        std::string why;
        if (resp.status != server::Status::Ok) {
            why = std::string(server::statusName(resp.status)) + ": " +
                  resp.result.substr(0, 80);
        } else {
            auto it = reference.find(requestKey(req));
            if (it == reference.end() || it->second != resp.result)
                why = "stdout differs from the baseline run";
            pass.instructions += resp.instructions;
            pass.queueUs.push_back((double)resp.queueMicros);
            if (isInteractive(req)) {
                pass.interactiveServiceUs.push_back((double)resp.serviceMicros);
                interactive_qs.push_back(
                    {(double)resp.queueMicros, (double)resp.serviceMicros});
            } else {
                pass.batchServiceUs.push_back((double)resp.serviceMicros);
                pass.batchServiceByLang[harness::baselineOf(req.mode)]
                    .push_back((double)resp.serviceMicros);
            }
        }
        outcome.note(requestKey(req), why);
    };

    auto t0 = Clock::now();
    server::LoadgenReport report = server::runLoadgen(lo);
    pass.wallS = secondsSince(t0);

    const server::LoadgenTotals &all = report.all;
    pass.sent = all.sent;
    pass.ok = all.ok;
    uint64_t expected = (uint64_t)clients * stream.size();
    if (all.sent != expected ||
        all.sent != all.ok + all.shed + all.deadline + all.error)
        outcome.wrong("loadgen tallies do not add up");
    for (const auto &[name, ep] : report.byEndpoint)
        if (ep.reconnects || ep.retriesSent || ep.abandoned)
            outcome.wrong("loadgen lost its connection to " + name);
    auto it = report.byClass.find("interactive");
    if (it != report.byClass.end()) {
        const std::vector<uint64_t> &lat = it->second.latencyUs;
        for (size_t i = 0; i < lat.size() && i < interactive_qs.size(); ++i) {
            pass.interactiveUs.push_back((double)lat[i]);
            pass.transportUs.push_back((double)lat[i] -
                                       interactive_qs[i].first -
                                       interactive_qs[i].second);
        }
    }
    return pass;
}

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

} // namespace

Result
runServeMix(const Options &opt)
{
    Result res;
    Outcome &outcome = res.outcome;
    Rng rng(opt.seed);
    std::vector<EvalRequest> stream = buildStream(rng);
    std::vector<EvalRequest> interactive_stream;
    for (const EvalRequest &req : stream)
        if (isInteractive(req))
            interactive_stream.push_back(req);

    // Reference outputs: every distinct request, baseline mode, run in
    // this process. The traced run routes them through runTraced(),
    // which gives the engine/Profile split of the mix's programs.
    std::map<std::string, std::string> reference;
    uint64_t ref_engine_ns = 0, ref_profile_ns = 0;
    uint64_t ref_insts = 0, ref_bundles = 0, ref_batches = 0,
             ref_commands = 0, ref_mm = 0;
    std::map<Lang, std::pair<uint64_t, uint64_t>> engine_by_lang;
    for (const EvalRequest &req : stream) {
        std::string key = requestKey(req);
        if (reference.count(key))
            continue;
        std::string why = contained([&] {
            harness::BenchSpec spec = referenceSpec(req);
            std::string out;
            bool finished = false;
            if (opt.trace) {
                TracedRun r = runTraced(spec, false, nullptr);
                out = r.stdoutText;
                finished = r.finished;
                ref_engine_ns += r.engineNs;
                ref_profile_ns += r.profileNs;
                ref_insts += r.insts;
                ref_bundles += r.bundles;
                ref_batches += r.batches;
                ref_commands += r.commandEvents;
                ref_mm += r.mmAccesses;
                auto &lang = engine_by_lang[req.mode];
                lang.first += r.engineNs;
                lang.second += r.insts;
            } else {
                harness::Measurement m = harness::run(spec, {}, nullptr, false);
                out = m.stdoutText;
                finished = m.finished;
            }
            if (!finished)
                fatal("command budget exhausted");
            reference[key] = out;
        });
        outcome.note("reference " + key, why);
    }

    std::vector<double> setup;
    std::unique_ptr<Cluster> cluster;
    for (int i = 0; i < kSetups; ++i) {
        cluster.reset(); // stop the previous pair first
        cluster = startCluster(opt);
        setup.push_back(cluster->setupSeconds);
    }
    progress("serve-mix: %zu requests per client per round, set-up %.4f s "
             "(median of %d)",
             stream.size(), median(setup), kSetups);

    std::string shard_before = statsOf(cluster->shardSock);
    std::string proxy_before = statsOf(cluster->proxySock);
    uint64_t sent_proxy = 0, ok_proxy = 0, sent_direct = 0, ok_direct = 0;

    for (int i = 0; i < kWarmRounds; ++i) {
        rng.shuffle(stream);
        Pass warm = runPass(cluster->proxySock, stream, kClients, reference,
                            outcome);
        sent_proxy += warm.sent;
        ok_proxy += warm.ok;
    }

    // Timed phase. The traced run alternates plain rounds with rounds
    // bracketed by /proc and STATS samples.
    std::vector<Pass> plain, traced;
    ProcUsage shard0 = procUsage(cluster->interpd->pid());
    SelfUsage u0 = SelfUsage::now();
    ProcUsage traced_shard, traced_proxy; // summed deltas
    auto phase = Clock::now();
    size_t interactive_seen = 0;
    for (;;) {
        rng.shuffle(stream);
        plain.push_back(
            runPass(cluster->proxySock, stream, kClients, reference, outcome));
        double next = plain.back().wallS;
        interactive_seen += plain.back().interactiveUs.size();
        progress("serve-mix: round %zu: %.3f s, %llu insts", plain.size(),
                 next, (unsigned long long)plain.back().instructions);
        if (opt.trace) {
            ProcUsage s0 = procUsage(cluster->interpd->pid());
            ProcUsage p0 = procUsage(cluster->proxy->pid());
            traced.push_back(
                runPass(cluster->proxySock, stream, kClients, reference,
                        outcome));
            ProcUsage s1 = procUsage(cluster->interpd->pid());
            ProcUsage p1 = procUsage(cluster->proxy->pid());
            traced_shard.cpuSeconds += s1.cpuSeconds - s0.cpuSeconds;
            traced_shard.ctxSwitches += s1.ctxSwitches - s0.ctxSwitches;
            traced_proxy.cpuSeconds += p1.cpuSeconds - p0.cpuSeconds;
            traced_proxy.ctxSwitches += p1.ctxSwitches - p0.ctxSwitches;
            next += traced.back().wallS;
        }
        if (secondsSince(phase) + next > opt.seconds &&
            (opt.trace || interactive_seen >= kMinInteractive))
            break;
    }
    SelfUsage u1 = SelfUsage::now();
    ProcUsage shard1 = procUsage(cluster->interpd->pid());
    for (const Pass &p : plain) {
        sent_proxy += p.sent;
        ok_proxy += p.ok;
    }
    for (const Pass &p : traced) {
        sent_proxy += p.sent;
        ok_proxy += p.ok;
    }

    // Proxy hop: the interactive stream through interproxy and straight
    // to interpd, alternating.
    std::vector<double> via_proxy, direct;
    if (opt.trace) {
        for (int i = 0; i < 2; ++i) {
            Pass p = runPass(cluster->proxySock, interactive_stream, kWorkers,
                             reference, outcome);
            Pass d = runPass(cluster->shardSock, interactive_stream, kWorkers,
                             reference, outcome);
            append(via_proxy, p.interactiveUs);
            append(direct, d.interactiveUs);
            sent_proxy += p.sent;
            ok_proxy += p.ok;
            sent_direct += d.sent;
            ok_direct += d.ok;
        }
    }

    // Reconcile the client's tallies with both daemons' STATS.
    std::string shard_after = statsOf(cluster->shardSock);
    std::string proxy_after = statsOf(cluster->proxySock);
    auto delta = [](const std::string &before, const std::string &after,
                    const std::string &path) {
        return statsValue(after, path) - statsValue(before, path);
    };
    if (delta(shard_before, shard_after, "accepted") !=
            sent_proxy + sent_direct ||
        delta(shard_before, shard_after, "served") != ok_proxy + ok_direct)
        outcome.wrong("interpd STATS do not match the client's tallies");
    if (delta(proxy_before, proxy_after, "proxy.accepted") != sent_proxy ||
        delta(proxy_before, proxy_after, "proxy.served") != ok_proxy)
        outcome.wrong("interproxy STATS do not match the client's tallies");

    double wall = 0;
    uint64_t ok = 0, instructions = 0;
    std::vector<double> interactive_us;
    for (const Pass &p : plain) {
        wall += p.wallS;
        ok += p.ok;
        instructions += p.instructions;
        append(interactive_us, p.interactiveUs);
    }
    std::vector<double> walls = roundWalls(plain);
    progress("serve-mix: %zu rounds, median %.3f s, %zu interactive samples",
             plain.size(), median(walls), interactive_us.size());
    res.add("p50_us", median(interactive_us), "us");
    res.add("tail_us", quantile(interactive_us, kTailQuantile), "us");

    if (!opt.trace) {
        res.add("setup_s", median(setup), "s");
        res.add("wall_s", median(walls), "s");
        res.add("ns_per_inst",
                (shard1.cpuSeconds - shard0.cpuSeconds) * 1e9 / instructions,
                "ns");
        res.add("peak_rss_mb", shard1.peakRssMb, "MB");
        return res;
    }

    Pass t;
    for (const Pass &p : traced) {
        t.sent += p.sent;
        append(t.queueUs, p.queueUs);
        append(t.interactiveServiceUs, p.interactiveServiceUs);
        append(t.batchServiceUs, p.batchServiceUs);
        append(t.transportUs, p.transportUs);
        for (const auto &[lang, v] : p.batchServiceByLang)
            append(t.batchServiceByLang[lang], v);
    }
    double insts = (double)ref_insts;
    res.add("engine.ns_per_inst", ref_engine_ns / insts, "ns");
    for (const auto &[lang, v] : engine_by_lang)
        res.add(std::string("engine.") + layerLang(lang) + ".ns_per_inst",
                (double)v.first / (double)v.second, "ns");
    res.add("profile.ns_per_inst", ref_profile_ns / insts, "ns");
    res.add("trace.bundles_per_batch", (double)ref_bundles / ref_batches,
            "bundles");
    res.add("trace.insts", insts, "count");
    res.add("trace.bundles", (double)ref_bundles, "count");
    res.add("trace.commands", (double)ref_commands, "count");
    res.add("trace.mm_accesses", (double)ref_mm, "count");
    res.add("req_per_s", (double)ok / wall, "1/s");
    res.add("server.queue_us", median(t.queueUs), "us");
    res.add("server.interactive.service_us", median(t.interactiveServiceUs),
            "us");
    res.add("server.batch.service_us", median(t.batchServiceUs), "us");
    for (const auto &[lang, v] : t.batchServiceByLang)
        res.add(std::string("server.") + layerLang(lang) + ".service_us",
                median(v), "us");
    res.add("transport.interactive_us", median(t.transportUs), "us");
    res.add("proxy.hop_us", median(via_proxy) - median(direct), "us");
    double reqs = (double)t.sent;
    res.add("server.cpu_us_per_req", traced_shard.cpuSeconds * 1e6 / reqs,
            "us");
    res.add("proxy.cpu_us_per_req", traced_proxy.cpuSeconds * 1e6 / reqs,
            "us");
    res.add("server.ctx_switches_per_req", traced_shard.ctxSwitches / reqs,
            "count");
    res.add("proxy.ctx_switches_per_req", traced_proxy.ctxSwitches / reqs,
            "count");
    uint64_t hits = statsValue(shard_after, "catalog.hits");
    uint64_t misses = statsValue(shard_after, "catalog.misses");
    res.add("catalog.hit_ratio", (double)hits / (double)(hits + misses),
            "ratio");
    res.add("tier.promotions",
            (double)(statsValue(shard_after, "tier_up_remedy") +
                     statsValue(shard_after, "tier_up_tier2") +
                     statsValue(shard_after, "tier_up_jit")),
            "count");
    res.add("tier.tiered_share",
            (double)statsValue(shard_after, "tiered_runs") /
                (double)statsValue(shard_after, "served"),
            "ratio");
    res.add("server.shed", (double)statsValue(shard_after, "shed"), "count");
    res.add("server.failed", (double)statsValue(shard_after, "failed"),
            "count");
    res.add("proxy.retries", (double)statsValue(proxy_after, "proxy.retries"),
            "count");
    res.add("proxy.rerouted",
            (double)statsValue(proxy_after, "proxy.rerouted"), "count");
    size_t rounds = plain.size() + traced.size();
    res.add("host.ctx_switches",
            (double)(u1.ctxSwitches - u0.ctxSwitches) / rounds, "count");
    res.add("host.minor_faults",
            (double)(u1.minorFaults - u0.minorFaults) / rounds, "count");
    res.add("trace.overhead_pct",
            (median(roundWalls(traced)) / median(walls) - 1) * 100, "%");
    return res;
}

} // namespace hostbench
