/**
 * @file
 * daemon-mixed: an in-process dnastored Server on loopback, driven by
 * max(1, nproc/2) client connections. Each client is a closed loop
 * that waits for every reply (the CLI's shape), so the clients and
 * the server's per-connection threads together use at most nproc
 * threads. The process is confined to `clients` CPUs before any of
 * those threads start, so each client/server ping-pong pair shares a
 * CPU: on a virtual machine a wakeup on an idle vCPU costs the host's
 * scheduling latency, which varied throughput 2x between runs and is
 * no property of the daemon's code.
 *
 * A client makes two kinds of step. The op is a read step: kHotGets
 * gets of preloaded objects from the shared read tenants (served from
 * their snapshots), one list and one health request. A write step
 * puts a new object into the client's own put tenant and gets it back
 * (the first get after a put rebuilds the tenant's snapshot: encode,
 * synthesize, decode). Every get is byte-compared against what was
 * put. op_p50_ms, op_tail_ms and ops_per_s describe read steps only,
 * so their figures do not depend on how many write steps a run
 * makes; the time clients spend in write steps lowers ops_per_s.
 *
 * The working set is stationary. Each client makes kWritesPerSecond
 * write steps per second of run, spread evenly in time, so the data a
 * run stores (and the memory holding it) does not grow with the
 * daemon's speed. Every tenant holds kTenantObjects objects; a put
 * tenant that is full is replaced by a fresh one, so no unit outgrows
 * the tinyTest geometry it starts in and a rebuild costs the same at
 * any run length. Each client reconnects kReconnects times per run,
 * evenly spread in time, to keep connection set-up in the measured
 * path. The server leaks one thread and one fd per closed connection
 * and wedges near the default 1,024-fd limit, so the cap keeps a
 * run's connections (clients x (kReconnects + 1)) far below it.
 *
 * Only the tenant count has a source in the repo (the four tenants of
 * bench/daemon_throughput.cc). The other sizes and rates are
 * assumptions; perfbench/NOTES.md says what each is chosen to
 * exercise.
 */

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/api.hh"
#include "bench.hh"
#include "daemon/client.hh"
#include "daemon/protocol.hh"
#include "daemon/server.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace dnastore;

namespace {

constexpr size_t kReadTenants = 4;
constexpr size_t kTenantObjects = 48;
constexpr size_t kObjectBytes = 32;
constexpr size_t kWritesPerSecond = 60;
constexpr size_t kHotGets = 16;
constexpr size_t kReconnects = 8;
constexpr double kTail = 0.95;
constexpr int kSetups = 21;

std::vector<uint8_t>
objectBytes(uint64_t seed, uint64_t a, uint64_t b)
{
    Rng rng(mixSeed(mixSeed(seed, a), b));
    std::vector<uint8_t> data(kObjectBytes);
    for (uint8_t &x : data)
        x = uint8_t(rng.next());
    return data;
}

std::string
readTenant(size_t t)
{
    return "read" + std::to_string(t);
}

std::string
readObject(size_t o)
{
    char name[8];
    std::snprintf(name, sizeof name, "r%02zu", o);
    return name;
}

/** What one client measured. */
struct ClientLog
{
    explicit ClientLog(bool traced) : tracer(traced) {}

    Samples steps; //!< Untraced read steps: the op.
    // Per-request latencies feed only the traced run's per-layer
    // metrics; untraced runs skip them so the benchmark's own memory
    // does not grow with the daemon's speed and move peak_rss_mb.
    Samples puts, freshGets, gets;
    Samples connects;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::map<std::string, uint64_t> errors; //!< By StatusCode name.
    Tracer tracer;
    RunResult checks; //!< Mismatches only.
};

class Client
{
  public:
    Client(size_t id, uint64_t seed, uint16_t port)
        : id_(id), seed_(seed), port_(port), rng_(mixSeed(seed, 100 + id))
    {}

    bool
    connect(ClientLog &log)
    {
        conn_.close();
        const Clock::time_point t0 = Clock::now();
        const api::Status s = conn_.connect(port_);
        log.connects.add(msSince(t0));
        return note(s, log);
    }

    /**
     * One read step, the op; @p tr is null for untraced steps. With
     * @p reconnect the step first replaces its connection, inside the
     * op.
     */
    void
    readStep(ClientLog &log, Tracer *tr, bool reconnect)
    {
        Tracer off(false);
        Tracer &t = tr != nullptr ? *tr : off;
        ++log.attempted;
        const Clock::time_point t0 = Clock::now();
        bool ok = true;
        {
            auto op = t.span("op");
            if (reconnect) {
                auto span = t.span("daemon.reconnect");
                ok = connect(log);
            }
            ok = ok && readBody(log, t);
        }
        if (!ok) {
            ++log.failed;
            return;
        }
        if (tr == nullptr)
            log.steps.add(msSince(t0));
    }

    /** One write step: a put, then the fresh get that rebuilds. */
    void
    writeStep(ClientLog &log)
    {
        ++log.attempted;
        if (!writeBody(log))
            ++log.failed;
    }

  private:
    bool
    note(const api::Status &s, ClientLog &log)
    {
        if (s.ok())
            return true;
        ++log.errors[api::statusCodeName(s.code())];
        log.checks.problem(s.toString());
        return false;
    }

    bool
    writeBody(ClientLog &log)
    {
        const bool timed = log.tracer.enabled();
        if (puts_ == kTenantObjects) {
            ++generation_;
            puts_ = 0;
        }
        const std::string tenant =
            "c" + std::to_string(id_) + "g" + std::to_string(generation_);
        const std::string name = "p" + std::to_string(puts_);
        const std::vector<uint8_t> data =
            objectBytes(seed_, 1000 + id_, generation_ * 1000 + puts_);
        ++puts_;

        Clock::time_point t0 = Clock::now();
        if (!note(conn_.put(tenant, name, data), log))
            return false;
        if (timed)
            log.puts.add(msSince(t0));

        t0 = Clock::now();
        api::Result<std::vector<uint8_t>> fresh = conn_.get(tenant, name);
        if (!note(fresh.status(), log))
            return false;
        if (timed)
            log.freshGets.add(msSince(t0));
        if (*fresh != data)
            log.checks.mismatch("fresh get of " + tenant + "/" + name +
                                " differs from its put");
        return true;
    }

    bool
    readBody(ClientLog &log, Tracer &t)
    {
        const bool timed = log.tracer.enabled() && !t.enabled();
        Clock::time_point t0;
        std::vector<uint8_t> lastBody;
        std::string lastTenant, lastName;
        for (size_t g = 0; g < kHotGets; ++g) {
            const size_t rt = size_t(rng_.nextBelow(kReadTenants));
            const size_t ro = size_t(rng_.nextBelow(kTenantObjects));
            lastTenant = readTenant(rt);
            lastName = readObject(ro);
            t0 = Clock::now();
            api::Result<std::vector<uint8_t>> got = [&] {
                auto span = t.span("daemon.get");
                return conn_.get(lastTenant, lastName);
            }();
            if (!note(got.status(), log))
                return false;
            if (timed)
                log.gets.add(msSince(t0));
            if (*got != objectBytes(seed_, rt, ro))
                log.checks.mismatch("get of " + lastTenant + "/" + lastName +
                                    " differs from its put");
            lastBody = std::move(*got);
        }

        {
            api::Result<std::vector<api::ObjectInfo>> listed = [&] {
                auto span = t.span("daemon.list");
                return conn_.list(lastTenant);
            }();
            if (!note(listed.status(), log))
                return false;
            if (listed->size() != kTenantObjects)
                log.checks.mismatch("list of " + lastTenant +
                                    " has the wrong object count");
        }
        {
            api::Result<std::string> health = [&] {
                auto span = t.span("daemon.health");
                return conn_.health(lastTenant);
            }();
            if (!note(health.status(), log))
                return false;
            if (health->find("\"exact\": true") == std::string::npos)
                log.checks.mismatch("health of " + lastTenant +
                                    " is not exact");
        }

        if (t.enabled()) {
            {
                auto span = t.span("daemon.ping");
                if (!note(conn_.ping(), log))
                    return false;
            }
            // Codec cost on this step's own messages: the last get's
            // request out, its response back in.
            daemon::Request req;
            req.op = daemon::Op::Get;
            req.tenant = lastTenant;
            req.name = lastName;
            daemon::Response resp;
            resp.op = uint8_t(daemon::Op::Get);
            resp.body = lastBody;
            const std::vector<uint8_t> respPayload =
                daemon::encodeResponse(resp);
            daemon::Response decoded;
            std::string err;
            bool codecOk = false;
            {
                auto span = t.span("daemon.frame_codec");
                const std::vector<uint8_t> wire =
                    daemon::frame(daemon::encodeRequest(req));
                codecOk = !wire.empty() &&
                    daemon::decodeResponse(respPayload, &decoded, &err);
            }
            if (!codecOk || decoded.body != lastBody)
                log.checks.mismatch("frame codec round trip failed: " + err);
        }
        return true;
    }

    size_t id_;
    uint64_t seed_;
    uint16_t port_;
    Rng rng_;
    daemon::Client conn_;
    uint64_t generation_ = 0;
    size_t puts_ = 0;
};

/**
 * Confine this thread, and every thread it starts later, to the first
 * @p n CPUs it may run on. Returns how many CPUs the mask holds.
 */
size_t
confineToCpus(size_t n)
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return 0;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    size_t taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu)
        if (CPU_ISSET(cpu, &allowed)) {
            CPU_SET(cpu, &mask);
            ++taken;
        }
    return sched_setaffinity(0, sizeof mask, &mask) == 0 ? taken : 0;
}

/** Start a server and load and decode its read tenants. */
bool
startDaemon(const RunConfig &cfg, int index,
            std::unique_ptr<daemon::Server> &server, RunResult &out)
{
    const std::string root = cfg.workdir + "/daemon" + std::to_string(index);
    ::mkdir(root.c_str(), 0755);
    daemon::ServerOptions opt;
    opt.tenants.root = root;
    opt.tenants.threads = 1;
    server = std::make_unique<daemon::Server>(opt);
    api::Status s = server->start();
    if (!s.ok()) {
        out.problem("server start: " + s.toString());
        return false;
    }
    daemon::Client loader;
    s = loader.connect(server->port());
    for (size_t t = 0; s.ok() && t < kReadTenants; ++t) {
        for (size_t o = 0; s.ok() && o < kTenantObjects; ++o)
            s = loader.put(readTenant(t), readObject(o),
                           objectBytes(cfg.seed, t, o));
        // Build the read and health snapshots once, at set-up.
        if (s.ok()) {
            api::Result<std::vector<uint8_t>> got =
                loader.get(readTenant(t), readObject(0));
            s = got.status();
            if (s.ok() && *got != objectBytes(cfg.seed, t, 0))
                out.mismatch("preloaded object differs from its put");
        }
        if (s.ok())
            s = loader.health(readTenant(t)).status();
    }
    if (!s.ok()) {
        out.problem("preload: " + s.toString());
        return false;
    }
    return true;
}

} // namespace

RunResult
runDaemon(const RunConfig &cfg)
{
    RunResult out;
    const size_t clients = std::max<size_t>(1, cfg.nproc / 2);
    const size_t cpus = confineToCpus(clients);

    // Set-up: server, preloaded read tenants, connected clients, and
    // one warm-up step each. Repeated; the median is setup_s.
    std::vector<double> setups;
    std::unique_ptr<daemon::Server> server;
    std::vector<std::unique_ptr<Client>> conns;
    for (int i = 0; i < kSetups; ++i) {
        conns.clear();
        server.reset();
        const Clock::time_point t0 = Clock::now();
        if (!startDaemon(cfg, i, server, out)) {
            ++out.failed;
            return out;
        }
        ClientLog warm(false);
        for (size_t c = 0; c < clients; ++c) {
            conns.push_back(std::make_unique<Client>(
                c, cfg.seed, server->port()));
            conns.back()->readStep(warm, nullptr, /*reconnect=*/true);
            conns.back()->writeStep(warm);
        }
        if (warm.failed > 0 || !warm.checks.firstProblem.empty()) {
            out.correct = warm.checks.correct;
            out.problem(warm.checks.firstProblem);
            ++out.failed;
            return out;
        }
        setups.push_back(msSince(t0) / 1000.0);
    }

    std::vector<std::unique_ptr<ClientLog>> logs;
    for (size_t c = 0; c < clients; ++c)
        logs.push_back(std::make_unique<ClientLog>(cfg.trace));
    const double runMs = cfg.seconds * 1000.0;
    const double untracedMs = cfg.trace ? runMs / 2 : runMs;
    std::atomic<size_t> connectionsOpened{ 0 };
    std::vector<double> untracedEndMs(clients, 0.0);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            Client &client = *conns[c];
            ClientLog &log = *logs[c];
            size_t reconnects = 0, writes = 0;
            const double budget =
                std::floor(double(kWritesPerSecond) * cfg.seconds);
            for (;;) {
                const double now = msSince(start);
                if (now >= runMs)
                    break;
                if (double(writes) < budget &&
                    now >= runMs * double(writes) / budget) {
                    ++writes;
                    client.writeStep(log);
                    continue;
                }
                const bool reconnect = reconnects < kReconnects &&
                    now >= runMs * double(reconnects + 1) /
                        double(kReconnects + 1);
                reconnects += reconnect;
                const bool traced = now >= untracedMs;
                client.readStep(log, traced ? &log.tracer : nullptr,
                                reconnect);
                if (!traced)
                    untracedEndMs[c] = msSince(start);
            }
            connectionsOpened += reconnects;
        });
    for (std::thread &t : threads)
        t.join();
    const size_t threadsAtEnd = threadsLive();
    const size_t fdsAtEnd = fdsOpen();

    ClientLog all(true);
    const double untracedS =
        *std::max_element(untracedEndMs.begin(), untracedEndMs.end()) /
        1000.0;
    for (auto &log : logs) {
        all.steps.append(log->steps);
        all.puts.append(log->puts);
        all.freshGets.append(log->freshGets);
        all.gets.append(log->gets);
        all.connects.append(log->connects);
        out.attempted += log->attempted;
        out.failed += log->failed;
        for (const auto &kv : log->errors)
            all.errors[kv.first] += kv.second;
        if (!log->checks.correct)
            out.correct = false;
        if (!log->checks.firstProblem.empty())
            out.problem(log->checks.firstProblem);
        all.tracer.merge(log->tracer);
    }
    conns.clear();
    server.reset();

    out.settings = {
        { "clients", std::to_string(clients) },
        { "server_connection_threads", std::to_string(clients) },
        { "cpus", std::to_string(cpus) },
        { "reconnect_cap", std::to_string(kReconnects) },
        { "read_tenants", std::to_string(kReadTenants) },
        { "tenant_objects", std::to_string(kTenantObjects) },
        { "object_bytes", std::to_string(kObjectBytes) },
        { "write_steps_per_second", std::to_string(kWritesPerSecond) },
        { "hot_gets_per_step", std::to_string(kHotGets) },
        { "tail_percentile", "95" },
        { "ops_beyond_tail", std::to_string(all.steps.beyond(kTail)) },
    };
    out.endToEnd = {
        { "op_p50_ms", all.steps.median(), "ms" },
        { "op_tail_ms", all.steps.percentile(kTail), "ms" },
        { "ops_per_s", double(all.steps.size()) / untracedS, "1/s" },
        { "peak_rss_mb", peakRssMb(), "MiB" },
        { "setup_s", medianSeconds(setups), "s" },
    };
    if (!cfg.trace)
        return out;

    if (!cfg.spansPath.empty() && !all.tracer.writeSpans(cfg.spansPath))
        out.problem("cannot write spans to " + cfg.spansPath);
    std::map<std::string, double> extra = {
        { "daemon.get_p50_ms", all.gets.median() },
        { "daemon.get_tail_ms", all.gets.percentile(kTail) },
        { "daemon.put_p50_ms", all.puts.median() },
        { "daemon.put_tail_ms", all.puts.percentile(kTail) },
        { "daemon.fresh_get_p50_ms", all.freshGets.median() },
        { "daemon.rebuild_ms", all.freshGets.median() - all.gets.median() },
        { "daemon.connect_ms", all.connects.mean() },
        { "daemon.connections_opened", double(connectionsOpened.load()) },
        { "daemon.threads_live", double(threadsAtEnd) },
        { "daemon.fds_open", double(fdsAtEnd) },
    };
    for (const auto &kv : all.errors)
        extra["daemon.errors." + kv.first] = double(kv.second);
    fillLedger(all.tracer, all.steps, extra, out);
    return out;
}

} // namespace perfbench
