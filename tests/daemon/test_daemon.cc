/**
 * dnastored end to end: an in-process Server on an ephemeral port,
 * hammered by concurrent Clients. The contracts under test:
 *
 *  - byte identity: a tenant's get/health/trial responses equal a
 *    direct api::Store configured exactly as the daemon configures
 *    tenant stores (same options, seed, and put order);
 *  - the Status taxonomy crosses the wire unchanged, quota
 *    CAPACITY_EXCEEDED included;
 *  - corruption containment: malformed payloads fail one request,
 *    framing failures close one connection, and an every-byte
 *    corruption sweep never crashes or wedges the server;
 *  - bounded connections: thousands of short-lived clients leave
 *    the server's thread and fd counts where they started;
 *  - drain durability: drain() persists every dirty tenant pool as a
 *    loadable .dnapool, and (subprocess test) SIGTERM mid-load exits
 *    0 with every acked put durable.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <malloc.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"
#include "daemon/client.hh"
#include "daemon/protocol.hh"
#include "daemon/server.hh"

using namespace dnastore;
using namespace dnastore::daemon;

namespace {

/** Fresh per-test directory under gtest's temp root. */
std::string
freshRoot(const std::string &name)
{
    std::string dir = testing::TempDir() + "daemon_" + name;
    std::string cleanup = "rm -rf '" + dir + "'";
    if (std::system(cleanup.c_str()) != 0)
        ADD_FAILURE() << "cleanup failed for " << dir;
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    return dir;
}

std::vector<uint8_t>
patternBytes(size_t n, uint8_t base)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = uint8_t(base + i * 31);
    return data;
}

/** A direct Store configured exactly as Tenant::open configures
 * fresh tenant stores — the byte-identity reference. */
api::Store
directStoreFor(const TenantConfig &config)
{
    api::Result<api::Store> store = api::Store::open(
        api::StoreOptions()
            .autoGeometry(true)
            .threads(config.threads)
            .packedReadPools(config.packedReadPools)
            .unitSeed(config.unitSeed),
        api::ChannelOptions()
            .errorRate(config.errorRate)
            .coverage(config.coverage));
    EXPECT_TRUE(store.ok()) << store.status().toString();
    return std::move(*store);
}

TenantConfig
tenantConfig(const std::string &root)
{
    TenantConfig config;
    config.root = root;
    return config;
}

/** Entries in a /proc directory (threads or open fds). */
size_t
countEntries(const char *dir)
{
    DIR *d = ::opendir(dir);
    if (d == nullptr) {
        ADD_FAILURE() << "cannot open " << dir;
        return 0;
    }
    size_t n = 0;
    while (const struct dirent *entry = ::readdir(d))
        if (entry->d_name[0] != '.')
            ++n;
    ::closedir(d);
    return n;
}

/** This process's virtual size in KiB (VmSize, /proc/self/status). */
size_t
vmSizeKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 7, "VmSize:") == 0)
            return size_t(std::strtoull(line.c_str() + 7, nullptr, 10));
    ADD_FAILURE() << "no VmSize in /proc/self/status";
    return 0;
}

} // namespace

// ------------------------------------------------- concurrency + identity

TEST(DaemonE2E, ConcurrentClientsMatchDirectStore)
{
    const std::string root = freshRoot("concurrent");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    const uint16_t port = server.port();
    ASSERT_NE(port, 0);

    constexpr int kClients = 8;
    constexpr int kObjects = 3;
    std::atomic<int> failures{ 0 };
    std::vector<std::string> healthJson(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            Client client;
            if (!client.connect(port).ok()) {
                ++failures;
                return;
            }
            const std::string tenant = "tenant" + std::to_string(c);
            for (int o = 0; o < kObjects; ++o) {
                const std::string name =
                    "obj" + std::to_string(o) + ".bin";
                const std::vector<uint8_t> payload =
                    patternBytes(200 + size_t(o) * 37,
                                 uint8_t(c * 16 + o));
                if (!client.put(tenant, name, payload).ok()) {
                    ++failures;
                    return;
                }
                // Interleave a read so snapshots rebuild mid-stream.
                api::Result<std::vector<uint8_t>> got =
                    client.get(tenant, name);
                if (!got.ok() || *got != payload) {
                    ++failures;
                    return;
                }
            }
            api::Result<std::string> health = client.health(tenant);
            if (!health.ok()) {
                ++failures;
                return;
            }
            healthJson[size_t(c)] = *health;
            api::Result<std::vector<api::ObjectInfo>> listing =
                client.list(tenant);
            if (!listing.ok() ||
                listing->size() != size_t(kObjects))
                ++failures;
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    // Every tenant's responses must be byte-identical to a direct
    // Store fed the same objects in the same order.
    for (int c = 0; c < kClients; ++c) {
        api::Store direct = directStoreFor(options.tenants);
        for (int o = 0; o < kObjects; ++o) {
            const std::string name =
                "obj" + std::to_string(o) + ".bin";
            ASSERT_TRUE(
                direct
                    .put(name, patternBytes(200 + size_t(o) * 37,
                                            uint8_t(c * 16 + o)))
                    .ok());
        }
        Client client;
        ASSERT_TRUE(client.connect(port).ok());
        const std::string tenant = "tenant" + std::to_string(c);
        for (int o = 0; o < kObjects; ++o) {
            const std::string name =
                "obj" + std::to_string(o) + ".bin";
            api::Result<std::vector<uint8_t>> remote =
                client.get(tenant, name);
            api::Result<std::vector<uint8_t>> local =
                direct.get(name);
            ASSERT_TRUE(remote.ok()) << remote.status().toString();
            ASSERT_TRUE(local.ok()) << local.status().toString();
            EXPECT_EQ(*remote, *local) << tenant << "/" << name;
        }
        api::Result<api::HealthReport> health = direct.health();
        ASSERT_TRUE(health.ok());
        EXPECT_EQ(healthJson[size_t(c)], health->toJson())
            << "health JSON diverged for " << tenant;
    }
    EXPECT_TRUE(server.drain().ok());
}

TEST(DaemonE2E, TrialSeriesMatchesDirectSubmit)
{
    const std::string root = freshRoot("trial");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    const std::vector<uint8_t> payload = patternBytes(400, 3);
    ASSERT_TRUE(client.put("alice", "a.bin", payload).ok());
    constexpr uint32_t kTrials = 12;
    constexpr uint64_t kSeed = 777;
    api::Result<std::vector<uint8_t>> remote =
        client.trial("alice", kTrials, kSeed);
    ASSERT_TRUE(remote.ok()) << remote.status().toString();
    ASSERT_EQ(remote->size(), size_t(kTrials));

    api::Store direct = directStoreFor(options.tenants);
    ASSERT_TRUE(direct.put("a.bin", payload).ok());
    api::TrialJob job;
    job.trialSeeds = drawTrialSeeds(kSeed, kTrials);
    job.threads = options.tenants.threads;
    api::Result<api::TrialSeries> series =
        direct.submit(job).get();
    ASSERT_TRUE(series.ok()) << series.status().toString();
    ASSERT_EQ(series->trials.size(), size_t(kTrials));
    for (uint32_t i = 0; i < kTrials; ++i)
        EXPECT_EQ((*remote)[i] != 0, series->trials[i].success)
            << "trial " << i;
}

// ----------------------------------------------------------- wire statuses

TEST(DaemonE2E, QuotaExceededCrossesTheWire)
{
    const std::string root = freshRoot("quota");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    options.tenants.quotaBytes = 1000;
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    ASSERT_TRUE(
        client.put("alice", "a.bin", patternBytes(600, 1)).ok());
    api::Status status =
        client.put("alice", "b.bin", patternBytes(600, 2));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), api::StatusCode::CapacityExceeded);
    EXPECT_NE(status.message().find("quota exceeded"),
              std::string::npos)
        << status.message();
    // The rejected put left no trace; a fitting one still lands.
    api::Result<std::vector<api::ObjectInfo>> listing =
        client.list("alice");
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing->size(), 1u);
    EXPECT_TRUE(
        client.put("alice", "c.bin", patternBytes(100, 3)).ok());
}

TEST(DaemonE2E, NotFoundStatusesMatchTheFacade)
{
    const std::string root = freshRoot("notfound");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    ASSERT_TRUE(
        client.put("alice", "a.bin", patternBytes(100, 1)).ok());

    api::Result<std::vector<uint8_t>> missing =
        client.get("alice", "nope.bin");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), api::StatusCode::NotFound);
    EXPECT_EQ(missing.status().message(),
              "no object named 'nope.bin'");

    // Read ops must not conjure tenants into existence.
    api::Result<std::vector<api::ObjectInfo>> ghost =
        client.list("bob");
    ASSERT_FALSE(ghost.ok());
    EXPECT_EQ(ghost.status().code(), api::StatusCode::NotFound);
    EXPECT_EQ(ghost.status().message(), "no tenant named 'bob'");
    std::ifstream ghost_pool(root + "/bob.dnapool");
    EXPECT_FALSE(bool(ghost_pool));
    EXPECT_TRUE(server.drain().ok());

    // The DATA_LOSS rungs too: a channel that defeats the decoder
    // must fail the same way, word for word, on the first (locked)
    // get and on the second, served from the published snapshot.
    const std::string lossy_root = freshRoot("notfound_lossy");
    ServerOptions lossy;
    lossy.tenants = tenantConfig(lossy_root);
    lossy.tenants.errorRate = 0.3;
    lossy.tenants.coverage = 1;
    Server lossy_server(lossy);
    ASSERT_TRUE(lossy_server.start().ok());
    Client lossy_client;
    ASSERT_TRUE(lossy_client.connect(lossy_server.port()).ok());
    const std::vector<uint8_t> payload = patternBytes(300, 5);
    ASSERT_TRUE(lossy_client.put("alice", "a.bin", payload).ok());
    api::Store direct = directStoreFor(lossy.tenants);
    ASSERT_TRUE(direct.put("a.bin", payload).ok());
    api::Result<std::vector<uint8_t>> local = direct.get("a.bin");
    ASSERT_FALSE(local.ok());
    EXPECT_EQ(local.status().code(), api::StatusCode::DataLoss);
    for (int attempt = 0; attempt < 2; ++attempt) {
        api::Result<std::vector<uint8_t>> remote =
            lossy_client.get("alice", "a.bin");
        ASSERT_FALSE(remote.ok()) << "attempt " << attempt;
        EXPECT_EQ(remote.status().code(), local.status().code());
        EXPECT_EQ(remote.status().message(), local.status().message());
    }
}

// ---------------------------------------------------- connection lifecycle

// Every connection's thread and socket must go away with its client:
// thousands of short-lived clients may not grow the daemon's thread
// or fd count.
TEST(DaemonE2E, ConnectionChurnLeavesNoThreadsOrFds)
{
    const std::string root = freshRoot("churn");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    // glibc gives a new thread that finds no idle malloc arena a
    // fresh one: a 64 MiB address-space reservation (up to 8 per
    // core), reused by later threads. That is bounded, but large
    // enough to hide a per-connection leak, so the measured cycles
    // share one arena.
    mallopt(M_ARENA_MAX, 1);
    const size_t threads_before = countEntries("/proc/self/task");
    const size_t fds_before = countEntries("/proc/self/fd");
    const size_t vm_before_kb = vmSizeKb();
    constexpr int kCycles = 2000;
    for (int i = 0; i < kCycles; ++i) {
        Client client;
        ASSERT_TRUE(client.connect(server.port()).ok()) << "cycle " << i;
        ASSERT_TRUE(client.ping().ok()) << "cycle " << i;
    }

    // The last few connections finish asynchronously; the acceptor
    // reaps them within a poll interval.
    constexpr size_t kSlack = 4;
    size_t threads_after = 0;
    size_t fds_after = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    do {
        threads_after = countEntries("/proc/self/task");
        fds_after = countEntries("/proc/self/fd");
        if (threads_after <= threads_before + kSlack &&
            fds_after <= fds_before + kSlack)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } while (std::chrono::steady_clock::now() < deadline);
    EXPECT_LE(threads_after, threads_before + kSlack);
    EXPECT_LE(fds_after, fds_before + kSlack);
    // Memory stays bounded too: a thread stack leaked per connection
    // would add 8 MiB of VmSize a cycle.
    constexpr size_t kVmGrowthBoundKb = size_t(64) << 10;
    const size_t vm_after_kb = vmSizeKb();
    EXPECT_LE(vm_after_kb, vm_before_kb + kVmGrowthBoundKb)
        << "VmSize " << vm_before_kb << " -> " << vm_after_kb << " KiB";
    EXPECT_TRUE(server.drain().ok());
}

// ----------------------------------------------------- corruption handling

TEST(DaemonE2E, MalformedRequestFailsOnlyThatRequest)
{
    const std::string root = freshRoot("malformed");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client client;
    ASSERT_TRUE(client.connect(server.port()).ok());
    // Well-framed, undecodable payload: unknown opcode.
    ASSERT_TRUE(client.sendRaw(frame({ 0x7E, 0x00, 0x00 })).ok());
    api::Result<Response> response = client.readResponse();
    ASSERT_TRUE(response.ok()) << response.status().toString();
    EXPECT_EQ(response->op, kOpProtocolError);
    EXPECT_EQ(response->status().code(),
              api::StatusCode::InvalidArgument);
    EXPECT_NE(response->message.find("malformed request"),
              std::string::npos);
    // Same connection still serves.
    EXPECT_TRUE(client.ping().ok());
}

TEST(DaemonE2E, CorruptFrameClosesOnlyThatConnection)
{
    const std::string root = freshRoot("corruptframe");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());

    Client victim;
    ASSERT_TRUE(victim.connect(server.port()).ok());
    Request ping;
    ping.op = Op::Ping;
    std::vector<uint8_t> wire = frame(encodeRequest(ping));
    wire.back() = uint8_t(wire.back() ^ 0xA5); // payload CRC mismatch
    ASSERT_TRUE(victim.sendRaw(wire).ok());
    api::Result<Response> response = victim.readResponse();
    ASSERT_TRUE(response.ok()) << response.status().toString();
    EXPECT_EQ(response->op, kOpProtocolError);
    EXPECT_EQ(response->status().code(), api::StatusCode::DataLoss);
    // The poisoned stream is closed: the next call fails...
    EXPECT_FALSE(victim.ping().ok());
    // ...while other connections are untouched.
    Client fresh;
    ASSERT_TRUE(fresh.connect(server.port()).ok());
    EXPECT_TRUE(fresh.ping().ok());
}

TEST(DaemonE2E, EveryByteCorruptionSweepNeverWedgesTheServer)
{
    const std::string root = freshRoot("sweep");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    Server server(options);
    ASSERT_TRUE(server.start().ok());
    const uint16_t port = server.port();

    Request ping;
    ping.op = Op::Ping;
    const std::vector<uint8_t> wire = frame(encodeRequest(ping));
    for (size_t i = 0; i < wire.size(); ++i) {
        std::vector<uint8_t> corrupt = wire;
        corrupt[i] = uint8_t(corrupt[i] ^ 0xFF);
        Client client;
        ASSERT_TRUE(client.connect(port).ok()) << "byte " << i;
        ASSERT_TRUE(client.sendRaw(corrupt).ok()) << "byte " << i;
        if (i >= 4 && i < 8) {
            // Length-field flips may leave the server legitimately
            // waiting for more bytes; just hang up.
            client.close();
            continue;
        }
        // Everything else is deterministically detected: magic and
        // CRC-field flips at the framing layer, payload flips by the
        // payload CRC — one clean protocol-error frame, then close.
        api::Result<Response> response = client.readResponse();
        ASSERT_TRUE(response.ok())
            << "byte " << i << ": " << response.status().toString();
        EXPECT_EQ(response->op, kOpProtocolError) << "byte " << i;
        EXPECT_FALSE(response->status().ok()) << "byte " << i;
    }
    // The server survived the sweep and still serves.
    Client client;
    ASSERT_TRUE(client.connect(port).ok());
    EXPECT_TRUE(client.ping().ok());
    EXPECT_TRUE(server.drain().ok());
}

// -------------------------------------------------------------- durability

TEST(DaemonE2E, DrainSavesDirtyPoolsAsLoadableFiles)
{
    const std::string root = freshRoot("drain");
    ServerOptions options;
    options.tenants = tenantConfig(root);
    const std::vector<uint8_t> payloadA = patternBytes(300, 5);
    const std::vector<uint8_t> payloadB = patternBytes(250, 6);
    {
        Server server(options);
        ASSERT_TRUE(server.start().ok());
        Client client;
        ASSERT_TRUE(client.connect(server.port()).ok());
        ASSERT_TRUE(client.put("alice", "a.bin", payloadA).ok());
        ASSERT_TRUE(client.put("bob", "b.bin", payloadB).ok());
        // A stalled half-frame must not wedge the drain.
        Client straggler;
        ASSERT_TRUE(straggler.connect(server.port()).ok());
        ASSERT_TRUE(straggler.sendRaw({ 0x44, 0x53 }).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    // Both pools reopen directly through the façade.
    for (const auto &expect :
         { std::make_pair(std::string("alice.dnapool"),
                          std::make_pair(std::string("a.bin"),
                                         payloadA)),
           std::make_pair(std::string("bob.dnapool"),
                          std::make_pair(std::string("b.bin"),
                                         payloadB)) }) {
        api::OpenOptions open_opt;
        open_opt.mode = api::OpenMode::ReadOnly;
        api::Result<api::Store> store = api::Store::openFile(
            root + "/" + expect.first,
            api::ChannelOptions()
                .errorRate(options.tenants.errorRate)
                .coverage(options.tenants.coverage),
            open_opt);
        ASSERT_TRUE(store.ok())
            << expect.first << ": " << store.status().toString();
        api::Result<std::vector<uint8_t>> got =
            store->get(expect.second.first);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_EQ(*got, expect.second.second);
    }
    // A new server over the same root serves the saved state.
    Server revived(options);
    ASSERT_TRUE(revived.start().ok());
    Client client;
    ASSERT_TRUE(client.connect(revived.port()).ok());
    api::Result<std::vector<uint8_t>> got =
        client.get("alice", "a.bin");
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(*got, payloadA);
}

// --------------------------------------------------- SIGTERM (subprocess)

#ifdef DNASTORE_CLI_PATH

TEST(DaemonCli, SigtermMidLoadDrainsCleanAndDurable)
{
    const std::string root = freshRoot("sigterm");
    const std::string portFile = root + "/port.txt";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::execl(DNASTORE_CLI_PATH, DNASTORE_CLI_PATH, "serve",
                "--root", root.c_str(), "--port-file",
                portFile.c_str(), static_cast<char *>(nullptr));
        _exit(127); // exec failed
    }

    // Wait for the daemon to publish its port.
    uint16_t port = 0;
    for (int i = 0; i < 300 && port == 0; ++i) {
        std::ifstream f(portFile);
        unsigned p = 0;
        if (f >> p && p != 0)
            port = uint16_t(p);
        else
            ::usleep(100 * 1000);
    }
    ASSERT_NE(port, 0) << "daemon never wrote " << portFile;

    // Hammer with concurrent clients while SIGTERM lands mid-load.
    // Puts acked before the connection dies MUST survive the drain.
    constexpr int kThreads = 4;
    std::vector<std::vector<std::string>> acked(kThreads);
    std::vector<std::thread> load;
    load.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        load.emplace_back([&, t] {
            Client client;
            if (!client.connect(port).ok())
                return;
            const std::string tenant = "load" + std::to_string(t);
            for (int o = 0; o < 20; ++o) {
                const std::string name =
                    "o" + std::to_string(o) + ".bin";
                api::Status status = client.put(
                    tenant, name,
                    patternBytes(120, uint8_t(t * 32 + o)));
                if (!status.ok())
                    return; // drain closed the door — expected
                acked[size_t(t)].push_back(name);
                if (o % 5 == 0)
                    client.health(tenant); // interleave reads
            }
        });
    }
    ::usleep(300 * 1000); // let the load land mid-flight
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    for (std::thread &t : load)
        t.join();

    int wait_status = 0;
    ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);
    ASSERT_TRUE(WIFEXITED(wait_status))
        << "daemon did not exit cleanly";
    EXPECT_EQ(WEXITSTATUS(wait_status), 0);

    // Every tenant that got an acked put reopens as a loadable pool
    // containing every acked object.
    for (int t = 0; t < kThreads; ++t) {
        if (acked[size_t(t)].empty())
            continue;
        const std::string pool =
            root + "/load" + std::to_string(t) + ".dnapool";
        api::OpenOptions open_opt;
        open_opt.mode = api::OpenMode::ReadOnly;
        TenantConfig defaults;
        api::Result<api::Store> store = api::Store::openFile(
            pool,
            api::ChannelOptions()
                .errorRate(defaults.errorRate)
                .coverage(defaults.coverage),
            open_opt);
        ASSERT_TRUE(store.ok())
            << pool << ": " << store.status().toString();
        for (size_t o = 0; o < acked[size_t(t)].size(); ++o) {
            api::Result<std::vector<uint8_t>> got =
                store->get(acked[size_t(t)][o]);
            ASSERT_TRUE(got.ok())
                << pool << "/" << acked[size_t(t)][o] << ": "
                << got.status().toString();
            EXPECT_EQ(*got,
                      patternBytes(120, uint8_t(t * 32 + int(o))));
        }
    }
}

#endif // DNASTORE_CLI_PATH
