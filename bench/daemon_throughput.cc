/**
 * dnastored request throughput: an in-process Server hammered by N
 * client threads over loopback TCP, reporting requests/second for
 * the protocol hot paths. Ping touches no tenant and get/health
 * ride the store's lock-free published snapshot, so they should
 * scale with client count; list and put serialize through the
 * tenant writer lock.
 *
 *   bench_daemon_throughput [clients] [seconds-per-phase]
 *
 * Plain main (no Google Benchmark dependency), like the figure
 * benches.
 */

#include <stdlib.h> // mkdtemp

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"
#include "daemon/client.hh"
#include "daemon/server.hh"
#include "util/parse.hh"

using namespace dnastore;
using namespace dnastore::daemon;

namespace {

std::vector<uint8_t>
patternBytes(size_t n, uint8_t base)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = uint8_t(base + i * 13);
    return data;
}

using Clock = std::chrono::steady_clock;

/** Run @p op in @p clients threads for @p seconds; ops/second. */
double
hammer(uint16_t port, int clients, double seconds,
       bool (*op)(Client &, int))
{
    std::atomic<uint64_t> completed{ 0 };
    std::atomic<bool> stop{ false };
    std::vector<std::thread> threads;
    threads.reserve(size_t(clients));
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Client client;
            if (!client.connect(port).ok())
                return;
            while (!stop.load(std::memory_order_relaxed)) {
                if (!op(client, c))
                    return;
                completed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    const Clock::time_point start = Clock::now();
    while (std::chrono::duration<double>(Clock::now() - start)
               .count() < seconds)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stop.store(true);
    for (std::thread &t : threads)
        t.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    return double(completed.load()) / elapsed;
}

bool
opPing(Client &client, int)
{
    return client.ping().ok();
}

bool
opGet(Client &client, int c)
{
    return client
        .get("bench" + std::to_string(c % 4), "obj.bin")
        .ok();
}

bool
opList(Client &client, int c)
{
    return client.list("bench" + std::to_string(c % 4)).ok();
}

bool
opHealth(Client &client, int c)
{
    return client.health("bench" + std::to_string(c % 4)).ok();
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t clientsArg = 8;
    double seconds = 2.0;
    const bool argsOk =
        (argc <= 1 || parseU64(argv[1], &clientsArg)) &&
        (argc <= 2 || parseF64(argv[2], &seconds));
    if (!argsOk || clientsArg < 1 || seconds <= 0) {
        std::fprintf(stderr,
                     "usage: %s [clients >= 1] [seconds > 0]\n",
                     argv[0]);
        return 2;
    }
    const int clients = int(clientsArg);

    char rootTemplate[] = "/tmp/dnastored_bench_XXXXXX";
    const char *root = ::mkdtemp(rootTemplate);
    if (root == nullptr) {
        std::fprintf(stderr, "mkdtemp failed\n");
        return 1;
    }
    ServerOptions options;
    options.tenants.root = root;
    options.tenants.threads = 1;
    Server server(options);
    api::Status started = server.start();
    if (!started.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     started.message().c_str());
        return 1;
    }

    // Seed four tenants and warm their read snapshots so the read
    // phases measure the steady state, not the first decode.
    {
        Client client;
        if (!client.connect(server.port()).ok())
            return 1;
        for (int t = 0; t < 4; ++t) {
            const std::string tenant = "bench" + std::to_string(t);
            if (!client
                     .put(tenant, "obj.bin",
                          patternBytes(512, uint8_t(t)))
                     .ok())
                return 1;
            if (!client.get(tenant, "obj.bin").ok())
                return 1;
            if (!client.health(tenant).ok())
                return 1;
        }
    }

    std::printf("dnastored throughput: %d clients, %.1fs per phase\n",
                clients, seconds);
    struct Phase
    {
        const char *name;
        bool (*op)(Client &, int);
    };
    const Phase phases[] = {
        { "ping", opPing },
        { "get", opGet },
        { "list", opList },
        { "health", opHealth },
    };
    for (const Phase &phase : phases)
        std::printf("  %-8s %10.0f req/s\n", phase.name,
                    hammer(server.port(), clients, seconds,
                           phase.op));

    api::Status drained = server.drain();
    if (!drained.ok()) {
        std::fprintf(stderr, "drain failed: %s\n",
                     drained.message().c_str());
        return 1;
    }
    return 0;
}
