/**
 * @file
 * `dnastored` — the concurrent multi-tenant storage daemon.
 *
 * A Server binds a localhost TCP socket, accepts any number of
 * client connections (one reader thread per connection, joined by
 * the acceptor once its client goes away), and serves the
 * protocol.hh request set against a TenantRegistry:
 *
 *   Ping            liveness
 *   Put             tenant quota check + Store::put (coalesced:
 *                   synthesis deferred to the next read)
 *   Get/Health      lock-free against the store's published snapshot
 *                   when current, else under the tenant writer lock
 *   List/Scrub/Save serialized through the tenant writer lock
 *   Trial           Monte-Carlo batch on the store's dispatcher
 *
 * Every response carries an api/wire.hh status code, so the façade's
 * Status taxonomy — CAPACITY_EXCEEDED quota rejections included —
 * crosses the socket unchanged.
 *
 * Error containment: an undecodable-but-well-framed payload fails
 * only that request (INVALID_ARGUMENT response, connection kept);
 * a framing failure (bad magic, wild length, CRC mismatch) cannot be
 * resynchronized, so the server answers one protocol-error frame and
 * closes that connection — never crashing, never wedging the other
 * connections.
 *
 * Shutdown: drain() (the CLI calls it on SIGTERM) stops accepting,
 * lets every in-flight request finish and flush its response, joins
 * the connection threads, and atomically saves every dirty tenant
 * pool (writePoolFile's tmp+rename discipline), so a drained root
 * directory always reopens consistent.
 */

#ifndef DNASTORE_DAEMON_SERVER_HH
#define DNASTORE_DAEMON_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/status.hh"
#include "daemon/protocol.hh"
#include "daemon/tenant.hh"

namespace dnastore {
namespace daemon {

struct ServerOptions
{
    TenantConfig tenants;

    /** TCP port on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;
};

class Server
{
  public:
    explicit Server(const ServerOptions &options);

    /** Drains (and saves dirty tenants) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + start the acceptor. Unavailable on failure. */
    api::Status start();

    /** The bound port (meaningful after start()). */
    uint16_t port() const { return port_; }

    /**
     * Graceful shutdown: stop accepting, finish in-flight requests,
     * join every connection thread, persist dirty tenant pools.
     * Idempotent; returns the first save error (the drain itself
     * cannot fail).
     */
    api::Status drain();

    /** Requests served since start (for tests and logs). */
    uint64_t requestsServed() const { return requestsServed_.load(); }

  private:
    /** One client: its thread owns (and closes) the socket. */
    struct Connection
    {
        std::atomic<bool> done{ false }; //!< Set as the thread exits.
        std::thread thread;
    };

    /** Join and drop connections whose threads have finished. */
    void reapFinishedConnections();
    void acceptLoop();
    void handleConnection(int fd);
    Response dispatch(const Request &request);

    const ServerOptions options_;
    TenantRegistry tenants_;

    int listenFd_ = -1;
    int wakePipe_[2] = { -1, -1 };
    uint16_t port_ = 0;

    std::atomic<bool> running_{ false };
    std::atomic<bool> stopping_{ false };
    std::atomic<uint64_t> requestsServed_{ 0 };

    std::thread acceptor_;
    /** Owned by the acceptor thread; drain() takes over after joining it. */
    std::vector<std::unique_ptr<Connection>> connections_;
};

} // namespace daemon
} // namespace dnastore

#endif // DNASTORE_DAEMON_SERVER_HH
