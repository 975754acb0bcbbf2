/**
 * @file
 * Per-tenant namespaces of the `dnastored` daemon.
 *
 * Each tenant is one `api::Store` backed by its own
 * `<root>/<tenant>.dnapool` file, a byte quota, and a writer lock
 * that serializes the Store's (not internally synchronized) methods:
 *
 *  - GET and HEALTH first ask the store for its published snapshot
 *    (Store::published(), lock-free): when it is current and holds
 *    the needed part, the answer comes from it with no lock, no
 *    decode and no JSON rendering. Otherwise the tenant takes the
 *    writer lock and calls Store::get/Store::health, which decode or
 *    probe once and publish the result for every later reader. The
 *    store owns the one generation counter, the snapshot, and the
 *    get() decision ladder; the tenant keeps no copy of any.
 *
 *  - Everything else (put, list, scrub, trial submission, save)
 *    runs under the writer lock. A put or repairing scrub bumps the
 *    store's generation, so a snapshot can never serve stale state.
 *
 *  - PUT COALESCING: a put only appends to the store's FileBundle
 *    (cheap) — synthesis is deferred to the next get or health, so N
 *    small puts between reads share one FileBundle encode + one
 *    synthesis instead of N.
 *
 * Quotas ride the existing CAPACITY_EXCEEDED admission path: the
 * tenant's byte quota is checked before Store::put, whose own unit
 * capacity check still applies after it.
 */

#ifndef DNASTORE_DAEMON_TENANT_HH
#define DNASTORE_DAEMON_TENANT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/api.hh"

namespace dnastore {
namespace daemon {

/** How new tenant stores are configured. */
struct TenantConfig
{
    std::string root;        //!< Directory holding the pool files.
    uint64_t quotaBytes = 0; //!< Per-tenant payload quota (0 = none).
    size_t threads = 1;      //!< Store decode threads.
    bool packedReadPools = false;
    double errorRate = 0.03; //!< Channel of newly created stores.
    size_t coverage = 8;
    uint64_t unitSeed = 20220618;
};

/** One tenant: a Store, its pool path, quota, and writer lock. */
class Tenant
{
  public:
    Tenant(std::string name, const TenantConfig &config);

    /**
     * Open the backing store: from the tenant's `.dnapool` file when
     * one exists (a previous run's state), fresh otherwise. Called
     * once, under the registry lock, before the tenant is published.
     */
    api::Status open();

    const std::string &name() const { return name_; }
    const std::string &poolPath() const { return poolPath_; }

    /** Quota check + Store::put, under the lock. */
    api::Status put(const std::string &objectName,
                    std::vector<uint8_t> data);

    /**
     * Serve one object from the store's published snapshot, or
     * through Store::get under the lock when none is current. Result
     * and error statuses are exactly Store::get's on the same state.
     */
    api::Result<std::vector<uint8_t>> get(const std::string &objectName);

    /** Directory of stored objects (insertion order). */
    std::vector<api::ObjectInfo> list();

    /**
     * Health report JSON: the published snapshot's memo, or
     * Store::health under the lock when none is current.
     */
    api::Result<std::string> healthJson();

    /** Synchronous scrub under the writer lock. */
    api::Result<api::ScrubReport> scrub(const api::ScrubOptions &options);

    /**
     * Run a Monte-Carlo trial batch. Submission serializes through
     * the writer lock; the fan-out itself runs on the job's
     * dispatcher thread against its own simulator snapshot, so
     * readers proceed while trials run.
     */
    api::Result<api::TrialSeries> trial(uint32_t trials, uint64_t seed);

    /** Persist to the pool path now (clears the dirty flag). */
    api::Status save();

    /** Save if mutations landed since the last save (drain path). */
    api::Status saveIfDirty();

  private:
    const std::string name_;
    const std::string poolPath_;
    const TenantConfig config_;

    /** Serializes every Store call except published(). */
    std::mutex mu_;
    /**
     * Set once by open(), before the tenant is shared. Guarded by
     * mu_, except published(), which is safe without it.
     */
    std::optional<api::Store> store_;
    bool dirty_ = false; //!< Guarded by mu_.
};

/** Name → Tenant map; tenants are created once and never removed. */
class TenantRegistry
{
  public:
    explicit TenantRegistry(const TenantConfig &config);

    /**
     * The named tenant, creating (and opening) it on first use.
     * A failed open is not cached: the error returns to the client
     * and a later request retries.
     */
    api::Result<Tenant *> getOrCreate(const std::string &name);

    /**
     * The named tenant only if it already exists in memory or has a
     * pool file on disk — read ops must not conjure empty tenants.
     */
    api::Result<Tenant *> find(const std::string &name);

    /** Drain path: persist every dirty tenant; first error wins. */
    api::Status saveDirty();

  private:
    const TenantConfig config_;
    std::mutex mu_;
    std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

} // namespace daemon
} // namespace dnastore

#endif // DNASTORE_DAEMON_TENANT_HH
