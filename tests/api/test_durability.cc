/**
 * The durability loop through the api::Store façade: health
 * telemetry, the aging fault injector, sync and async scrubbing, the
 * one-snapshot contract (a stale retrieval or health memo must never
 * serve pre-mutation results, and the lock-free reader never sees a
 * torn snapshot), and the StatusCode producing-path audit (every
 * code is reachable through the public API or is explicitly
 * documented reserved).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

std::vector<uint8_t>
patternBytes(size_t n, uint8_t base)
{
    std::vector<uint8_t> data(n);
    for (size_t i = 0; i < n; ++i)
        data[i] = uint8_t(base + i * 17);
    return data;
}

AgingProfile
decayProfile(double loss = 0.25, double sub = 0.004)
{
    AgingProfile aging;
    aging.strandLossRate = loss;
    aging.substitutionRate = sub;
    return aging;
}

Store
openAging(const AgingProfile &aging, uint64_t seed = 4242)
{
    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(seed);
    ChannelOptions channel;
    channel.errorRate(0.02).coverage(8).aging(aging);
    Result<Store> store = Store::open(options, channel);
    EXPECT_TRUE(store.ok()) << store.status().toString();
    return std::move(*store);
}

Store
openPlain(uint64_t seed = 4242)
{
    StoreOptions options = StoreOptions::tiny();
    options.unitSeed(seed);
    ChannelOptions channel;
    channel.errorRate(0.02).coverage(8);
    Result<Store> store = Store::open(options, channel);
    EXPECT_TRUE(store.ok()) << store.status().toString();
    return std::move(*store);
}

} // namespace

TEST(StoreHealth, FreshPoolIsExactWithFullTelemetry)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 1)).ok());

    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    EXPECT_TRUE(health->exact);
    EXPECT_GT(health->clusters, 0u);
    EXPECT_EQ(health->perCluster.size(), health->clusters);
    EXPECT_EQ(health->emptyClusters, 0u);
    EXPECT_EQ(health->agedEpochs, 0u);
    EXPECT_EQ(health->liveReads,
              health->clusters * health->poolCoverage);
    EXPECT_GE(health->minMargin, 0);
    EXPECT_GT(health->meanAgreement, 0.5);
    EXPECT_GE(health->meanAgreement, health->minAgreement);

    // Every codeword decoded, and the margin identity holds.
    ASSERT_FALSE(health->perCodeword.empty());
    for (const auto &cw : health->perCodeword) {
        EXPECT_TRUE(cw.ok);
        EXPECT_GE(cw.margin, health->minMargin);
    }
}

TEST(StoreHealth, JsonIsDeterministicAndDetailGated)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 2)).ok());

    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok());
    const std::string detailed = health->toJson();
    const std::string summary = health->toJson(false);

    // Same state, same bytes — the CI diff contract.
    Result<HealthReport> again = store.health();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->toJson(), detailed);

    EXPECT_NE(detailed.find("\"per_cluster\""), std::string::npos);
    EXPECT_NE(detailed.find("\"per_codeword\""), std::string::npos);
    EXPECT_EQ(summary.find("\"per_cluster\""), std::string::npos);
    EXPECT_NE(summary.find("\"min_margin\""), std::string::npos);
}

// The exact bytes of the health and scrub JSON for one fixed aged
// store: the renderings are a byte-identity contract (CLI --json,
// the daemon's Health/Scrub bodies), so a change to a record or its
// toJson() must not move a single character.
TEST(StoreHealth, GoldenHealthAndScrubJson)
{
    Store store = openAging(decayProfile());
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 12)).ok());
    ASSERT_TRUE(store.age(1).ok());

    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok()) << health.status().toString();
    EXPECT_EQ(health->perCluster.size(), health->clusters);
    EXPECT_EQ(health->toJson(false),
              "{\n"
              "  \"clusters\": 255,\n"
              "  \"live_reads\": 1527,\n"
              "  \"pool_coverage\": 8,\n"
              "  \"empty_clusters\": 0,\n"
              "  \"index_faults\": 0,\n"
              "  \"erased_columns\": 0,\n"
              "  \"failed_codewords\": 0,\n"
              "  \"aged_epochs\": 1,\n"
              "  \"exact\": true,\n"
              "  \"mean_agreement\": 0.977390486399,\n"
              "  \"min_agreement\": 0.958523592085,\n"
              "  \"min_margin\": 45\n"
              "}\n");

    ScrubOptions policy;
    policy.minReads = 6;
    Result<ScrubReport> scrub = store.scrub(policy);
    ASSERT_TRUE(scrub.ok()) << scrub.status().toString();
    EXPECT_EQ(scrub->toJson(),
              "{\n"
              "  \"clusters_scanned\": 255,\n"
              "  \"low_margin\": 79,\n"
              "  \"repaired\": 79,\n"
              "  \"unrepairable\": 0,\n"
              "  \"failed_codewords\": 0,\n"
              "  \"reads_rewritten\": 632,\n"
              "  \"repairable\": true\n"
              "}\n");
}

TEST(StoreAge, WithoutAgingProfileIsFailedPrecondition)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 3)).ok());
    Result<size_t> lost = store.age(1);
    ASSERT_FALSE(lost.ok());
    EXPECT_EQ(lost.status().code(), StatusCode::FailedPrecondition);
}

TEST(StoreAge, AppliesDecayAndCountsEpochs)
{
    Store store = openAging(decayProfile());
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 4)).ok());

    Result<HealthReport> before = store.health();
    ASSERT_TRUE(before.ok());

    Result<size_t> lost = store.age(2);
    ASSERT_TRUE(lost.ok()) << lost.status().toString();
    EXPECT_GT(*lost, 0u);

    Result<HealthReport> after = store.health();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->agedEpochs, 2u);
    EXPECT_EQ(after->liveReads, before->liveReads - *lost);
    EXPECT_LT(after->liveReads, before->liveReads);
}

TEST(StoreScrub, HealthyPoolIsANoop)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 5)).ok());

    // Default policy: repair only clusters that lost their column
    // claim. A fresh pool has none.
    Result<ScrubReport> report = store.scrub();
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report->lowMargin, 0u);
    EXPECT_EQ(report->repaired, 0u);
    EXPECT_EQ(report->readsRewritten, 0u);
    EXPECT_GT(report->clustersScanned, 0u);
}

// ScrubOptions is a plain struct with no builder, so the non-finite
// gate lives at the Store boundary: NaN min-agreement compares false
// against every threshold and would silently scrub nothing.
TEST(StoreScrub, RejectsNonFiniteMinAgreement)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 9)).ok());

    ScrubOptions policy;
    policy.minAgreement = std::numeric_limits<double>::quiet_NaN();
    Result<ScrubReport> report = store.scrub(policy);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(report.status().message().find("min-agreement"),
              std::string::npos)
        << report.status().message();

    // The async job path rejects identically.
    ScrubJob job;
    job.options = policy;
    Result<ScrubReport> async = store.submit(job).get();
    ASSERT_FALSE(async.ok());
    EXPECT_EQ(async.status().code(), StatusCode::InvalidArgument);
}

TEST(StoreScrub, TrialJobRejectsNonFiniteMinAgreementLikeScrub)
{
    // A TrialJob's per-epoch scrubs pass the same gate as scrub() and
    // ScrubJob: the same NaN policy is INVALID_ARGUMENT on all three.
    Store store = openAging(decayProfile());
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 9)).ok());

    ScrubOptions policy;
    policy.minAgreement = std::numeric_limits<double>::quiet_NaN();
    Result<ScrubReport> sync = store.scrub(policy);
    ASSERT_FALSE(sync.ok());
    EXPECT_EQ(sync.status().code(), StatusCode::InvalidArgument);

    TrialJob job;
    job.trialSeeds = { 1 };
    job.agingEpochs = 1;
    job.scrubEachEpoch = true;
    job.scrub = policy;
    Result<TrialSeries> trials = store.submit(job).get();
    ASSERT_FALSE(trials.ok());
    EXPECT_EQ(trials.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(trials.status().message(), sync.status().message());
}

TEST(StoreScrub, RepairsAgedPoolBackToExact)
{
    Store store = openAging(decayProfile());
    const std::vector<uint8_t> payload = patternBytes(900, 6);
    ASSERT_TRUE(store.put("a.bin", payload).ok());
    ASSERT_TRUE(store.age(1).ok());

    ScrubOptions policy;
    policy.minReads = 6;
    Result<ScrubReport> report = store.scrub(policy);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report->repairable);
    EXPECT_GT(report->repaired, 0u);
    EXPECT_EQ(report->unrepairable, 0u);
    EXPECT_GT(report->readsRewritten, 0u);

    // Repaired clusters are back at full depth and the unit decodes
    // exactly.
    Result<HealthReport> health = store.health();
    ASSERT_TRUE(health.ok());
    EXPECT_TRUE(health->exact);
    Result<std::vector<uint8_t>> got = store.get("a.bin");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, payload);

    // The scrub-report JSON is deterministic too.
    EXPECT_EQ(report->toJson(), report->toJson());
}

// Satellite regression: the retrieveAll memo must be dropped on
// every pool mutation. Aging the pool after a successful (and
// memoized) retrieval must force a re-decode — a stale memo would
// keep serving the pre-aging "exact" result forever.
TEST(StoreMemo, AgingInvalidatesTheRetrieveAllMemo)
{
    Store store = openAging(decayProfile(0.5, 0.01));
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 7)).ok());

    Result<Retrieval> first = store.retrieveAll();
    ASSERT_TRUE(first.ok());
    EXPECT_TRUE(first->exact);

    // Decay hard until the full-depth probe says the unit no longer
    // decodes exactly (deterministic for the fixed seed; the cap is
    // just a safety net).
    bool degraded = false;
    for (int epoch = 0; epoch < 12 && !degraded; ++epoch) {
        ASSERT_TRUE(store.age(1).ok());
        Result<HealthReport> health = store.health();
        ASSERT_TRUE(health.ok());
        degraded = !health->exact;
    }
    ASSERT_TRUE(degraded) << "aging never degraded the pool";

    // A stale memo would still answer exact=true here.
    Result<Retrieval> second = store.retrieveAll();
    if (second.ok()) {
        EXPECT_FALSE(second->exact);
    }
    // (A decode so degraded the directory fails to parse surfaces as
    // an error Status instead — also proof the memo was dropped.)
}

// The same contract for scrub repairs, including through the async
// ScrubJob path: after a repair the next retrieveAll must re-decode
// against the rewritten pool instead of serving pre-repair results.
TEST(StoreMemo, ScrubRepairInvalidatesTheRetrieveAllMemo)
{
    Store store = openAging(decayProfile());
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 8)).ok());
    ASSERT_TRUE(store.age(2).ok());

    Result<Retrieval> before = store.retrieveAll();
    ASSERT_TRUE(before.ok());
    // The aged pool works harder: thinner clusters mean erasures
    // and/or more corrected symbols than a repaired pool needs.
    const size_t aged_cost =
        2 * before->erasedColumns + before->correctedErrors;

    ScrubJob job;
    job.options.repairAll = true;
    Result<ScrubReport> report = store.submit(job).get();
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_GT(report->repaired, 0u);

    Result<Retrieval> after = store.retrieveAll();
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->exact);
    // A stale memo would replay the identical aged statistics; the
    // rewritten full-depth pool decodes strictly cheaper.
    const size_t repaired_cost =
        2 * after->erasedColumns + after->correctedErrors;
    EXPECT_LT(repaired_cost, aged_cost);
}

// The health memo follows the same generation as the retrieval
// snapshot: every mutation — put, age, a repairing scrub, and a
// repairing ScrubJob — must make the next health() probe again. A
// stale memo would replay the previous report byte for byte.
TEST(StoreMemo, EveryMutationInvalidatesTheHealthMemo)
{
    Store store = openAging(decayProfile());
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 12)).ok());
    auto healthJson = [&store] {
        Result<HealthReport> health = store.health();
        EXPECT_TRUE(health.ok()) << health.status().toString();
        return health.ok() ? health->toJson() : std::string();
    };
    std::string last = healthJson();
    EXPECT_EQ(healthJson(), last); // memoized: same generation

    ASSERT_TRUE(store.put("b.bin", patternBytes(900, 13)).ok());
    std::string now = healthJson();
    EXPECT_NE(now, last) << "put left the health memo stale";
    last = now;

    ASSERT_TRUE(store.age(2).ok());
    now = healthJson();
    EXPECT_NE(now, last) << "age left the health memo stale";
    last = now;

    ScrubOptions repair_all;
    repair_all.repairAll = true;
    Result<ScrubReport> sync = store.scrub(repair_all);
    ASSERT_TRUE(sync.ok()) << sync.status().toString();
    ASSERT_GT(sync->repaired, 0u);
    now = healthJson();
    EXPECT_NE(now, last) << "scrub left the health memo stale";
    last = now;

    ASSERT_TRUE(store.age(2).ok());
    last = healthJson();
    ScrubJob job;
    job.options.repairAll = true;
    Result<ScrubReport> async = store.submit(job).get();
    ASSERT_TRUE(async.ok()) << async.status().toString();
    ASSERT_GT(async->repaired, 0u);
    EXPECT_NE(healthJson(), last) << "ScrubJob left the health memo stale";
}

// The lock-free reader against a live writer: one thread puts and
// gets under a caller-held mutex (the daemon's discipline) while
// readers call published() with no lock. A reader sees the current
// snapshot or none — never one whose names, decoded objects, and
// generation disagree — and generations only move forward.
TEST(StoreMemo, PublishedSnapshotIsCurrentOrAbsentNeverTorn)
{
    Store store = openPlain();
    constexpr int kObjects = 10;
    constexpr int kReaders = 4;
    auto objectName = [](int i) { return "obj" + std::to_string(i); };
    auto objectBytes = [](int i) {
        return patternBytes(40 + size_t(i), uint8_t(i * 9));
    };

    std::mutex writer_mu;
    std::atomic<bool> writing{ true };
    std::atomic<int> torn{ 0 };
    auto checkSnapshot = [&](const Snapshot &snap) {
        // Names are always a prefix of the put order.
        for (size_t i = 0; i < snap.names.size(); ++i)
            if (snap.names[i] != objectName(int(i)))
                ++torn;
        if (!snap.retrieval)
            return;
        if (!snap.retrieval->exact ||
            snap.retrieval->objects.fileCount() != snap.names.size())
            ++torn;
        for (size_t i = 0; i < snap.names.size(); ++i) {
            Result<std::vector<uint8_t>> got = snap.get(snap.names[i]);
            if (!got.ok() || *got != objectBytes(int(i)))
                ++torn;
        }
    };

    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
            uint64_t last_generation = 0;
            while (writing.load()) {
                std::shared_ptr<const Snapshot> snap = store.published();
                if (!snap)
                    continue;
                if (snap->generation < last_generation)
                    ++torn;
                last_generation = snap->generation;
                checkSnapshot(*snap);
            }
        });
    }
    for (int i = 0; i < kObjects; ++i) {
        std::lock_guard<std::mutex> lock(writer_mu);
        ASSERT_TRUE(store.put(objectName(i), objectBytes(i)).ok());
        Result<std::vector<uint8_t>> got = store.get(objectName(i));
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_EQ(*got, objectBytes(i));
    }
    writing.store(false);
    for (std::thread &t : readers)
        t.join();
    EXPECT_EQ(torn.load(), 0);

    // With the writer quiet, the last get's snapshot is current.
    std::shared_ptr<const Snapshot> final_snap = store.published();
    ASSERT_NE(final_snap, nullptr);
    ASSERT_NE(final_snap->retrieval, nullptr);
    EXPECT_EQ(final_snap->names.size(), size_t(kObjects));
    checkSnapshot(*final_snap);
    EXPECT_EQ(torn.load(), 0);

    // A mutation retires it at once.
    std::lock_guard<std::mutex> lock(writer_mu);
    ASSERT_TRUE(store.put("late.bin", objectBytes(kObjects)).ok());
    EXPECT_EQ(store.published(), nullptr);
}

TEST(StoreScrub, UnrepairablePoolIsUnavailable)
{
    Store store = openAging(decayProfile(0.5, 0.01));
    ASSERT_TRUE(store.put("a.bin", patternBytes(900, 9)).ok());

    // Decay until the full-depth decode fails; a scrub that selects
    // clusters now cannot trust the recovered data to rewrite them.
    bool degraded = false;
    for (int epoch = 0; epoch < 12 && !degraded; ++epoch) {
        ASSERT_TRUE(store.age(1).ok());
        Result<HealthReport> health = store.health();
        ASSERT_TRUE(health.ok());
        degraded = !health->exact;
    }
    ASSERT_TRUE(degraded);

    ScrubOptions policy;
    policy.minReads = 6;
    Result<ScrubReport> sync = store.scrub(policy);
    ASSERT_FALSE(sync.ok());
    EXPECT_EQ(sync.status().code(), StatusCode::Unavailable);

    ScrubJob job;
    job.options = policy;
    Result<ScrubReport> async = store.submit(job).get();
    ASSERT_FALSE(async.ok());
    EXPECT_EQ(async.status().code(), StatusCode::Unavailable);
}

// Satellite: every submit() on a moved-from (torn-down) Store must
// yield a ready Unavailable future — for all four job types.
TEST(StoreSubmit, MovedFromStoreIsUnavailable)
{
    Store store = openPlain();
    ASSERT_TRUE(store.put("a.bin", patternBytes(600, 10)).ok());
    Store taken = std::move(store);

    Result<EncodedArtifact> encode = store.submit(EncodeJob{}).get();
    ASSERT_FALSE(encode.ok());
    EXPECT_EQ(encode.status().code(), StatusCode::Unavailable);

    Result<DecodedObjects> decode = store.submit(DecodeJob{}).get();
    ASSERT_FALSE(decode.ok());
    EXPECT_EQ(decode.status().code(), StatusCode::Unavailable);

    Result<TrialSeries> trials = store.submit(TrialJob{}).get();
    ASSERT_FALSE(trials.ok());
    EXPECT_EQ(trials.status().code(), StatusCode::Unavailable);

    Result<ScrubReport> scrub = store.submit(ScrubJob{}).get();
    ASSERT_FALSE(scrub.ok());
    EXPECT_EQ(scrub.status().code(), StatusCode::Unavailable);

    // The moved-to store still works.
    EXPECT_TRUE(taken.health().ok());
}

// Satellite audit: every StatusCode either has a producing path
// through the public API (exercised here) or is documented reserved.
TEST(StatusCodes, EveryCodeHasAProducingPathOrIsReserved)
{
    // Ok: any successful operation.
    Store store = openPlain();
    Status ok = store.put("a.bin", patternBytes(600, 11));
    EXPECT_EQ(ok.code(), StatusCode::Ok);

    // InvalidArgument: rejected configuration.
    EXPECT_EQ(Store::open(StoreOptions().symbolBits(1)).status().code(),
              StatusCode::InvalidArgument);

    // NotFound: unknown object name.
    EXPECT_EQ(store.get("missing").status().code(),
              StatusCode::NotFound);

    // AlreadyExists: duplicate object name.
    EXPECT_EQ(store.put("a.bin", patternBytes(10, 12)).code(),
              StatusCode::AlreadyExists);

    // CapacityExceeded: payload larger than the unit.
    EXPECT_EQ(store.put("big.bin", patternBytes(1 << 22, 13)).code(),
              StatusCode::CapacityExceeded);

    // FailedPrecondition: aging without an aging profile.
    EXPECT_EQ(store.age(1).status().code(),
              StatusCode::FailedPrecondition);

    // DataLoss: a flipped byte in a saved pool file.
    const std::string path =
        testing::TempDir() + "status_code_audit.dnapool";
    ASSERT_EQ(store.save(path, true).code(), StatusCode::Ok);
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(64);
        char byte = 0;
        f.seekg(64);
        f.get(byte);
        f.seekp(64);
        byte = char(byte ^ 0x20);
        f.put(byte);
    }
    ChannelOptions channel;
    channel.errorRate(0.02).coverage(8);
    EXPECT_EQ(Store::openFile(path, channel).status().code(),
              StatusCode::DataLoss);
    std::remove(path.c_str());

    // Unavailable: submitting against a torn-down store (also: a
    // scrub that cannot trust its repairs — see
    // StoreScrub.UnrepairablePoolIsUnavailable).
    Store gone = std::move(store);
    EXPECT_EQ(gone.put("b.bin", patternBytes(10, 14)).code(),
              StatusCode::Ok);
    EXPECT_EQ(store.submit(ScrubJob{}).get().status().code(),
              StatusCode::Unavailable);

    // Internal: reserved for the no-throw boundary's catch-all (an
    // unexpected exception escaping the pipeline). There is by
    // design no way to trigger it through valid API use; it exists
    // so a pipeline bug surfaces as a Status instead of a crash.
}
