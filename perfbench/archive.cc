/**
 * @file
 * archive-roundtrip: the paper's storage path through api::Store on a
 * benchScale unit (Gini layout, 5% IDS error, fixed coverage 10),
 * filled to about half of its 85,587-byte capacity.
 *
 * One op = one write plus one cold read. The write puts every object
 * into a fresh Store, synthesizes, and saves with pools (tmp + fsync +
 * rename); the cold read opens the file read-only and gets every
 * object, byte-comparing each against what was put. The traced op
 * runs the same steps through the layers' public functions (encoder,
 * read pool, pool file, openContents, and the replayed decode).
 */

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "api/api.hh"
#include "bench.hh"
#include "channel/ids_channel.hh"
#include "channel/read_pool.hh"
#include "pipeline/encoder.hh"
#include "replay.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace dnastore;

namespace {

constexpr size_t kObjects = 8;
constexpr size_t kFillBytes = 85587 / 2; //!< Half the unit's capacity.
constexpr size_t kCoverage = 10;
constexpr double kErrorRate = 0.05;
constexpr double kTail = 0.90; //!< op_tail_ms / read_tail_ms percentile.
constexpr int kSetups = 15;

struct Inputs
{
    std::vector<NamedFile> objects;
    uint64_t unitSeed = 0;
    size_t userBytes = 0;
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    Rng rng(mixSeed(seed, 1));
    in.unitSeed = mixSeed(seed, 2);
    // Object sizes vary by seed around an even split; the directory
    // (name + u32 size per object) comes out of the fill budget.
    std::vector<double> weights(kObjects);
    double total = 0.0;
    for (double &w : weights) {
        w = 0.5 + rng.nextDouble();
        total += w;
    }
    const size_t budget = kFillBytes - kObjects * 16;
    for (size_t i = 0; i < kObjects; ++i) {
        NamedFile f;
        char name[16];
        std::snprintf(name, sizeof name, "obj-%02zu", i);
        f.name = name;
        f.data.resize(size_t(double(budget) * weights[i] / total));
        for (uint8_t &b : f.data)
            b = uint8_t(rng.next());
        in.userBytes += f.data.size();
        in.objects.push_back(std::move(f));
    }
    return in;
}

api::StoreOptions
storeOptions(const Inputs &in)
{
    return api::StoreOptions::bench()
        .layout(LayoutScheme::Gini)
        .threads(1)
        .unitSeed(in.unitSeed);
}

api::ChannelOptions
channelOptions()
{
    return api::ChannelOptions().errorRate(kErrorRate).coverage(kCoverage);
}

api::OpenOptions
coldOpenOptions()
{
    api::OpenOptions o;
    o.mode = api::OpenMode::ReadOnly;
    o.threads = 1;
    return o;
}

size_t
fileBytes(const std::string &path)
{
    struct stat st;
    return stat(path.c_str(), &st) == 0 ? size_t(st.st_size) : 0;
}

/** Timings of one untraced op. */
struct OpTimes
{
    double writeMs = 0.0;
    double readMs = 0.0;
    size_t fileBytes = 0;
};

/** The op through api::Store. False when a call returned an error. */
bool
storeOp(const Inputs &in, const std::string &path, OpTimes &t,
        RunResult &out)
{
    const Clock::time_point t0 = Clock::now();
    api::Result<api::Store> store =
        api::Store::open(storeOptions(in), channelOptions());
    if (!store.ok()) {
        out.problem("open: " + store.status().toString());
        return false;
    }
    for (const NamedFile &f : in.objects) {
        const api::Status s = store->put(f.name, f.data);
        if (!s.ok()) {
            out.problem("put: " + s.toString());
            return false;
        }
    }
    api::Status s = store->synthesize();
    if (s.ok())
        s = store->save(path, /*with_pools=*/true);
    if (!s.ok()) {
        out.problem("write: " + s.toString());
        return false;
    }
    const Clock::time_point t1 = Clock::now();

    api::Result<api::Store> cold =
        api::Store::openFile(path, channelOptions(), coldOpenOptions());
    if (!cold.ok()) {
        out.problem("openFile: " + cold.status().toString());
        return false;
    }
    for (const NamedFile &f : in.objects) {
        api::Result<std::vector<uint8_t>> got = cold->get(f.name);
        if (!got.ok()) {
            out.problem("get: " + got.status().toString());
            return false;
        }
        if (*got != f.data)
            out.mismatch("get of " + f.name + " differs from its put");
    }
    const Clock::time_point t2 = Clock::now();
    api::Result<api::Retrieval> all = cold->retrieveAll();
    if (!all.ok() || !all->exact)
        out.mismatch("cold read did not decode exactly");
    t.writeMs = msBetween(t0, t1);
    t.readMs = msBetween(t1, t2);
    t.fileBytes = fileBytes(path);
    return true;
}

/** Layer-level state of the traced op, built once per run. */
struct TracedPath
{
    explicit TracedPath(const Inputs &in)
        : cfg(storeOptions(in).config()),
          encoder(cfg, LayoutScheme::Gini),
          channel(channelOptions().channelProfile().base),
          replay(cfg, LayoutScheme::Gini)
    {}

    StorageConfig cfg;
    UnitEncoder encoder;
    IdsChannel channel;
    DecodeReplay replay;
};

/** The same op, unrolled into spans around each layer call. */
bool
tracedOpBody(const Inputs &in, const TracedPath &p, const std::string &path,
             Tracer &tracer, ReplayOutput &decoded, RunResult &out)
{
    auto op = tracer.span("op");
    FileBundle bundle;
    for (const NamedFile &f : in.objects)
        bundle.add(f.name, f.data);

    api::PoolFileContents contents;
    contents.config = p.cfg;
    contents.scheme = LayoutScheme::Gini;
    contents.unitSeed = in.unitSeed;
    contents.manifest = bundle;
    {
        auto span = tracer.span("pipeline.encode");
        EncodedUnit unit = p.encoder.encode(bundle);
        contents.payloadBits = unit.payloadBits;
        contents.strands = std::move(unit.strands);
    }
    {
        auto span = tracer.span("channel.pool");
        ReadPool pool(contents.strands, p.channel, kCoverage, in.unitSeed,
                      1, ReadStorage::Flat);
        contents.pools = pool.snapshot();
        tracer.count("channel.reads", double(pool.totalReads()));
    }
    contents.hasPools = true;
    contents.poolMaxCoverage = kCoverage;
    {
        auto span = tracer.span("pool_file.write");
        const api::Status s = api::writePoolFile(path, contents);
        if (!s.ok()) {
            out.problem("writePoolFile: " + s.toString());
            return false;
        }
    }
    tracer.count("pool_file.bytes", double(fileBytes(path)));

    api::Result<api::PoolFileContents> read = [&] {
        auto span = tracer.span("pool_file.read");
        return api::readPoolFile(path);
    }();
    if (!read.ok()) {
        out.problem("readPoolFile: " + read.status().toString());
        return false;
    }
    decoded = p.replay.decode(read->pools, kCoverage, tracer);
    {
        auto span = tracer.span("api.open_verify");
        api::Result<api::Store> cold = api::Store::openContents(
            std::move(*read), channelOptions(), coldOpenOptions(), path);
        if (!cold.ok()) {
            out.problem("openContents: " + cold.status().toString());
            return false;
        }
    }
    if (!decoded.exact || !decoded.bundleOk)
        out.mismatch("traced decode was not exact");
    for (const NamedFile &f : in.objects) {
        const NamedFile *got = decoded.bundle.find(f.name);
        if (got == nullptr || got->data != f.data)
            out.mismatch("traced decode of " + f.name + " differs");
    }
    return true;
}

/** The traced op, then its syndrome timing outside the op. */
bool
tracedOp(const Inputs &in, const TracedPath &p, const std::string &path,
         Tracer &tracer, RunResult &out)
{
    ReplayOutput decoded;
    if (!tracedOpBody(in, p, path, tracer, decoded, out))
        return false;
    p.replay.timeSyndromes(decoded, tracer);
    return true;
}

bool
sameFileBytes(const std::string &a, const std::string &b)
{
    std::ifstream x(a, std::ios::binary), y(b, std::ios::binary);
    const std::string xs{ std::istreambuf_iterator<char>(x), {} };
    const std::string ys{ std::istreambuf_iterator<char>(y), {} };
    return x && y && !xs.empty() && xs == ys;
}

} // namespace

RunResult
runArchive(const RunConfig &cfg)
{
    RunResult out;
    const std::string path = cfg.workdir + "/archive.dnapool";

    // Set-up: inputs, one warm-up op (lazy tables, allocator, page
    // cache). Repeated; the median is setup_s.
    std::vector<double> setups;
    Inputs in;
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        in = makeInputs(cfg.seed);
        OpTimes warm;
        if (!storeOp(in, path, warm, out)) {
            ++out.failed;
            return out;
        }
        setups.push_back(msSince(t0) / 1000.0);
    }

    const double untracedSeconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    Samples ops, writes, reads;
    double storedRatio = 0.0;
    const Clock::time_point start = Clock::now();
    while (msSince(start) < untracedSeconds * 1000.0) {
        OpTimes t;
        ++out.attempted;
        if (!storeOp(in, path, t, out)) {
            ++out.failed;
            continue;
        }
        ops.add(t.writeMs + t.readMs);
        writes.add(t.writeMs);
        reads.add(t.readMs);
        storedRatio = double(t.fileBytes) / double(in.userBytes);
    }
    const double elapsedS = msSince(start) / 1000.0;

    out.settings = {
        { "objects", std::to_string(kObjects) },
        { "user_bytes", std::to_string(in.userBytes) },
        { "unit_capacity_bytes",
          std::to_string(StorageConfig::benchScale().capacityBytes()) },
        { "coverage", std::to_string(kCoverage) },
        { "error_rate", "0.05" },
        { "tail_percentile", "90" },
        { "ops_beyond_tail", std::to_string(ops.beyond(kTail)) },
    };
    out.endToEnd = {
        { "op_p50_ms", ops.median(), "ms" },
        { "op_tail_ms", ops.percentile(kTail), "ms" },
        { "ops_per_s", double(ops.size()) / elapsedS, "1/s" },
        { "peak_rss_mb", peakRssMb(), "MiB" },
        { "setup_s", medianSeconds(setups), "s" },
    };
    if (!cfg.trace)
        return out;

    // Traced half. The replay must write the very file Store::save
    // writes, or the ledger would describe a different op.
    const TracedPath traced(in);
    Tracer tracer(true);
    const std::string replayPath = cfg.workdir + "/archive-traced.dnapool";
    {
        Tracer warm(true);
        OpTimes t;
        if (!storeOp(in, path, t, out) ||
            !tracedOp(in, traced, replayPath, warm, out)) {
            ++out.failed;
            return out;
        }
        if (!sameFileBytes(path, replayPath))
            out.mismatch("traced write differs from Store::save's file");
    }
    const Clock::time_point tracedStart = Clock::now();
    while (msSince(tracedStart) < cfg.seconds / 2 * 1000.0) {
        ++out.attempted;
        if (!tracedOp(in, traced, replayPath, tracer, out))
            ++out.failed;
    }
    if (!cfg.spansPath.empty() && !tracer.writeSpans(cfg.spansPath))
        out.problem("cannot write spans to " + cfg.spansPath);

    const auto &c = tracer.counters();
    auto counter = [&](const char *k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    std::map<std::string, double> extra = {
        { "archive.write_p50_ms", writes.median() },
        { "archive.read_p50_ms", reads.median() },
        { "archive.read_tail_ms", reads.percentile(kTail) },
        { "archive.stored_bytes_per_user_byte", storedRatio },
        { "consensus.index_ok_share",
          counter("consensus.index_ok") /
              std::max(1.0, counter("consensus.nonempty")) },
        { "ecc.clean_share",
          counter("ecc.clean") / std::max(1.0, counter("ecc.codewords")) },
    };
    fillLedger(tracer, ops, extra, out);
    return out;
}

} // namespace perfbench
