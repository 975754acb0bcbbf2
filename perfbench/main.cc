/**
 * @file
 * Entry point of the dnastore benchmark (normally run through
 * perfbench/run.py, which builds this program first):
 *
 *   perfbench --workload archive-roundtrip|lab-clustered|daemon-mixed
 *             --seed N --seconds S --trace 0|1 --workdir DIR
 *             [--spans FILE]
 *   perfbench --record-lab-outcomes FILE
 *
 * Prints the host and run settings, the per-layer ledger (traced runs),
 * and as its last line one JSON object with the keys correct,
 * attempted, failed and metrics. Exits 1 when any output check failed
 * or any op returned an error, 2 on a usage error.
 */

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "api/status.hh"
#include "bench.hh"
#include "util/parse.hh"
#include "util/simd.hh"

namespace perfbench {

// ------------------------------------------------------------ statistics

namespace {

/** 1-based nearest rank of percentile @p p among @p n > 0 samples. */
size_t
nearestRank(double p, size_t n)
{
    const size_t rank = size_t(std::ceil(p * double(n)));
    return std::min(std::max<size_t>(rank, 1), n);
}

} // namespace

double
Samples::percentile(double p) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    return s[nearestRank(p, s.size()) - 1];
}

double
Samples::mean() const
{
    if (v_.empty())
        return 0.0;
    double total = 0.0;
    for (double x : v_)
        total += x;
    return total / double(v_.size());
}

size_t
Samples::beyond(double p) const
{
    return v_.empty() ? 0 : v_.size() - nearestRank(p, v_.size());
}

double
medianSeconds(std::vector<double> seconds)
{
    std::sort(seconds.begin(), seconds.end());
    return seconds.empty() ? 0.0 : seconds[seconds.size() / 2];
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------- tracer

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

Tracer::Scope::Scope(Tracer *t, const char *name) : t_(t)
{
    if (t_ == nullptr)
        return;
    Span s;
    s.name = name;
    s.parent = t_->open_.empty() ? -1 : t_->open_.back();
    if (s.parent < 0)
        s.op = t_->nextOp_++;
    else
        s.op = t_->spans_[size_t(s.parent)].op;
    index_ = int(t_->spans_.size());
    t_->spans_.push_back(s);
    t_->open_.push_back(index_);
    t_->spans_.back().beginNs = nowNs();
}

Tracer::Scope::~Scope()
{
    if (t_ == nullptr)
        return;
    t_->spans_[size_t(index_)].endNs = nowNs();
    t_->open_.pop_back();
}

size_t
Tracer::ops() const
{
    size_t n = 0;
    for (const Span &s : spans_)
        n += s.parent < 0 && std::strcmp(s.name, "op") == 0;
    return n;
}

Samples
Tracer::opSamples() const
{
    Samples out;
    for (const Span &s : spans_)
        if (s.parent < 0 && std::strcmp(s.name, "op") == 0)
            out.add(double(s.endNs - s.beginNs) / 1e6);
    return out;
}

std::map<std::string, double>
Tracer::totalMs() const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        out[s.name] += double(s.endNs - s.beginNs) / 1e6;
    return out;
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[size_t(s.parent)] += s.endNs - s.beginNs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out[s.name] += double(s.endNs - s.beginNs - childNs[i]) / 1e6;
    }
    return out;
}

void
Tracer::merge(Tracer &other)
{
    const int base = int(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        s.op += nextOp_;
        spans_.push_back(s);
    }
    nextOp_ += other.nextOp_;
    for (const auto &kv : other.counters_)
        counters_[kv.first] += kv.second;
    other.spans_.clear();
    other.counters_.clear();
}

bool
Tracer::writeSpans(const std::string &path, uint64_t maxOps) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << "op\tname\tparent\tbegin_ns\tend_ns\n";
    for (const Span &s : spans_)
        if (s.op < maxOps)
            f << s.op << '\t' << s.name << '\t' << s.parent << '\t'
          << s.beginNs << '\t' << s.endNs << '\n';
    return bool(f);
}

// ------------------------------------------------------------------ host

namespace {

std::string
procStatusField(const char *key)
{
    std::ifstream f("/proc/self/status");
    std::string line;
    const size_t n = std::strlen(key);
    while (std::getline(f, line))
        if (line.compare(0, n, key) == 0 && line.size() > n &&
            line[n] == ':')
            return line.substr(n + 1);
    return "";
}

std::string
loadAverage()
{
    std::ifstream f("/proc/loadavg");
    std::string one;
    f >> one;
    return one.empty() ? "0" : one;
}

} // namespace

double
peakRssMb()
{
    return std::strtod(procStatusField("VmHWM").c_str(), nullptr) / 1024.0;
}

size_t
threadsLive()
{
    return size_t(std::strtoul(procStatusField("Threads").c_str(),
                               nullptr, 10));
}

size_t
fdsOpen()
{
    size_t n = 0;
    if (DIR *d = opendir("/proc/self/fd")) {
        while (const dirent *e = readdir(d))
            n += e->d_name[0] != '.';
        closedir(d);
        n -= 1; // the directory stream itself
    }
    return n;
}

// --------------------------------------------------------------- catalog

const std::vector<std::pair<std::string, std::string>> &
endToEndCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> c = {
        { "op_p50_ms", "ms" },   { "op_tail_ms", "ms" },
        { "ops_per_s", "1/s" },  { "peak_rss_mb", "MiB" },
        { "setup_s", "s" },
    };
    return c;
}

namespace {

/** Ledger rows: span name -> metric (self time per traced op). */
struct LedgerRow
{
    const char *span;
    const char *metric;
    double scale; //!< ms -> metric unit.
};

const LedgerRow kLedger[] = {
    { "pipeline.encode", "pipeline.encode_ms", 1.0 },
    { "channel.pool", "channel.pool_ms", 1.0 },
    { "channel.soup", "channel.soup_ms", 1.0 },
    { "pool_file.write", "pool_file.write_ms", 1.0 },
    { "pool_file.read", "pool_file.read_ms", 1.0 },
    { "api.open_verify", "api.open_verify_ms", 1.0 },
    { "cluster", "cluster.busy_ms", 1.0 },
    { "consensus", "consensus.busy_ms", 1.0 },
    { "layout.gather", "layout.gather_ms", 1.0 },
    { "ecc.decode", "ecc.decode_ms", 1.0 },
    { "pipeline.decode", "pipeline.decode_unaccounted_ms", 1.0 },
    { "daemon.get", "daemon.get_ms", 1.0 },
    { "daemon.list", "daemon.list_ms", 1.0 },
    { "daemon.health", "api.health_ms", 1.0 },
    { "daemon.ping", "daemon.ping_rtt_ms", 1.0 },
    { "daemon.frame_codec", "daemon.frame_codec_us", 1000.0 },
    { "daemon.reconnect", "daemon.reconnect_ms", 1.0 },
    { "op", "ledger.unaccounted_ms", 1.0 },
};

/** Counters reported per traced op (summed counter / ops). */
const std::pair<const char *, const char *> kPerOpCounters[] = {
    { "consensus.clusters", "count" },
    { "ecc.codewords", "count" },
    { "ecc.errors_corrected", "count" },
    { "ecc.failed_codewords", "count" },
    { "channel.reads", "count" },
    { "pool_file.bytes", "count" },
    { "cluster.clusters_found", "count" },
    { "ecc.syndrome_ms", "ms" }, // Timed outside the op; see replay.hh.
};

/** Workload-computed values, reported as given (0 when absent). */
const std::pair<const char *, const char *> kExtras[] = {
    { "consensus.index_ok_share", "share" },
    { "ecc.clean_share", "share" },
    { "cluster.precision", "share" },
    { "cluster.recall", "share" },
    { "daemon.rebuild_ms", "ms" },
    { "daemon.connect_ms", "ms" },
    { "daemon.connections_opened", "count" },
    { "daemon.threads_live", "count" },
    { "daemon.fds_open", "count" },
    { "archive.write_p50_ms", "ms" },
    { "archive.read_p50_ms", "ms" },
    { "archive.read_tail_ms", "ms" },
    { "archive.stored_bytes_per_user_byte", "ratio" },
    { "daemon.get_p50_ms", "ms" },
    { "daemon.get_tail_ms", "ms" },
    { "daemon.put_p50_ms", "ms" },
    { "daemon.put_tail_ms", "ms" },
    { "daemon.fresh_get_p50_ms", "ms" },
};

const char *
unitOf(const std::string &metric)
{
    if (metric.size() > 3 &&
        metric.compare(metric.size() - 3, 3, "_us") == 0)
        return "us";
    return "ms";
}

std::vector<std::string>
errorMetricNames()
{
    std::vector<std::string> out;
    for (int c = 1; c <= int(dnastore::api::StatusCode::Internal); ++c)
        out.push_back(std::string("daemon.errors.") +
                      dnastore::api::statusCodeName(
                          dnastore::api::StatusCode(c)));
    return out;
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> c = [] {
        std::vector<std::pair<std::string, std::string>> v;
        for (const LedgerRow &row : kLedger)
            v.emplace_back(row.metric, unitOf(row.metric));
        v.emplace_back("ledger.op_ms", "ms");
        v.emplace_back("pipeline.decode_ms", "ms");
        v.emplace_back("trace.untraced_op_p50_ms", "ms");
        v.emplace_back("trace.traced_op_p50_ms", "ms");
        v.emplace_back("trace.overhead_ms", "ms");
        for (const auto &counter : kPerOpCounters)
            v.emplace_back(counter.first, counter.second);
        for (const auto &extra : kExtras)
            v.emplace_back(extra.first, extra.second);
        for (const std::string &name : errorMetricNames())
            v.emplace_back(name, "count");
        return v;
    }();
    return c;
}

void
fillLedger(const Tracer &traced, const Samples &untraced,
           const std::map<std::string, double> &extra, RunResult &out)
{
    const double ops = double(std::max<size_t>(traced.ops(), 1));
    const std::map<std::string, double> self = traced.selfMs();
    const std::map<std::string, double> total = traced.totalMs();
    auto lookup = [](const std::map<std::string, double> &m,
                     const std::string &key) {
        auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
    };

    std::map<std::string, double> values;
    double rowsMs = 0.0;
    char line[160];
    for (const LedgerRow &row : kLedger) {
        const double perOpMs = lookup(self, row.span) / ops;
        values[row.metric] = perOpMs * row.scale;
        rowsMs += perOpMs;
        if (perOpMs != 0.0) {
            std::snprintf(line, sizeof line, "  %-32s %10.4f ms/op",
                          row.metric, perOpMs);
            out.ledger.push_back(line);
        }
    }
    const Samples tracedOps = traced.opSamples();
    const double opMs = tracedOps.mean();
    values["ledger.op_ms"] = opMs;
    std::snprintf(line, sizeof line,
                  "  %-32s %10.4f ms/op (rows sum %.4f, %zu traced ops)",
                  "ledger.op_ms", opMs, rowsMs, traced.ops());
    out.ledger.push_back(line);

    values["pipeline.decode_ms"] = lookup(total, "pipeline.decode") / ops;
    values["trace.untraced_op_p50_ms"] = untraced.median();
    values["trace.traced_op_p50_ms"] = tracedOps.median();
    values["trace.overhead_ms"] = tracedOps.median() - untraced.median();
    for (const auto &counter : kPerOpCounters)
        values[counter.first] = lookup(traced.counters(), counter.first) / ops;
    for (const auto &kv : extra)
        values[kv.first] = kv.second;

    for (const auto &entry : perLayerCatalog())
        out.perLayer.push_back(
            { entry.first, lookup(values, entry.first), entry.second });
    for (const auto &kv : values) {
        bool known = false;
        for (const auto &entry : perLayerCatalog())
            known = known || entry.first == kv.first;
        if (!known)
            out.mismatch("workload reported unknown per-layer metric " +
                         kv.first);
    }
}

} // namespace perfbench

// ------------------------------------------------------------------ main

namespace {

using namespace perfbench;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--spans FILE]\n"
                 "       perfbench --record-lab-outcomes FILE\n",
                 msg);
    return 2;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (uint8_t(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

} // namespace

namespace perfbench {
int recordLabOutcomes(const std::string &path);
}

int
main(int argc, char **argv)
{
    std::string workload, workdir, spans, record;
    uint64_t seed = 0;
    double seconds = 0.0;
    uint64_t trace = 0;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            haveSeed = dnastore::parseU64(val, &seed);
        else if (flag == "--seconds")
            haveSeconds = dnastore::parseF64(val, &seconds) && seconds > 0;
        else if (flag == "--trace")
            haveTrace = dnastore::parseU64(val, &trace) && trace <= 1;
        else if (flag == "--workdir")
            workdir = val;
        else if (flag == "--spans")
            spans = val;
        else if (flag == "--record-lab-outcomes")
            record = val;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (!record.empty())
        return recordLabOutcomes(record);
    if (!haveSeed || !haveSeconds || !haveTrace || workdir.empty())
        return usage("--seed, --seconds, --trace and --workdir are required");

    RunConfig cfg;
    cfg.seed = seed;
    cfg.seconds = seconds;
    cfg.trace = trace == 1;
    cfg.workdir = workdir;
    cfg.spansPath = spans;
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    cfg.nproc = n > 0 ? size_t(n) : 1;

    const std::string loadStart = loadAverage();

    RunResult result;
    if (workload == "archive-roundtrip")
        result = runArchive(cfg);
    else if (workload == "lab-clustered")
        result = runLab(cfg);
    else if (workload == "daemon-mixed")
        result = runDaemon(cfg);
    else
        return usage(("unknown workload '" + workload + "'").c_str());

    const std::string loadEnd = loadAverage();

    // Settings line: the host and run parameters this result came from.
    const char *forceScalar = std::getenv("DNASTORE_FORCE_SCALAR");
    std::ostringstream settings;
    settings << "{\"workload\": " << jsonString(workload)
             << ", \"seed\": " << seed
             << ", \"seconds\": " << jsonNumber(seconds)
             << ", \"trace\": " << trace << ", \"nproc\": " << cfg.nproc
             << ", \"loadavg_start\": " << jsonString(loadStart)
             << ", \"loadavg_end\": " << jsonString(loadEnd)
             << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
             << ", \"simd_tier\": "
             << jsonString(dnastore::simd::levelName(
                    dnastore::simd::activeLevel()))
             << ", \"force_scalar\": "
             << (forceScalar != nullptr && *forceScalar != '\0' ? "true"
                                                                : "false")
             << ", \"library_threads\": 1";
    for (const auto &kv : result.settings)
        settings << ", " << jsonString(kv.first) << ": " << kv.second;
    settings << "}";
    std::printf("settings %s\n", settings.str().c_str());
    if (!result.ledger.empty()) {
        std::printf("ledger (traced self time per op):\n");
        for (const std::string &line : result.ledger)
            std::printf("%s\n", line.c_str());
    }

    // The metrics must be exactly the catalog for this mode.
    const auto &catalog = cfg.trace ? perLayerCatalog() : endToEndCatalog();
    const std::vector<Metric> &metrics =
        cfg.trace ? result.perLayer : result.endToEnd;
    std::set<std::string> seen;
    for (const Metric &m : metrics)
        seen.insert(m.name);
    for (const auto &entry : catalog)
        if (!seen.count(entry.first))
            result.mismatch("metric " + entry.first + " not reported");
    if (seen.size() != catalog.size() || metrics.size() != catalog.size())
        result.mismatch("reported metrics differ from the catalog");
    if (result.attempted == 0)
        result.mismatch("no op completed within the run");

    if (!result.firstProblem.empty())
        std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(),
                     result.firstProblem.c_str());

    std::ostringstream json;
    json << "{\"correct\": " << (result.correct ? "true" : "false")
         << ", \"attempted\": " << result.attempted
         << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json << (i ? ", " : "") << jsonString(metrics[i].name)
             << ": {\"value\": " << jsonNumber(metrics[i].value)
             << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return result.correct && result.failed == 0 ? 0 : 1;
}
