/**
 * @file
 * lab-clustered: Scenario Lab `clustered-nominal` trials (tinyTest,
 * 3% IDS error, coverage 6, 1,530 interleaved reads per trial) run
 * through the public TrialJob API, one trial per op. This is the only
 * workload where the real clusterer does the work.
 *
 * The trials are the first kPoolTrials of the scenario's sweep
 * (SweepRunner's unit seed and trial-seed stream at its default base
 * seed), and lab_outcomes.tsv records each one's outcome (success and
 * byte error rate). The workload seed picks the order the run walks
 * that pool in, and every trial's outcome is checked against its
 * recorded entry, so a clusterer change that alters any clustering
 * the run touches fails the run. The traced op replays the trial —
 * read soup, clustering, decode — through the layers' public
 * functions and is checked against the same record.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "api/api.hh"
#include "bench.hh"
#include "channel/stressors.hh"
#include "cluster/clusterer.hh"
#include "dna/packed_strand.hh"
#include "lab/scenario.hh"
#include "lab/sweep.hh"
#include "pipeline/encoder.hh"
#include "replay.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace dnastore;

namespace {

constexpr const char *kScenario = "clustered-nominal";
constexpr size_t kPoolTrials = 1024;
constexpr uint64_t kSweepSeed = 20220618; //!< SweepOptions' default.
constexpr double kTail = 0.90;
constexpr int kSetups = 15;
const char *const kOutcomesFile = PERFBENCH_DIR "/lab_outcomes.tsv";

/** SweepRunner's per-scenario seed salt (FNV-1a of the name). */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One trial's recorded outcome: one line of lab_outcomes.tsv. */
struct Outcome
{
    bool success = false;
    double byteErrorRate = 0.0;
    double precision = 0.0;
    double recall = 0.0;
    size_t correctedErrors = 0;

    bool
    operator==(const Outcome &o) const
    {
        return success == o.success && byteErrorRate == o.byteErrorRate &&
            precision == o.precision && recall == o.recall &&
            correctedErrors == o.correctedErrors;
    }
};

Outcome
outcomeOf(const api::TrialResult &r)
{
    return { r.success, r.byteErrorRate, r.precision, r.recall,
             r.correctedErrors };
}

struct Lab
{
    const Scenario *scenario = nullptr;
    uint64_t unitSeed = 0;
    std::vector<uint64_t> trialSeeds; //!< The pool, sweep order.
    std::vector<Outcome> recorded;    //!< lab_outcomes.tsv.
    std::vector<size_t> order;        //!< Seed-chosen walk of the pool.
};

bool
loadOutcomes(std::vector<Outcome> &out, std::string *err)
{
    std::ifstream f(kOutcomesFile);
    if (!f) {
        *err = std::string("cannot read ") + kOutcomesFile;
        return false;
    }
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        size_t index = 0;
        int success = 0;
        std::string ber, precision, recall;
        Outcome o;
        if (!(row >> index >> success >> ber >> precision >> recall >>
              o.correctedErrors) ||
            index != out.size()) {
            *err = "malformed line in lab_outcomes.tsv: " + line;
            return false;
        }
        o.success = success == 1;
        o.byteErrorRate = std::strtod(ber.c_str(), nullptr);
        o.precision = std::strtod(precision.c_str(), nullptr);
        o.recall = std::strtod(recall.c_str(), nullptr);
        out.push_back(o);
    }
    if (out.size() != kPoolTrials) {
        *err = "lab_outcomes.tsv holds " + std::to_string(out.size()) +
            " trials, expected " + std::to_string(kPoolTrials);
        return false;
    }
    return true;
}

api::Result<api::Store>
openLabStore(const Lab &lab)
{
    const Scenario &s = *lab.scenario;
    api::StoreOptions store_opt;
    store_opt.config(s.config).layout(s.scheme).unitSeed(lab.unitSeed);
    api::ChannelOptions chan_opt;
    chan_opt.profile(s.channel)
        .coverage(s.makeCoverage())
        .cluster(api::ClusterOptions::fromParams(s.clusterParams));
    api::Result<api::Store> store = api::Store::open(store_opt, chan_opt);
    if (!store.ok())
        return store;
    const FileBundle payload = s.makePayload();
    for (const NamedFile &f : payload.files()) {
        const api::Status st = store->put(f.name, f.data);
        if (!st.ok())
            return st;
    }
    return store;
}

/** One trial through TrialJob; false when the job returned an error. */
bool
storeTrial(api::Store &store, const Lab &lab, size_t index, RunResult &out)
{
    api::TrialJob job;
    job.trialSeeds = { lab.trialSeeds[index] };
    job.threads = 1;
    job.useClusterer = true;
    api::Result<api::TrialSeries> series = store.submit(job).get();
    if (!series.ok() || series->trials.size() != 1) {
        out.problem("trial: " + (series.ok() ? std::string("no result")
                                             : series.status().toString()));
        return false;
    }
    if (!(outcomeOf(series->trials[0]) == lab.recorded[index]))
        out.mismatch("trial " + std::to_string(index) +
                     " outcome differs from lab_outcomes.tsv");
    return true;
}

/** Layer-level state of the traced trial, built once per run. */
struct TracedTrial
{
    TracedTrial(const Lab &lab, const FileBundle &payload)
        : scenario(*lab.scenario), unitSeed(lab.unitSeed),
          coverage(scenario.makeCoverage()), channel(scenario.channel),
          replay(scenario.config, scenario.scheme)
    {
        UnitEncoder encoder(scenario.config, scenario.scheme);
        strands = encoder.encode(payload).strands;
        stored = payload.serialize();
    }

    const Scenario &scenario;
    uint64_t unitSeed;
    CoverageModel coverage;
    ProfileChannel channel;
    DecodeReplay replay;
    std::vector<Strand> strands;
    std::vector<uint8_t> stored;
};

/**
 * StorageSimulator::runTrial with the clusterer, unrolled: the same
 * RNG stream, read soup, clustering and decode.
 */
void
tracedTrialBody(const TracedTrial &p, const Lab &lab, size_t index,
                Tracer &tracer, ReplayOutput &decoded, RunResult &out)
{
    const uint64_t trial_seed = lab.trialSeeds[index];
    Rng rng(p.unitSeed ^ (0x9e3779b97f4a7c15ULL * (trial_seed + 1)));

    std::vector<Strand> flat;
    std::vector<size_t> truth;
    {
        auto span = tracer.span("channel.soup");
        std::vector<size_t> counts(p.strands.size());
        for (size_t &c : counts)
            c = p.coverage.sample(rng);
        applyDropout(p.channel.profile().dropout, rng, counts);
        StrandArena arena;
        std::vector<size_t> first(counts.size() + 1, 0);
        size_t max_reads = 0;
        for (size_t c = 0; c < counts.size(); ++c) {
            if (counts[c] > 0)
                p.channel.generateCluster(p.strands[c], counts[c], rng, arena);
            first[c + 1] = first[c] + counts[c];
            max_reads = std::max(max_reads, counts[c]);
        }
        // Round-robin across molecules: the order a sequencer emits.
        for (size_t j = 0; j < max_reads; ++j)
            for (size_t c = 0; c < counts.size(); ++c)
                if (j < counts[c]) {
                    flat.push_back(arena.view(first[c] + j).toStrand());
                    truth.push_back(c);
                }
        tracer.count("channel.reads", double(flat.size()));
    }
    Clustering clustering;
    {
        auto span = tracer.span("cluster");
        clustering = clusterReads(flat, p.scenario.clusterParams);
    }
    const ClusterQuality q = scoreClustering(clustering, truth);
    tracer.count("cluster.clusters_found", double(clustering.count()));
    tracer.count("cluster.precision_sum", q.precision);
    tracer.count("cluster.recall_sum", q.recall);
    std::vector<std::vector<Strand>> clusters(clustering.count());
    for (size_t c = 0; c < clustering.count(); ++c)
        for (size_t r : clustering.members[c])
            clusters[c].push_back(flat[r]);

    decoded = p.replay.decode(clusters, SIZE_MAX, tracer);
    size_t bad = 0;
    for (size_t i = 0; i < p.stored.size(); ++i)
        bad += i >= decoded.rawStream.size() ||
            decoded.rawStream[i] != p.stored[i];
    const Outcome got = { bad == 0, double(bad) / double(p.stored.size()),
                          q.precision, q.recall, decoded.corrected };
    if (!(got == lab.recorded[index]))
        out.mismatch("traced trial " + std::to_string(index) +
                     " outcome differs from lab_outcomes.tsv");
}

/** The traced trial, then its syndrome timing outside the op. */
void
tracedTrial(const TracedTrial &p, const Lab &lab, size_t index,
            Tracer &tracer, RunResult &out)
{
    ReplayOutput decoded;
    {
        auto op = tracer.span("op");
        tracedTrialBody(p, lab, index, tracer, decoded, out);
    }
    p.replay.timeSyndromes(decoded, tracer);
}

bool
prepareLab(uint64_t seed, Lab &lab, std::string *err)
{
    lab.scenario = findScenario(kScenario);
    if (lab.scenario == nullptr) {
        *err = std::string("scenario ") + kScenario + " not found";
        return false;
    }
    lab.unitSeed = kSweepSeed ^ fnv1a(kScenario);
    Rng seeds(kSweepSeed ^ fnv1a(kScenario));
    lab.trialSeeds.resize(kPoolTrials);
    for (uint64_t &s : lab.trialSeeds)
        s = seeds.next();
    lab.recorded.clear();
    if (!loadOutcomes(lab.recorded, err))
        return false;
    lab.order.resize(kPoolTrials);
    for (size_t i = 0; i < kPoolTrials; ++i)
        lab.order[i] = i;
    Rng walk(mixSeed(seed, 3));
    walk.shuffle(lab.order);
    return true;
}

} // namespace

int
recordLabOutcomes(const std::string &path)
{
    const Scenario *s = findScenario(kScenario);
    if (s == nullptr)
        return 1;
    SweepOptions opt;
    opt.trials = kPoolTrials;
    opt.threads = 0;
    opt.seed = kSweepSeed;
    const ScenarioReport report = SweepRunner(opt).run(*s);
    std::ofstream f(path, std::ios::trunc);
    f << "# " << kScenario << ": outcomes of the first " << kPoolTrials
      << " sweep trials at base seed " << kSweepSeed
      << "\n# index, success, byte error rate, clustering precision and"
      << " recall, RS-corrected symbols\n"
      << "# Regenerate: perfbench --record-lab-outcomes FILE\n";
    char line[160];
    for (size_t i = 0; i < report.perTrial.size(); ++i) {
        const TrialRecord &r = report.perTrial[i];
        std::snprintf(line, sizeof line, "%zu\t%d\t%a\t%a\t%a\t%zu\n", i,
                      r.success ? 1 : 0, r.byteErrorRate, r.precision,
                      r.recall, r.correctedErrors);
        f << line;
    }
    std::printf("%s: %zu/%zu trials succeeded\n", path.c_str(),
                report.successes, report.trials);
    return f ? 0 : 1;
}

RunResult
runLab(const RunConfig &cfg)
{
    RunResult out;
    Lab lab;
    std::vector<double> setups;
    std::optional<api::Store> store;
    // Set-up: scenario, trial pool and record, store, one warm-up
    // trial (not from the walk). Repeated; the median is setup_s.
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = Clock::now();
        std::string err;
        if (!prepareLab(cfg.seed, lab, &err)) {
            out.mismatch(err);
            return out;
        }
        api::Result<api::Store> opened = openLabStore(lab);
        if (!opened.ok()) {
            out.problem("open: " + opened.status().toString());
            ++out.failed;
            return out;
        }
        store.emplace(std::move(*opened));
        if (!storeTrial(*store, lab, lab.order.back(), out)) {
            ++out.failed;
            return out;
        }
        setups.push_back(msSince(t0) / 1000.0);
    }

    const double untracedSeconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    Samples ops;
    size_t next = 0;
    const Clock::time_point start = Clock::now();
    while (msSince(start) < untracedSeconds * 1000.0) {
        const size_t index = lab.order[next++ % kPoolTrials];
        ++out.attempted;
        const Clock::time_point t0 = Clock::now();
        if (!storeTrial(*store, lab, index, out)) {
            ++out.failed;
            continue;
        }
        ops.add(msSince(t0));
    }
    const double elapsedS = msSince(start) / 1000.0;

    out.settings = {
        { "scenario", std::string("\"") + kScenario + "\"" },
        { "reads_per_trial", "1530" },
        { "trial_pool", std::to_string(kPoolTrials) },
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

    const TracedTrial traced(lab, lab.scenario->makePayload());
    Tracer tracer(true);
    {
        Tracer warm(true);
        tracedTrial(traced, lab, lab.order.back(), warm, out);
    }
    const Clock::time_point tracedStart = Clock::now();
    while (msSince(tracedStart) < cfg.seconds / 2 * 1000.0) {
        ++out.attempted;
        tracedTrial(traced, lab, lab.order[next++ % kPoolTrials], tracer, out);
    }
    if (!cfg.spansPath.empty() && !tracer.writeSpans(cfg.spansPath))
        out.problem("cannot write spans to " + cfg.spansPath);

    const auto &c = tracer.counters();
    auto counter = [&](const char *k) {
        auto it = c.find(k);
        return it == c.end() ? 0.0 : it->second;
    };
    const double n = double(std::max<size_t>(tracer.ops(), 1));
    std::map<std::string, double> extra = {
        { "cluster.precision", counter("cluster.precision_sum") / n },
        { "cluster.recall", counter("cluster.recall_sum") / n },
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
