/**
 * @file
 * Shared pieces of the dnastore benchmark: run configuration, sample
 * statistics, the span tracer behind the per-layer ledger, and the
 * result record each workload returns to main.cc.
 *
 * Every workload is a closed loop on one process: an op starts only
 * after the previous one on the same client returned. The untraced
 * run measures end-to-end metrics; the traced run (--trace 1) spends
 * half its time untraced and half with spans around each call the
 * benchmark makes into a library layer, and reports per-layer self
 * times that, with the unaccounted remainder, sum to the traced op.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point t0)
{
    return msBetween(t0, Clock::now());
}

/** What main.cc hands a workload. */
struct RunConfig
{
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;   //!< Scratch directory inside the checkout.
    std::string spansPath; //!< Where the traced run writes its spans.
    size_t nproc = 1;
};

/** Latency samples of one kind, in milliseconds. */
class Samples
{
  public:
    void add(double ms) { v_.push_back(ms); }
    void append(const Samples &o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
    size_t size() const { return v_.size(); }

    /** Nearest-rank percentile, @p p in (0, 1]; 0 when empty. */
    double percentile(double p) const;
    double median() const { return percentile(0.5); }
    double mean() const;

    /** Samples strictly above the @p p percentile's rank. */
    size_t beyond(double p) const;

  private:
    std::vector<double> v_;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * In-memory span recorder. Spans nest by scope on one thread; a
 * client thread owns its own Tracer and main merges them. Nothing is
 * written until writeSpans() at the end of the run.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        int parent = -1;
        int64_t beginNs = 0;
        int64_t endNs = 0;
        uint64_t op = 0; //!< Shared by every span of one op.
    };

    class Scope
    {
      public:
        Scope(Tracer *t, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int index_ = -1;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span that closes when the returned scope dies. */
    Scope span(const char *name) { return Scope(enabled_ ? this : nullptr, name); }

    /** Add @p v to a named counter (summed over the run). */
    void
    count(const std::string &name, double v)
    {
        if (enabled_)
            counters_[name] += v;
    }

    /** Root spans (named "op") recorded: the traced op count. */
    size_t ops() const;

    /** Durations of the root "op" spans, in ms. */
    Samples opSamples() const;

    /** Self ms summed per span name (duration minus children). */
    std::map<std::string, double> selfMs() const;

    /** Total ms summed per span name (children included). */
    std::map<std::string, double> totalMs() const;

    const std::map<std::string, double> &counters() const { return counters_; }

    /** Move another tracer's spans and counters into this one. */
    void merge(Tracer &other);

    /**
     * Write the spans of the first @p maxOps ops as TSV (op, name,
     * parent, begin, end); the ledger still covers every op.
     */
    bool writeSpans(const std::string &path, uint64_t maxOps = 2000) const;

  private:
    bool enabled_;
    uint64_t nextOp_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counters_;
};

/** What a workload returns: the outcome plus every metric it measured. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string firstProblem; //!< First check failure or op error.

    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;

    /** Run settings recorded beside the result (JSON scalars). */
    std::vector<std::pair<std::string, std::string>> settings;

    /** Human-readable ledger lines, printed before the result. */
    std::vector<std::string> ledger;

    void
    problem(const std::string &what)
    {
        if (firstProblem.empty())
            firstProblem = what;
    }

    void
    mismatch(const std::string &what)
    {
        correct = false;
        problem(what);
    }
};

/** Peak resident set (VmHWM) of this process, in MiB. */
double peakRssMb();

/** Threads of this process (/proc/self/status). */
size_t threadsLive();

/** Open file descriptors of this process (/proc/self/fd). */
size_t fdsOpen();

/** Median of a few set-up timings, in seconds. */
double medianSeconds(std::vector<double> seconds);

/**
 * The per-layer ledger every workload reports, in one fixed list: the
 * traced run's self times per op for each layer span, the counters,
 * and the tracing overhead against @p untraced. Layers a workload
 * does not exercise report 0. @p extra holds workload-specific
 * per-layer values (keyed by metric name); names not in the fixed
 * list are rejected by main.cc's output check.
 */
void fillLedger(const Tracer &traced, const Samples &untraced,
                const std::map<std::string, double> &extra,
                RunResult &out);

/** The fixed per-layer metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>> &perLayerCatalog();

/** The fixed end-to-end metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>> &endToEndCatalog();

/** splitmix64 finalizer: derive independent sub-seeds. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

RunResult runArchive(const RunConfig &cfg);
RunResult runLab(const RunConfig &cfg);
RunResult runDaemon(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
