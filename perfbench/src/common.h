/**
 * @file
 * Shared pieces of the end-to-end benchmark: timing and quantile
 * helpers, the per-run report (correctness, operation counts, named
 * metrics), the in-memory span tracer of the traced run, and the
 * machine-shape probe printed with every run.
 */
#ifndef FINESSE_PERFBENCH_COMMON_H_
#define FINESSE_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/** Linearly interpolated quantile (q in [0, 1]) of a non-empty sample. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &v);

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansPath; ///< where the traced run writes its spans
};

/** Everything one run prints: verdict, operation counts, metrics. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0; ///< operations that hit the named known fault

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> e2e;   ///< printed by the untraced run
    std::vector<Metric> layer; ///< printed by the traced run
    /** Diagnostics for the steadiness tool (not metrics). */
    std::vector<std::pair<std::string, double>> info;

    void
    addE2e(const std::string &name, double value, const std::string &unit)
    {
        e2e.push_back({name, value, unit});
    }

    void
    addLayer(const std::string &name, double value,
             const std::string &unit)
    {
        layer.push_back({name, value, unit});
    }

    void
    note(const std::string &name, double value)
    {
        info.emplace_back(name, value);
    }

    /** Record a failed output check; the run then reports incorrect. */
    void fail(const std::string &why);
};

/**
 * In-memory span recorder of the traced run. A span is a named
 * interval with the span that was open on the same thread when it
 * began as its parent, and a request or batch id. Spans stay in
 * memory until write(), so recording costs one clock read and one
 * vector append under a lock. Disabled (the untraced run), every
 * call returns at once.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0; ///< seconds since the tracer was enabled
        double end = -1;
        long parent = -1; ///< index of the parent span, -1 = root
        uint64_t id = 0;  ///< request or batch id (0 = none)
    };

    static Tracer &get();

    void enable();
    bool enabled() const { return enabled_; }

    /** Open a span on this thread; returns its index (-1 if disabled). */
    long begin(const std::string &name, uint64_t id);
    void end(long index);

    /**
     * Record an interval measured elsewhere (a request that began on
     * one thread and ended on another); returns its index.
     */
    long record(const std::string &name, uint64_t id,
                Clock::time_point start, Clock::time_point end,
                long parent);

    /** Spans recorded so far (call after every thread has finished). */
    const std::vector<Span> &spans() const { return spans_; }

    /** Mean duration (s) of the closed spans named @p name; 0 if none. */
    double meanSeconds(const std::string &name) const;

    /**
     * Children that start before or end after their parent (0 for a
     * well-formed trace).
     */
    size_t nestingViolations() const;

    /**
     * Write every span as one JSON object per line, then print each
     * name's count, total and self time (duration minus the part its
     * children cover) to stderr. Returns false if the file could not
     * be written.
     */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when tracing is off. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const std::string &name, uint64_t id = 0)
        : index_(Tracer::get().enabled() ? Tracer::get().begin(name, id)
                                         : -1)
    {}

    ~ScopedSpan()
    {
        if (index_ >= 0)
            Tracer::get().end(index_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    long index_;
};

/** Seconds taken by @p fn, recorded as one span. */
template <typename Fn>
double
timeSpan(const std::string &name, uint64_t id, Fn &&fn)
{
    ScopedSpan s(name, id);
    const auto t0 = Clock::now();
    fn();
    return secondsSince(t0);
}

/** Host shape printed with every run. */
struct MachineShape
{
    unsigned nproc = 0;
    bool adx = false;
    bool bmi2 = false;
};

MachineShape probeMachine();

/** Name and unit of one per-layer metric. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};

/**
 * Every per-layer metric, in print order. A traced run prints all of
 * them; a layer its workload never calls reads 0.
 */
const std::vector<LayerMetric> &layerCatalog();

/** Summed CPU steal ticks of all CPUs from /proc/stat (0 if unreadable). */
uint64_t readStealTicks();

/** Peak resident set size of this process, MiB. */
double peakRssMiB();

/** splitmix64 finalizer: derives independent sub-seeds from one seed. */
inline uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// Workloads (each fills @p rep; throws on a setup failure).
void runServeClean(const RunOptions &opt, Report &rep);
void runServeHostile(const RunOptions &opt, Report &rep);
void runCodesign(const RunOptions &opt, Report &rep);

} // namespace perfbench

#endif // FINESSE_PERFBENCH_COMMON_H_
