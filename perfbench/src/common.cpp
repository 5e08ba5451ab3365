#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

void
Report::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

// ------------------------------------------------------------------ tracer

namespace {

thread_local std::vector<long> t_openSpans;

} // namespace

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::enable()
{
    origin_ = Clock::now();
    enabled_ = true;
}

long
Tracer::begin(const std::string &name, uint64_t id)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = t_openSpans.empty() ? -1 : t_openSpans.back();
    long index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = static_cast<long>(spans_.size());
        s.start = secondsSince(origin_);
        spans_.push_back(std::move(s));
    }
    t_openSpans.push_back(index);
    return index;
}

void
Tracer::end(long index)
{
    const double now = secondsSince(origin_);
    t_openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end = now;
}

long
Tracer::record(const std::string &name, uint64_t id, Clock::time_point start,
               Clock::time_point end, long parent)
{
    Span s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.start = secondsBetween(origin_, start);
    s.end = secondsBetween(origin_, end);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return static_cast<long>(spans_.size() - 1);
}

double
Tracer::meanSeconds(const std::string &name) const
{
    double total = 0;
    size_t n = 0;
    for (const Span &s : spans_) {
        if (s.name == name && s.end >= 0) {
            total += s.end - s.start;
            ++n;
        }
    }
    return n ? total / static_cast<double>(n) : 0.0;
}

size_t
Tracer::nestingViolations() const
{
    size_t bad = 0;
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        const Span &p = spans_[static_cast<size_t>(s.parent)];
        if (s.end < 0 || p.end < 0 || s.start < p.start || s.end > p.end)
            ++bad;
    }
    return bad;
}

bool
Tracer::write(const std::string &path) const
{
    // Children of one parent run on the parent's thread, one after
    // another, so the part of the parent they cover is the sum of
    // their durations.
    std::vector<double> childSeconds(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childSeconds[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    struct Totals
    {
        size_t count = 0;
        double total = 0, self = 0;
    };
    std::map<std::string, Totals> byName;
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double dur = s.end - s.start;
        Totals &t = byName[s.name];
        t.count++;
        t.total += dur;
        t.self += dur - childSeconds[i];
        if (out) {
            out << "{\"i\": " << i << ", \"name\": \"" << s.name
                << "\", \"start\": " << s.start << ", \"end\": " << s.end
                << ", \"parent\": " << s.parent << ", \"id\": " << s.id
                << "}\n";
        }
    }
    std::fprintf(stderr, "%-34s %8s %12s %12s\n", "span", "count",
                 "total ms", "self ms");
    for (const auto &[name, t] : byName) {
        std::fprintf(stderr, "%-34s %8zu %12.3f %12.3f\n", name.c_str(),
                     t.count, t.total * 1e3, t.self * 1e3);
    }
    return static_cast<bool>(out);
}

// ----------------------------------------------------------------- catalog

const std::vector<LayerMetric> &
layerCatalog()
{
    static const std::vector<LayerMetric> catalog = {
        {"bigint.mont_mul_ns", "ns"},
        {"field.fp_mul_ns", "ns"},
        {"field.fp_sqr_ns", "ns"},
        {"field.fp_inv_ns", "ns"},
        {"field.fp2_mul_ns", "ns"},
        {"field.fp12_mul_us", "us"},
        {"field.fp12_sqr_us", "us"},
        {"curve.g1_mul128_us", "us"},
        {"curve.g1_to_affine_batch_us", "us"},
        {"pairing.miller_ms", "ms"},
        {"pairing.product_ms", "ms"},
        {"pairing.final_exp_ms", "ms"},
        {"serve.reduce_us", "us"},
        {"serve.rlc_batch_ms", "ms"},
        {"serve.bisect_batch_ms", "ms"},
        {"serve.single_ms", "ms"},
        {"serve.miller_per_request", "count"},
        {"serve.batch_size_mean", "count"},
        {"serve.products_per_batch", "count"},
        {"serve.bisect_splits", "count"},
        {"serve.open_p50_ms", "ms"},
        {"serve.open_p99_ms", "ms"},
        {"core.curve_handle_s", "s"},
        {"compiler.codegen_s", "s"},
        {"compiler.iropt_s", "s"},
        {"compiler.compile_s", "s"},
        {"compiler.compile_p50_ms", "ms"},
        {"compiler.instrs_traced", "count"},
        {"compiler.instrs_optimized", "count"},
        {"compiler.trace_prep_ms", "ms"},
        {"compiler.bankalloc_ms", "ms"},
        {"compiler.packsched_ms", "ms"},
        {"compiler.regalloc_ms", "ms"},
        {"isa.encode_ms", "ms"},
        {"sim.cycle_ms", "ms"},
        {"hwmodel.area_us", "us"},
        {"sim.cycles_geomean", "cycles"},
        {"sim.ipc_geomean", "instr/cycle"},
        {"sim.bubbles_geomean", "cycles"},
        {"dse.frontend_s", "s"},
        {"dse.backend_s", "s"},
        {"dse.points_per_s", "1/s"},
        {"dse.trace_keys", "count"},
        {"dse.trace_cache_hit_ratio", "ratio"},
        {"dse.coalesced", "count"},
        {"dse.best_thpt_per_area", "1/s/mm2"},
    };
    return catalog;
}

// ----------------------------------------------------------------- machine

MachineShape
probeMachine()
{
    MachineShape m;
    m.nproc = std::thread::hardware_concurrency();
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("flags", 0) != 0)
            continue;
        std::istringstream words(line);
        std::string w;
        while (words >> w) {
            m.adx = m.adx || w == "adx";
            m.bmi2 = m.bmi2 || w == "bmi2";
        }
        break;
    }
    return m;
}

uint64_t
readStealTicks()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t field[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0;
    for (uint64_t &f : field) {
        if (!(in >> f))
            return 0;
    }
    return field[7]; // user nice system idle iowait irq softirq steal
}

double
peakRssMiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
