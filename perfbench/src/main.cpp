/**
 * @file
 * Benchmark entry point: one workload per process.
 *
 *   perfbench --workload <serve_clean|serve_hostile|codesign>
 *             --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
 *
 * Human-readable progress goes to stderr. Standard output carries the
 * machine shape, one `info {...}` line of steadiness diagnostics and,
 * last, the result object {correct, attempted, failed, metrics}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. Settings the library would otherwise take from the host
 * or the environment are pinned here (artifact cache off, fixed lane
 * and job counts in the workloads).
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "support/diskcache.h"

using namespace perfbench;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<serve_clean|serve_hostile|codesign> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n");
}

bool
parseArgs(int argc, char **argv, RunOptions &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            opt.trace = std::strcmp(val, "1") == 0;
        else if (key == "--spans")
            opt.spansPath = val;
        else
            return false;
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

void
printMetrics(const std::vector<Report::Metric> &metrics)
{
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
}

/**
 * The traced run's metrics in catalog order; a layer the workload
 * did not measure reads 0.
 */
std::vector<Report::Metric>
layerMetrics(Report &rep)
{
    std::vector<Report::Metric> out;
    for (const LayerMetric &lm : layerCatalog()) {
        Report::Metric m{lm.name, 0.0, lm.unit};
        for (const Report::Metric &got : rep.layer) {
            if (got.name == lm.name)
                m.value = got.value;
        }
        out.push_back(m);
    }
    for (const Report::Metric &got : rep.layer) {
        bool known = false;
        for (const LayerMetric &lm : layerCatalog())
            known = known || got.name == lm.name;
        if (!known)
            rep.fail("per-layer metric missing from the catalog: " +
                     got.name);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    // The artifact cache would let one run replay another's work;
    // FINESSE_FAST is read only by the repository's own benches.
    unsetenv(finesse::kArtifactCacheEnv);
    unsetenv("FINESSE_FAST");
    finesse::configureArtifactCache("");

    const MachineShape shape = probeMachine();
    std::printf("machine: nproc=%u adx=%d bmi2=%d\n", shape.nproc,
                shape.adx, shape.bmi2);
    std::fflush(stdout);
    if (opt.trace)
        Tracer::get().enable();

    const uint64_t steal0 = readStealTicks();
    Report rep;
    try {
        if (opt.workload == "serve_clean")
            runServeClean(opt, rep);
        else if (opt.workload == "serve_hostile")
            runServeHostile(opt, rep);
        else if (opt.workload == "codesign")
            runCodesign(opt, rep);
        else {
            usage();
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    rep.note("steal_ticks", static_cast<double>(readStealTicks() - steal0));

    if (opt.trace) {
        const Tracer &tr = Tracer::get();
        const size_t bad = tr.nestingViolations();
        rep.note("spans", static_cast<double>(tr.spans().size()));
        rep.note("span_nesting_violations", static_cast<double>(bad));
        if (bad != 0)
            rep.fail(std::to_string(bad) + " spans outside their parent");
        if (!opt.spansPath.empty() && !tr.write(opt.spansPath))
            rep.fail("cannot write spans to " + opt.spansPath);
    }

    // The untraced run's end-to-end figures are its metrics; the
    // traced run prints its own on the info line, so the tracing
    // overhead shows against the untraced runs.
    std::printf("info {");
    for (size_t i = 0; i < rep.info.size(); ++i)
        std::printf("%s\"%s\": %.10g", i ? ", " : "",
                    rep.info[i].first.c_str(), rep.info[i].second);
    if (opt.trace) {
        for (const Report::Metric &m : rep.e2e)
            std::printf(", \"e2e.%s\": %.10g", m.name.c_str(), m.value);
    }
    std::printf("}\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    printMetrics(opt.trace ? layerMetrics(rep) : rep.e2e);
    std::printf("}}\n");
    return 0;
}
