/**
 * @file
 * Sampled-vs-full differential gate for maps::sampling: runs a small
 * fig3-class grid twice — once exactly, once with representative-
 * interval sampling — and fails unless every validated metric of the
 * sampled run falls within its *reported* error bound, and the grid as
 * a whole simulated at least 5x fewer references than the full runs.
 *
 * This is the cross-validation leg of maps::check for the sampling
 * engine: an estimate outside its own bound means the bound math (or
 * the clustering) broke, silently. Runs under ctest (label: quick).
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/simulator.hpp"

namespace {

using namespace maps;

int g_failures = 0;

/** One validated metric: exact value vs (estimate, bound). */
void
validate(const std::string &cell, const std::string &name, double exact,
         double estimate, double bound)
{
    const double err = std::fabs(exact - estimate);
    const bool ok = err <= bound;
    std::printf("%-12s %-34s exact=%-14.4f est=%-14.4f |err|=%-12.4f "
                "bound=%-12.4f %s\n",
                cell.c_str(), name.c_str(), exact, estimate, err, bound,
                ok ? "ok" : "OUT OF BOUNDS");
    if (!ok)
        ++g_failures;
}

double
fullValueOf(const RunReport &full, const std::string &name)
{
    if (name == "hierarchy.llc.misses")
        return static_cast<double>(full.hierarchy.llcMisses);
    if (name == "derived.llc.mpki")
        return full.llcMpki;
    if (name == "derived.metadata.mpki")
        return full.metadataMpki;
    if (name == "derived.mem.accesses_per_request")
        return full.memAccessesPerRequest;
    if (name == "secmem.mem.metadata_accesses") {
        // Categories 1..3 are counter/hash/tree — the metadata traffic
        // the sampled bound covers (reencrypt and data excluded).
        double acc = 0.0;
        for (unsigned c = 1; c <= 3; ++c)
            acc += static_cast<double>(full.controller.memReads[c] +
                                       full.controller.memWrites[c]);
        return acc;
    }
    if (name.size() > 9 &&
        name.compare(name.size() - 9, 9, ".accesses") == 0)
        return static_cast<double>(full.memory.accesses());
    std::printf("unknown bound metric '%s'\n", name.c_str());
    ++g_failures;
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = runner::Options::parse(argc, argv);

    // Fig3-class cells: the figure-3 benchmark set at its (quick-run)
    // reference counts, default Table I secure-memory configuration.
    const std::vector<std::string> benchmarks{"canneal", "libquantum",
                                              "mcf", "barnes"};
    std::uint64_t full_refs = 0, sampled_refs = 0;
    for (const auto &benchmark : benchmarks) {
        SimConfig cfg = bench::defaultConfig(benchmark, opts, 1'500'000,
                                             300'000);
        cfg.measureRefs = opts.refs(375'000);
        cfg.warmupRefs = opts.refs(75'000);
        cfg.sample = {}; // the reference leg is exact whatever --sample

        const RunReport full = runBenchmark(cfg);
        if (full.sampling.enabled) {
            std::printf("full run unexpectedly sampled\n");
            return 1;
        }

        SimConfig sampled_cfg = cfg;
        const auto err =
            sampling::SampleSpec::parse("auto", sampled_cfg.sample);
        if (!err.empty()) {
            std::printf("spec parse failed: %s\n", err.c_str());
            return 1;
        }
        const RunReport sampled = runBenchmark(sampled_cfg);
        if (!sampled.sampling.enabled) {
            std::printf("sampled run did not sample\n");
            return 1;
        }
        if (sampled.sampling.bounds.empty()) {
            std::printf("sampled run reported no bounds\n");
            return 1;
        }

        full_refs += cfg.warmupRefs + cfg.measureRefs;
        sampled_refs += sampled.sampling.simulatedRefs;

        for (const auto &b : sampled.sampling.bounds)
            validate(benchmark, b.name, fullValueOf(full, b.name),
                     b.estimate, b.bound);
    }

    const double savings =
        sampled_refs ? static_cast<double>(full_refs) /
                           static_cast<double>(sampled_refs)
                     : 0.0;
    std::printf("grid: full=%llu refs, sampled=%llu refs, savings=%.2fx\n",
                static_cast<unsigned long long>(full_refs),
                static_cast<unsigned long long>(sampled_refs), savings);
    if (savings < 5.0) {
        std::printf("FAILED: sampled grid must simulate >=5x fewer "
                    "references\n");
        ++g_failures;
    }

    if (g_failures) {
        std::printf("check_sampling: %d failure(s)\n", g_failures);
        return 1;
    }
    std::printf("check_sampling: all estimates within reported bounds\n");
    return 0;
}
