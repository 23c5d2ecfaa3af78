/**
 * @file
 * Figure 6: metadata cache misses (MPKI) for pseudo-LRU, EVA, Belady's
 * MIN (stale future knowledge from a true-LRU profiling run) and
 * iterMIN (MIN iterated to a fixed point), on a 64KB metadata cache.
 *
 * Extension columns: true LRU, SRRIP, and per-type-classified EVA.
 *
 * The paper's result: no policy wins everywhere, and MIN / iterMIN are
 * frequently *worse* than pseudo-LRU because the access stream depends
 * on cache contents and miss costs are non-uniform (§V).
 */
#include "common.hpp"

#include "cache/policy_belady.hpp"
#include "offline/itermin.hpp"

using namespace maps;
using namespace maps::bench;

namespace {

struct PolicyRun
{
    std::uint64_t misses = 0;
    std::uint64_t mdMemAccesses = 0;
    InstCount instructions = 1;

    double mpki() const
    {
        return 1000.0 * static_cast<double>(misses) /
               static_cast<double>(instructions);
    }
    /** Memory accesses are the cost-weighted view: a counter miss can
     * trigger a whole tree traversal (§V's non-uniform miss costs). */
    double trafficMpki() const
    {
        return 1000.0 * static_cast<double>(mdMemAccesses) /
               static_cast<double>(instructions);
    }
};

PolicyRun
runPolicy(const Options &opts, const SimConfig &base,
          std::unique_ptr<ReplacementPolicy> policy,
          std::vector<Addr> *trace_out, CellOutput *metrics_out = nullptr,
          const std::string &metrics_label = "")
{
    SimConfig cfg = base;
    SecureMemorySim sim(cfg, std::move(policy));
    if (trace_out) {
        sim.setMetadataTap(
            [trace_out](const MetadataAccess &a) {
                trace_out->push_back(a.addr);
            },
            /*include_warmup=*/true);
    }
    const auto report = sim.run();
    if (metrics_out)
        addMetricsRows(opts, *metrics_out, metrics_label, report);
    return {report.mdCache.totalMisses(),
            report.controller.metadataMemAccesses(),
            report.instructions};
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"fig6_eviction_policies",
                    "Figure 6: eviction policies on a 64KB metadata "
                    "cache",
                    "Figure 6 (§V-A/B, Eviction Policies / Optimal "
                    "Eviction)"},
                   opts);

    const std::vector<std::string> benchmarks{
        "canneal", "cactusADM", "fft",  "leslie3d",
        "libquantum", "mcf",   "barnes"};
    const char *kCountSection =
        "metadata cache miss MPKI (count view):";
    const char *kTrafficSection =
        "metadata *memory accesses* per kilo-instruction "
        "(cost-weighted view;\na counter miss can trigger a whole tree "
        "traversal):";

    // One cell per benchmark: the online policies are independent runs,
    // but MIN/iterMIN consume the profiling trace sequentially, so the
    // whole policy set stays inside the cell.
    std::vector<Cell> cells;
    for (const auto &benchmark : benchmarks) {
        cells.push_back({benchmark, 0, [=](const Cell &cell) {
            auto base = defaultConfig(benchmark, opts, 1'000'000,
                                      300'000);
            base.secure.cache.sizeBytes = 64_KiB; // paper's Fig. 6 point

            // Registry rows per policy run, appended after the figure
            // rows so consumers can keep using rows.front().
            CellOutput metrics;
            const auto plru =
                runPolicy(opts, base, makeReplacementPolicy("plru"), nullptr,
                          &metrics, cell.id + "/plru");
            const auto eva =
                runPolicy(opts, base, makeReplacementPolicy("eva"), nullptr,
                          &metrics, cell.id + "/eva");
            const auto lru =
                runPolicy(opts, base, makeReplacementPolicy("lru"), nullptr,
                          &metrics, cell.id + "/lru");
            const auto srrip =
                runPolicy(opts, base, makeReplacementPolicy("srrip"), nullptr,
                          &metrics, cell.id + "/srrip");
            const auto eva_typed =
                runPolicy(opts, base, makeReplacementPolicy("eva-typed"),
                          nullptr, &metrics, cell.id + "/eva-typed");

            // MIN and iterMIN via the fixed-point driver: iteration 0
            // is the true-LRU profiling run, iteration 1 is the paper's
            // MIN.
            std::vector<PolicyRun> iterations;
            IterMinDriver driver;
            const auto simulate =
                [&](std::unique_ptr<ReplacementPolicy> policy,
                    std::vector<Addr> &trace_out) -> std::uint64_t {
                const auto run = runPolicy(
                    opts, base, std::move(policy), &trace_out, &metrics,
                    cell.id + "/min.iter" +
                        std::to_string(iterations.size()));
                iterations.push_back(run);
                return run.misses;
            };
            const auto iter = driver.run(simulate, "lru", 3);
            const PolicyRun min_run =
                iterations.size() > 1 ? iterations[1] : PolicyRun{};
            const PolicyRun itermin_run = iterations.back();
            const double divergence =
                iter.divergencesPerIteration.size() > 1
                    ? static_cast<double>(
                          iter.divergencesPerIteration[1])
                    : 0.0;

            Row counts;
            counts.add("benchmark", benchmark)
                .add("pseudo-LRU", plru.mpki(), 1)
                .add("EVA", eva.mpki(), 1)
                .add("MIN", min_run.mpki(), 1)
                .add("iterMIN", itermin_run.mpki(), 1)
                .add("trueLRU*", lru.mpki(), 1)
                .add("SRRIP*", srrip.mpki(), 1)
                .add("EVA-typed*", eva_typed.mpki(), 1)
                .add("MIN divergence", divergence, 0);
            Row traffic;
            traffic.add("benchmark", benchmark)
                .add("pseudo-LRU", plru.trafficMpki(), 1)
                .add("EVA", eva.trafficMpki(), 1)
                .add("MIN", min_run.trafficMpki(), 1)
                .add("iterMIN", itermin_run.trafficMpki(), 1)
                .add("trueLRU*", lru.trafficMpki(), 1)
                .add("SRRIP*", srrip.trafficMpki(), 1)
                .add("EVA-typed*", eva_typed.trafficMpki(), 1);

            CellOutput out;
            out.add(kCountSection, std::move(counts));
            out.add(kTrafficSection, std::move(traffic));
            for (auto &r : metrics.rows)
                out.rows.push_back(std::move(r));
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "(*) extension columns beyond the paper's four policies.\n"
        "expected shape (paper): no single winner; MIN and iterMIN do\n"
        "not beat pseudo-LRU consistently (stale future knowledge +\n"
        "uniform-cost assumption: MIN minimizes miss *count* while the\n"
        "cost-weighted view shows the expensive counter misses it\n"
        "trades for cheap hash hits); EVA suffers from bimodal reuse.\n"
        "'MIN divergence' counts live accesses that differed from the\n"
        "profiling trace MIN's oracle was built from.");
    return exp.finish();
}
