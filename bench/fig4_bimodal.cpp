/**
 * @file
 * Figure 4: classification of metadata reuse distances into the four
 * classes (<=128 / 128-256 / 256-512 / >512 blocks) for every
 * benchmark. Classification is over the workload-driven stream
 * (counters + data hashes): tree accesses are miss-driven and would
 * otherwise flood the histogram with their (short) distances.
 */
#include "common.hpp"

#include "analysis/bimodal.hpp"
#include "analysis/reuse.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"fig4_bimodal",
                    "Figure 4: bimodal reuse-distance classes",
                    "Figure 4 (§IV-D, Bimodal Reuse Distances)"},
                   opts);

    std::vector<Cell> cells;
    for (const auto &benchmark : benchmarkNames()) {
        cells.push_back({benchmark, 0, [benchmark, opts](const Cell &cell) {
            auto cfg = defaultConfig(benchmark, opts, 1'000'000, 250'000);
            cfg.secure.cacheEnabled = false;
            SecureMemorySim sim(cfg);
            ReuseDistanceAnalyzer analyzer;
            sim.setMetadataTap(
                [&analyzer](const MetadataAccess &a) {
                    analyzer.observe(a);
                });
            const auto report = sim.run();

            ExactHistogram workload_driven;
            workload_driven.merge(
                analyzer.typeHistogram(MetadataType::Counter));
            workload_driven.merge(
                analyzer.typeHistogram(MetadataType::Hash));
            const auto fractions = classifyReuse(workload_driven);

            Row row;
            row.add("benchmark", benchmark)
                .add("<=128blk(8KB)", fractions[0], 3)
                .add("128-256", fractions[1], 3)
                .add("256-512", fractions[2], 3)
                .add(">512blk(32KB)", fractions[3], 3)
                .add("bimodality", bimodalityScore(workload_driven), 3);
            CellOutput out;
            out.add(std::move(row));
            addMetricsRows(opts, out, cell.id, report);
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape (paper): every benchmark except canneal and\n"
        "cactusADM has >=50% of accesses in the smallest class, with\n"
        "most of the remainder in the largest class (bimodality ~1.0);\n"
        "canneal and cactusADM are the exceptions.");
    return exp.finish();
}
