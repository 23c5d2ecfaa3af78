/**
 * @file
 * Figure 3: cumulative distribution of metadata reuse distance, split by
 * metadata type, for the six representative benchmarks, under a 2MB LLC
 * with no metadata cache. Distances are reported in bytes (distinct
 * 64B metadata blocks x 64), with the paper's 288KB marker (nine
 * metadata blocks per page x 2MB/4KB pages).
 */
#include "common.hpp"

#include "analysis/reuse.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"fig3_reuse_cdf",
                    "Figure 3: reuse distance CDF per metadata type",
                    "Figure 3 (§IV-C, Reuse Distance)"},
                   opts);

    // CDF sample points in bytes.
    const std::vector<std::uint64_t> points{
        512,     1_KiB,   4_KiB,  16_KiB, 64_KiB,
        288_KiB, 1_MiB,   4_MiB,  16_MiB, 64_MiB};

    std::vector<Cell> cells;
    for (const std::string &benchmark : figure3Benchmarks()) {
        cells.push_back({benchmark, 0, [=](const Cell &cell) {
            auto cfg = defaultConfig(benchmark, opts, 1'500'000,
                                     300'000);
            cfg.secure.cacheEnabled = false; // paper: no metadata cache
            SecureMemorySim sim(cfg);
            ReuseDistanceAnalyzer analyzer;
            sim.setMetadataTap(
                [&analyzer](const MetadataAccess &a) {
                    analyzer.observe(a);
                });
            const auto report = sim.run();

            const std::string section =
                "benchmark: " + benchmark + " (LLC MPKI " +
                TextTable::fmt(report.llcMpki, 1) + ")";
            CellOutput out;
            for (const auto type :
                 {MetadataType::Counter, MetadataType::TreeNode,
                  MetadataType::Hash}) {
                const auto &hist = analyzer.typeHistogram(type);
                Row row;
                row.add("type \\ dist<=", metadataTypeName(type));
                for (const auto p : points) {
                    row.add(TextTable::fmtSize(p),
                            100.0 * hist.cumulativeAtOrBelow(
                                        p / kBlockSize),
                            1);
                }
                out.add(section, std::move(row));
            }
            addMetricsRows(opts, out, cell.id, report);
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape (paper): tree nodes shortest (~90% <= 4KB);\n"
        "canneal counters ~50% beyond 1MB; libquantum counters >90%\n"
        "<= 4KB; libquantum hashes ~87.5% short with the rest at the\n"
        "4MB array size; slight rises near the 288KB marker.");
    return exp.finish();
}
