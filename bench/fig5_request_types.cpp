/**
 * @file
 * Figure 5: reuse-distance CDFs split by request transition (RAR, RAW,
 * WAR, WAW) and metadata type, for the two memory-intensive benchmarks
 * with the most writes: fft (20%) and leslie3d (5%).
 */
#include "common.hpp"

#include <algorithm>

#include "analysis/reuse.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"fig5_request_types",
                    "Figure 5: reuse CDF by request transition x "
                    "metadata type",
                    "Figure 5 (§IV-E, Request Types)"},
                   opts);

    const std::vector<std::uint64_t> points{512,    4_KiB,  16_KiB,
                                            64_KiB, 256_KiB, 1_MiB,
                                            4_MiB,  16_MiB};
    const std::vector<ReuseTransition> transitions{
        ReuseTransition::ReadAfterRead, ReuseTransition::ReadAfterWrite,
        ReuseTransition::WriteAfterRead,
        ReuseTransition::WriteAfterWrite};

    std::vector<Cell> cells;
    for (const std::string benchmark : {"fft", "leslie3d"}) {
        cells.push_back({benchmark, 0, [=](const Cell &cell) {
            auto cfg = defaultConfig(benchmark, opts, 1'500'000,
                                     300'000);
            // Metadata *writes* only exist once dirty lines leave the
            // LLC; keep enough references to evict even at --quick.
            cfg.measureRefs = std::max<std::uint64_t>(cfg.measureRefs,
                                                      1'200'000);
            cfg.secure.cacheEnabled = false;
            SecureMemorySim sim(cfg);
            ReuseDistanceAnalyzer analyzer;
            sim.setMetadataTap(
                [&analyzer](const MetadataAccess &a) {
                    analyzer.observe(a);
                });
            const auto report = sim.run();

            CellOutput out;
            for (const auto type :
                 {MetadataType::Counter, MetadataType::Hash,
                  MetadataType::TreeNode}) {
                const std::string section =
                    "benchmark: " + benchmark + ", " +
                    metadataTypeName(type);
                for (const auto t : transitions) {
                    const auto &hist =
                        analyzer.transitionHistogram(type, t);
                    Row row;
                    row.add(std::string(metadataTypeName(type)) +
                                " \\ <=",
                            reuseTransitionName(t));
                    for (const auto p : points) {
                        if (hist.totalCount())
                            row.add(TextTable::fmtSize(p),
                                    100.0 * hist.cumulativeAtOrBelow(
                                                p / kBlockSize),
                                    1);
                        else
                            row.add(TextTable::fmtSize(p), "-");
                    }
                    row.add("samples", hist.totalCount());
                    out.add(section, std::move(row));
                }
            }
            addMetricsRows(opts, out, cell.id, report);
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape (paper): same-direction transitions (RAR, WAW)\n"
        "show shorter reuse than cross-direction ones; WAW shortest for\n"
        "hashes (the §IV-E motivation for partial writes).");
    return exp.finish();
}
