/**
 * @file
 * Ablation (§IV, Table II): PoisonIvy split counters vs Intel SGX
 * monolithic counters. SGX's 8B per-block counters shrink a counter
 * block's coverage from 4KB to 512B, making counter blocks behave like
 * hash blocks (the paper notes this explicitly) — more counter blocks,
 * longer reuse distances, more metadata traffic.
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
    Experiment exp({"abl_layout",
                    "Ablation: PI split counters vs SGX monolithic "
                    "counters",
                    "§IV / Table II (counter organization)"},
                   opts);

    std::vector<Cell> cells;
    for (const std::string bench : {"canneal", "libquantum", "fft"}) {
        for (const auto mode :
             {CounterMode::SplitPi, CounterMode::MonolithicSgx}) {
            const std::string id =
                bench + "/" + counterModeName(mode);
            cells.push_back({id, 0, [=](const Cell &cell) {
                auto cfg = defaultConfig(bench, opts, 1'200'000,
                                         250'000);
                cfg.measureRefs = std::max<std::uint64_t>(
                    cfg.measureRefs, 1'000'000);
                cfg.secure.layout.counterMode = mode;

                // Reuse shape measured with the cache disabled (as in
                // Fig. 3), traffic with the default 64KB cache.
                auto nocache_cfg = cfg;
                nocache_cfg.secure.cacheEnabled = false;
                SecureMemorySim probe(nocache_cfg);
                ReuseDistanceAnalyzer analyzer;
                probe.setMetadataTap(
                    [&analyzer](const MetadataAccess &a) {
                        analyzer.observe(a);
                    });
                probe.run();

                CellOutput out;
                const auto report = runCell(opts, cfg, out, cell.id);
                const auto &ctr_hist =
                    analyzer.typeHistogram(MetadataType::Counter);
                const auto &hash_hist =
                    analyzer.typeHistogram(MetadataType::Hash);
                Row row;
                row.add("benchmark", bench)
                    .add("layout", counterModeName(mode))
                    .add("ctr blocks touched",
                         analyzer.accesses(MetadataType::Counter) -
                             ctr_hist.totalCount())
                    .add("ctr reuse<=4KB %",
                         100.0 * ctr_hist.cumulativeAtOrBelow(64), 1)
                    .add("hash reuse<=4KB %",
                         100.0 * hash_hist.cumulativeAtOrBelow(64), 1)
                    .add("md MPKI", report.metadataMpki, 1)
                    .add("mem accesses / request",
                         report.memAccessesPerRequest, 2);
                out.add(std::move(row));
                return out;
            }});
        }
    }
    exp.runAndEmit(cells);

    exp.note(
        "'ctr blocks touched' = cold (first-touch) counter blocks: 8x\n"
        "more under SGX (512B vs 4KB coverage).\n"
        "expected shape (paper): SGX counter reuse CDFs track the hash\n"
        "CDFs, and metadata traffic rises versus the split-counter\n"
        "organization.");
    return exp.finish();
}
