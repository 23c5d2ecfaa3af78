/**
 * @file
 * Ablation (§IV-E): partial writes for hash blocks. A hash write that
 * misses inserts a placeholder carrying just the new hash; the fill
 * read is saved iff the block completes before eviction. The paper
 * predicts modest but real savings on write-heavy workloads because
 * WAW reuse distances are short.
 */
#include <algorithm>

#include "common.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"abl_partial_writes",
                    "Ablation: partial writes for hash blocks",
                    "§IV-E (Request Types / partial writes)"},
                   opts);

    std::vector<Cell> cells;
    for (const std::string bench :
         {"fft", "lbm", "leslie3d", "radix", "libquantum", "canneal"}) {
        cells.push_back({bench, 0, [=](const Cell &cell) {
            auto cfg = defaultConfig(bench, opts, 1'200'000, 250'000);
            // Hash writes require dirty LLC evictions; keep enough refs
            // to generate them even at --quick.
            cfg.measureRefs = std::max<std::uint64_t>(cfg.measureRefs,
                                                      1'000'000);
            CellOutput out;
            cfg.secure.cache.partialWrites = false;
            const auto off = runCell(opts, cfg, out, cell.id + "/off");

            cfg.secure.cache.partialWrites = true;
            const auto on = runCell(opts, cfg, out, cell.id + "/on");

            const auto hash_reads_off =
                off.controller
                    .memReads[static_cast<int>(MemCategory::Hash)];
            const auto hash_reads_on =
                on.controller
                    .memReads[static_cast<int>(MemCategory::Hash)];
            const double write_frac =
                off.refs
                    ? 100.0 *
                          static_cast<double>(
                              off.hierarchy.llcWritebacks) /
                          static_cast<double>(off.controller.requests())
                    : 0.0;
            const double saved =
                hash_reads_off
                    ? 100.0 *
                          (static_cast<double>(hash_reads_off) -
                           static_cast<double>(hash_reads_on)) /
                          static_cast<double>(hash_reads_off)
                    : 0.0;
            Row row;
            row.add("benchmark", bench)
                .add("writes%", write_frac, 1)
                .add("hash mem reads (off)", hash_reads_off)
                .add("hash mem reads (on)", hash_reads_on)
                .add("saved%", saved, 1)
                .add("placeholders", on.mdCache.placeholderInserts)
                .add("completed", on.mdCache.partialCompletions)
                .add("evicted incomplete",
                     on.mdCache.incompleteEvictions)
                .add("md MPKI off", off.metadataMpki, 1)
                .add("md MPKI on", on.metadataMpki, 1);
            out.add(std::move(row));
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape (paper): write-heavy workloads (fft 20%, lbm)\n"
        "save a modest fraction of hash fill reads; savings require the\n"
        "block to complete before eviction, so read-heavy streams see\n"
        "little change.");
    return exp.finish();
}
