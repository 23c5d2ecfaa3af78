/**
 * @file
 * Ablation (extension): next-block metadata prefetching. Spatial data
 * locality translates into *sequential* metadata block access (§IV-B),
 * so a trivially simple next-block prefetcher should capture streaming
 * benchmarks' metadata misses — and waste traffic on scattered ones.
 */
#include "common.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"abl_prefetch",
                    "Ablation: next-block metadata prefetching "
                    "(extension)",
                    "§IV-B (Amount of Data Protected) + §VI directions"},
                   opts);

    std::vector<Cell> cells;
    for (const std::string bench :
         {"libquantum", "streamcluster", "fft", "leslie3d", "canneal",
          "mcf"}) {
        cells.push_back({bench, 0, [=](const Cell &cell) {
            CellOutput out;
            auto cfg = defaultConfig(bench, opts, 600'000, 200'000);
            cfg.secure.prefetchNextMetadata = false;
            const auto off = runCell(opts, cfg, out, cell.id + "/off");
            cfg.secure.prefetchNextMetadata = true;
            const auto on = runCell(opts, cfg, out, cell.id + "/on");

            const auto pct = [](double a, double b) {
                return b > 0.0 ? TextTable::fmt(100.0 * (a - b) / b, 1) +
                                     "%"
                               : std::string("-");
            };
            Row row;
            row.add("benchmark", bench)
                .add("md misses (off)", off.mdCache.totalMisses())
                .add("md misses (on)", on.mdCache.totalMisses())
                .add("miss delta",
                     pct(static_cast<double>(on.mdCache.totalMisses()),
                         static_cast<double>(
                             off.mdCache.totalMisses())))
                .add("prefetches", on.controller.prefetchesIssued)
                .add("md traffic (off)",
                     off.controller.metadataMemAccesses())
                .add("md traffic (on)",
                     on.controller.metadataMemAccesses())
                .add("traffic delta",
                     pct(static_cast<double>(
                             on.controller.metadataMemAccesses()),
                         static_cast<double>(
                             off.controller.metadataMemAccesses())));
            out.add(std::move(row));
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape: streaming workloads (libquantum,\n"
        "streamcluster, fft) see large demand-miss drops at roughly\n"
        "traffic-neutral cost (the prefetch was going to be fetched\n"
        "anyway); scattered workloads (canneal, mcf) waste traffic.");
    return exp.finish();
}
