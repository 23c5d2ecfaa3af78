/**
 * @file
 * Ablation (§VI research directions): the extension policies this repo
 * adds on top of the paper's four —
 *
 *  - cost-lru: eviction accounts for non-uniform miss costs ("the
 *    metadata cache should have an eviction policy that accounts for
 *    multiple miss costs"),
 *  - drrip / drrip-typed: reuse prediction with metadata-type
 *    information ("metadata type and access type should figure into
 *    those replacement policies"),
 *
 * compared against pseudo-LRU across metadata cache sizes, in both the
 * miss-count and the cost-weighted (memory traffic) views.
 */
#include "common.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"abl_policies",
                    "Ablation: cost-aware and type-aware policies "
                    "(extensions)",
                    "§VI (Designing a Metadata Cache — research "
                    "directions)"},
                   opts);

    const std::vector<std::string> policies{"plru", "cost-lru", "drrip",
                                            "drrip-typed", "eva-typed"};
    const std::vector<std::uint64_t> sizes{32_KiB, 64_KiB, 128_KiB};

    std::vector<Cell> cells;
    for (const std::string bench :
         {"canneal", "cactusADM", "mcf", "libquantum"}) {
        for (const auto size : sizes) {
            const std::string id =
                bench + "/" + TextTable::fmtSize(size);
            cells.push_back({id, 0, [=](const Cell &cell) {
                CellOutput out;
                Row row;
                row.add("md cache", Value::size(size));
                for (const auto &policy : policies) {
                    auto cfg = defaultConfig(bench, opts, 600'000,
                                             200'000);
                    cfg.secure.cache.sizeBytes = size;
                    cfg.secure.cache.policy = policy;
                    const auto report =
                        runCell(opts, cfg, out, cell.id + "/" + policy);
                    row.add(policy,
                            metrics::perKiloInstructions(
                                report.controller
                                    .metadataMemAccesses(),
                                report.instructions),
                            1);
                }
                out.add("benchmark: " + bench +
                            " (metadata *memory traffic* per "
                            "kilo-instruction)",
                        std::move(row));
                return out;
            }});
        }
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape: cost-lru trades extra (cheap) hash misses for\n"
        "fewer (expensive) counter misses, lowering memory traffic on\n"
        "tree-traversal-heavy workloads; typed DRRIP helps when one\n"
        "type thrashes while another has cacheable reuse.");
    return exp.finish();
}
