/**
 * @file
 * Figure 1: metadata MPKI vs metadata cache size when the cache may hold
 * (i) only counters, (ii) counters + hashes, (iii) all metadata types —
 * for canneal (caching everything wins everywhere) and libquantum
 * (hashes compete with counters at mid sizes; tree caching rescues
 * small sizes).
 */
#include <algorithm>

#include "common.hpp"

using namespace maps;
using namespace maps::bench;

namespace {

struct ContentsColumn
{
    const char *label;
    MetadataCacheConfig (*make)(std::uint64_t size);
};

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"fig1_cache_contents",
                    "Figure 1: metadata MPKI vs cache contents",
                    "Figure 1 (§II-B, Case for Caching All Metadata "
                    "Types)"},
                   opts);

    const std::vector<std::uint64_t> sizes{16_KiB,  32_KiB, 64_KiB,
                                           128_KiB, 256_KiB, 512_KiB,
                                           1_MiB,  2_MiB};
    const std::vector<ContentsColumn> contents{
        {"counters", MetadataCacheConfig::countersOnly},
        {"counters+hashes", MetadataCacheConfig::countersAndHashes},
        {"all types", MetadataCacheConfig::allTypes}};

    // One cell per (benchmark, size) point; the three contents variants
    // stay inside the cell so each table row is produced whole.
    std::vector<Cell> cells;
    for (const std::string benchmark : {"canneal", "libquantum"}) {
        for (const auto size : sizes) {
            const std::string id =
                benchmark + "/" + TextTable::fmtSize(size);
            // Interior sizes may be estimated under --estimator=auto;
            // the smallest and largest cache points stay simulated.
            const auto kind = size != sizes.front() &&
                                      size != sizes.back()
                                  ? estimator::CellKind::Interior
                                  : estimator::CellKind::Corner;
            cells.push_back({id, 0, [=](const Cell &cell) {
                CellOutput out;
                Row row;
                row.add("md cache", Value::size(size));
                for (const auto &c : contents) {
                    // libquantum's wrap-around reuse (the 4MB array)
                    // only shows after multiple full passes, so run
                    // longer.
                    auto cfg = defaultConfig(benchmark, opts, 1'800'000,
                                             400'000);
                    cfg.measureRefs = std::max<std::uint64_t>(
                        cfg.measureRefs, 1'200'000);
                    cfg.secure.cache = c.make(size);
                    const auto report = runCell(
                        opts, cfg, out, cell.id + "/" + c.label, kind);
                    row.add(c.label, report.metadataMpki, 1);
                }
                out.add("benchmark: " + benchmark, std::move(row));
                return out;
            }});
        }
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape (paper): canneal needs a much smaller cache for\n"
        "a given MPKI when all types are cacheable; libquantum shows\n"
        "hashes hurting counters at ~1MB but tree caching helping below\n"
        "512KB.");
    return exp.finish();
}
