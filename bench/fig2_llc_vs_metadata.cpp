/**
 * @file
 * Figure 2: how to split the on-chip SRAM budget between the LLC and
 * the metadata cache. Sweeps four LLC sizes x six metadata cache sizes
 * and reports ED^2 normalized to a 2MB-LLC system *without* secure
 * memory — for the suite average (geomean) and for canneal, whose poor
 * locality flips the conclusion (§IV-A).
 */
#include <memory>
#include <unordered_map>

#include "common.hpp"
#include "util/stats.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"fig2_llc_vs_metadata",
                    "Figure 2: LLC vs metadata cache sizing (ED^2)",
                    "Figure 2 (§IV-A, Metadata Cache Size)"},
                   opts);

    const std::vector<std::uint64_t> llc_sizes{512_KiB, 1_MiB, 2_MiB,
                                               4_MiB};
    const std::vector<std::uint64_t> md_sizes{16_KiB,  64_KiB, 256_KiB,
                                              512_KiB, 1_MiB,  2_MiB};
    // Suite subset for the "average" series (runtime-bounded; see
    // EXPERIMENTS.md). Mixes memory-intensive and cache-friendly
    // benchmarks like the paper's full-suite geomean does — the
    // cache-friendly ones are what pull the average toward "spend the
    // budget on the LLC".
    const std::vector<std::string> avg_set{
        "libquantum", "fft", "leslie3d", "perl", "gcc",
        "streamcluster"};

    const auto make_cfg = [opts](const std::string &bench,
                                 std::uint64_t llc, std::uint64_t md,
                                 bool secure) {
        auto cfg = defaultConfig(bench, opts, 350'000, 140'000);
        cfg.hierarchy.llcBytes = llc;
        cfg.secure.cache.sizeBytes = md;
        cfg.secureEnabled = secure;
        return cfg;
    };

    // Phase 1: insecure 2MB-LLC baselines, one cell per benchmark.
    std::vector<std::string> baseline_set = avg_set;
    baseline_set.push_back("canneal");
    std::vector<Cell> baseline_cells;
    for (const auto &bench : baseline_set) {
        baseline_cells.push_back(
            {"baseline/" + bench, 0, [=](const Cell &cell) {
                CellOutput out;
                const auto rep =
                    runCell(opts, make_cfg(bench, 2_MiB, 16_KiB, false),
                            out, cell.id);
                out.add(Row{}.add("ed2", rep.ed2, 9));
                return out;
            }});
    }
    const auto baseline_outputs =
        exp.run(baseline_cells, "fig2/baselines");
    auto baseline_ed2 = std::make_shared<
        std::unordered_map<std::string, double>>();
    for (std::size_t i = 0; i < baseline_set.size(); ++i)
        (*baseline_ed2)[baseline_set[i]] =
            mainRow(baseline_outputs[i]).num("ed2");

    // Phase 2: the (LLC, md) grid; each cell runs the whole average set
    // plus canneal and produces one normalized row.
    std::vector<Cell> grid;
    for (const auto llc : llc_sizes) {
        for (const auto md : md_sizes) {
            const std::string id = TextTable::fmtSize(llc) + "+" +
                                   TextTable::fmtSize(md);
            // Grid interiors may be estimated under --estimator=auto;
            // the extreme rows/columns stay simulated, anchoring the
            // sweep's shape exactly where the paper reads its
            // conclusions.
            const bool interior = llc != llc_sizes.front() &&
                                  llc != llc_sizes.back() &&
                                  md != md_sizes.front() &&
                                  md != md_sizes.back();
            const auto kind = interior ? estimator::CellKind::Interior
                                       : estimator::CellKind::Corner;
            grid.push_back({id, 0, [=](const Cell &cell) {
                CellOutput out;
                std::vector<double> ratios;
                for (const auto &bench : avg_set) {
                    const auto rep =
                        runCell(opts, make_cfg(bench, llc, md, true), out,
                                cell.id + "/" + bench, kind);
                    ratios.push_back(rep.ed2 / baseline_ed2->at(bench));
                }
                const double avg = geometricMean(ratios);
                const auto canneal_rep =
                    runCell(opts, make_cfg("canneal", llc, md, true), out,
                            cell.id + "/canneal", kind);
                const double canneal =
                    canneal_rep.ed2 / baseline_ed2->at("canneal");

                Row row;
                row.add("LLC", Value::size(llc))
                    .add("md cache", Value::size(md))
                    .add("total SRAM", Value::size(llc + md))
                    .add("avg ED^2 (norm)", avg, 3)
                    .add("canneal ED^2 (norm)", canneal, 3);
                out.add(std::move(row));
                return out;
            }});
        }
    }
    const auto outputs = exp.runAndEmit(grid, "fig2/grid");

    double best_avg = 1e300, best_canneal = 1e300;
    std::string best_avg_cfg, best_canneal_cfg;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto &row = mainRow(outputs[i]);
        if (row.num("avg ED^2 (norm)") < best_avg) {
            best_avg = row.num("avg ED^2 (norm)");
            best_avg_cfg = grid[i].id;
        }
        if (row.num("canneal ED^2 (norm)") < best_canneal) {
            best_canneal = row.num("canneal ED^2 (norm)");
            best_canneal_cfg = grid[i].id;
        }
    }

    exp.note("best average config: " + best_avg_cfg + " (" +
             TextTable::fmt(best_avg, 3) + "); best canneal config: " +
             best_canneal_cfg + " (" + TextTable::fmt(best_canneal, 3) +
             ")");
    exp.note(
        "expected shape (paper): for the average workload, spending the\n"
        "budget on LLC wins (big LLC + small metadata cache); canneal\n"
        "prefers trading LLC for metadata cache (512KB+512KB beats\n"
        "1MB+16KB at similar budgets).");
    return exp.finish();
}
