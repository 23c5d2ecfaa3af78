/**
 * @file
 * Figure 7: metadata cache partitioning schemes — (i) no partition,
 * (ii) best static counter/hash split for the application, (iii) the
 * average best split across applications, (iv) dynamic set-dueling —
 * reporting ED^2 overhead over an insecure system and metadata MPKI,
 * with each application's best static split printed (the paper shows it
 * below the x-axis).
 */
#include "common.hpp"

#include "util/logging.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"fig7_partitioning",
                    "Figure 7: cache partitioning schemes",
                    "Figure 7 (§V-C, Cache Partitioning)"},
                   opts);

    const std::vector<std::string> benchmarks{
        "canneal", "cactusADM", "fft",   "leslie3d", "libquantum",
        "mcf",     "barnes",    "ocean", "radix"};
    const std::uint32_t assoc = 8;

    const auto make_cfg = [opts, assoc](const std::string &bench,
                                        bool secure) {
        auto cfg = defaultConfig(bench, opts, 400'000, 150'000);
        cfg.secure.cache.sizeBytes = 64_KiB;
        cfg.secure.cache.assoc = assoc;
        cfg.secureEnabled = secure;
        return cfg;
    };

    const auto scheme_row =
        [opts, make_cfg](const std::string &bench, PartitionScheme scheme,
                         std::uint32_t split, const Cell &cell,
                         CellOutput &metrics, estimator::CellKind kind) {
            auto cfg = make_cfg(bench, true);
            cfg.secure.cache.partition = scheme;
            cfg.secure.cache.staticCounterWays = split;
            const auto rep = runCell(opts, cfg, metrics, cell.id, kind);
            return Row{}
                .add("ed2", rep.ed2, 9)
                .add("mpki", rep.metadataMpki, 6);
        };

    // Phase 1 grid, one cell per (benchmark, variant): the insecure
    // baseline, the unpartitioned cache, every static split, and the
    // set-dueling scheme. The derived columns (best/average split) are
    // computed from the collected grid below.
    struct Variant
    {
        std::string name;
        std::function<Row(const std::string &, const Cell &,
                          CellOutput &)>
            run;
    };
    std::vector<Variant> variants;
    variants.push_back(
        {"baseline", [opts, make_cfg](const std::string &b,
                                      const Cell &cell,
                                      CellOutput &metrics) {
            const auto rep =
                runCell(opts, make_cfg(b, false), metrics, cell.id);
            return Row{}.add("ed2", rep.ed2, 9);
        }});
    variants.push_back(
        {"none", [scheme_row](const std::string &b, const Cell &cell,
                              CellOutput &metrics) {
            return scheme_row(b, PartitionScheme::None, 0, cell, metrics,
                              estimator::CellKind::Corner);
        }});
    for (std::uint32_t split = 1; split < assoc; ++split) {
        // The interior static splits may be estimated under
        // --estimator=auto; the extreme splits (1 and assoc-1) stay
        // simulated, pinning the sweep's endpoints exactly.
        const auto kind = split > 1 && split < assoc - 1
                              ? estimator::CellKind::Interior
                              : estimator::CellKind::Corner;
        variants.push_back(
            {"static" + std::to_string(split),
             [scheme_row, split, kind](const std::string &b,
                                       const Cell &cell,
                                       CellOutput &metrics) {
                 return scheme_row(b, PartitionScheme::Static, split,
                                   cell, metrics, kind);
             }});
    }
    variants.push_back(
        {"dueling", [scheme_row](const std::string &b, const Cell &cell,
                                 CellOutput &metrics) {
            return scheme_row(b, PartitionScheme::Dueling, 0, cell,
                              metrics, estimator::CellKind::Corner);
        }});

    std::vector<Cell> cells;
    for (const auto &bench : benchmarks) {
        for (const auto &variant : variants) {
            cells.push_back(
                {bench + "/" + variant.name, 0,
                 [bench, variant](const Cell &cell) {
                     // Metrics rows ride behind the figure row so the
                     // grid consumers below keep using rows.front().
                     CellOutput out;
                     CellOutput metrics;
                     out.add(variant.run(bench, cell, metrics));
                     for (auto &r : metrics.rows)
                         out.rows.push_back(std::move(r));
                     return out;
                 }});
        }
    }
    const auto outputs = exp.run(cells, "fig7/sweep");
    const auto result = [&](const std::string &bench,
                            const std::string &variant) -> const Row & {
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].id == bench + "/" + variant)
                return outputs[i].rows.front().row;
        panic("missing fig7 cell " + bench + "/" + variant);
    };

    // Best static split per benchmark, then the average best split.
    std::unordered_map<std::string, std::uint32_t> best_split;
    double split_acc = 0.0;
    for (const auto &bench : benchmarks) {
        double best = 1e300;
        for (std::uint32_t split = 1; split < assoc; ++split) {
            const double ed2 =
                result(bench, "static" + std::to_string(split))
                    .num("ed2");
            if (ed2 < best) {
                best = ed2;
                best_split[bench] = split;
            }
        }
        split_acc += best_split[bench];
    }
    const auto avg_split = static_cast<std::uint32_t>(
        split_acc / static_cast<double>(benchmarks.size()) + 0.5);

    for (const auto &bench : benchmarks) {
        const auto &none = result(bench, "none");
        const auto &best =
            result(bench, "static" + std::to_string(best_split[bench]));
        const auto &avg =
            result(bench, "static" + std::to_string(avg_split));
        const auto &dyn = result(bench, "dueling");
        const double base = result(bench, "baseline").num("ed2");
        Row row;
        row.add("benchmark", bench)
            .add("no part", none.num("ed2") / base, 3)
            .add("best static", best.num("ed2") / base, 3)
            .add("avg static", avg.num("ed2") / base, 3)
            .add("dynamic", dyn.num("ed2") / base, 3)
            .add("best split",
                 std::to_string(best_split[bench]) + "/" +
                     std::to_string(assoc - best_split[bench]))
            .add("no-part MPKI", none.num("mpki"), 1)
            .add("best-static MPKI", best.num("mpki"), 1)
            .add("dynamic MPKI", dyn.num("mpki"), 1);
        exp.emit(std::move(row));
    }

    exp.note("average best split across applications: " +
             std::to_string(avg_split) + "/" +
             std::to_string(assoc - avg_split));
    exp.note(
        "ED^2 columns are normalized to the insecure baseline (lower\n"
        "is better; 1.0 = no secure-memory overhead).\n"
        "expected shape (paper): the app-specific best static split\n"
        "helps only a few benchmarks (barnes, canneal, libquantum, mcf)\n"
        "and hurts others; the average split and the dynamic set-\n"
        "dueling scheme do not help — set sampling fails because sets\n"
        "are heterogeneous in type mix and miss cost (§V-C).");
    return exp.finish();
}
