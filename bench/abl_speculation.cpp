/**
 * @file
 * Ablation (§III): speculation on/off. The paper states its Figure 2
 * trends hold with and without speculation; this harness quantifies
 * the delay gap and checks the sizing conclusion is unchanged.
 */
#include "common.hpp"

using namespace maps;
using namespace maps::bench;

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"abl_speculation",
                    "Ablation: speculative use of unverified data",
                    "§III (Simulation Methodologies) + PoisonIvy [12]"},
                   opts);

    const char *trend_section =
        "Figure-2 trend without speculation (1MB+16KB vs "
        "512KB+512KB):";

    std::vector<Cell> cells;
    for (const std::string bench :
         {"canneal", "libquantum", "fft", "mcf", "leslie3d"}) {
        cells.push_back({bench, 0, [=](const Cell &cell) {
            CellOutput out;
            auto cfg = defaultConfig(bench, opts, 500'000, 150'000);
            cfg.secure.speculation = true;
            const auto spec = runCell(opts, cfg, out, cell.id + "/spec");
            cfg.secure.speculation = false;
            const auto nospec = runCell(opts, cfg, out, cell.id + "/nospec");
            Row row;
            row.add("benchmark", bench)
                .add("cycles (spec)", spec.cycles)
                .add("cycles (no spec)", nospec.cycles)
                .add("slowdown",
                     static_cast<double>(nospec.cycles) /
                         static_cast<double>(spec.cycles),
                     2)
                .add("avg read lat (spec)",
                     spec.controller.avgReadLatency(), 0)
                .add("avg read lat (no spec)",
                     nospec.controller.avgReadLatency(), 0)
                .add("ED^2 ratio", nospec.ed2 / spec.ed2, 2);
            out.add(std::move(row));
            return out;
        }});
    }
    // Trend check: does the Figure-2 conclusion (bigger LLC beats
    // bigger metadata cache for the average; reversed for canneal)
    // survive without speculation?
    for (const std::string bench : {"libquantum", "canneal"}) {
        cells.push_back({"trend/" + bench, 0, [=](const Cell &cell) {
            CellOutput out;
            auto big_llc = defaultConfig(bench, opts, 400'000, 150'000);
            big_llc.secure.speculation = false;
            big_llc.hierarchy.llcBytes = 1_MiB;
            big_llc.secure.cache.sizeBytes = 16_KiB;
            const auto a = runCell(opts, big_llc, out, cell.id + "/big-llc");

            auto big_md = big_llc;
            big_md.hierarchy.llcBytes = 512_KiB;
            big_md.secure.cache.sizeBytes = 512_KiB;
            const auto b = runCell(opts, big_md, out, cell.id + "/big-md");
            Row row;
            row.add("benchmark", bench)
                .add("big-LLC ED^2", a.ed2, 6)
                .add("big-md ED^2", b.ed2, 6)
                .add("winner", a.ed2 < b.ed2 ? "big LLC"
                                             : "big md cache");
            out.add(trend_section, std::move(row));
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape (paper): verification latency hidden when\n"
        "speculating; the general sizing trends are the same either\n"
        "way, with canneal still preferring metadata capacity.");
    return exp.finish();
}
