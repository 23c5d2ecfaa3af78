/**
 * @file
 * Ablation (§V-B): CSOPT — cost-sensitive optimal replacement — on
 * captured metadata traces. Reproduces the paper's two findings:
 *  1. accounting for non-uniform miss costs beats Belady's MIN in
 *     realized cost;
 *  2. the search explodes with footprint (the paper reports 32 minutes
 *     for perl and >6 days for canneal; we show state counts growing
 *     and cap the work with a beam).
 *
 * Search effort is reported as deterministic state/expansion counts
 * (wall-clock timing would vary run to run and with --jobs).
 */
#include "common.hpp"

#include <algorithm>
#include <unordered_map>

#include "offline/capture.hpp"
#include "offline/csopt.hpp"
#include "offline/min_sim.hpp"

using namespace maps;
using namespace maps::bench;

namespace {

/** Static miss cost per metadata type: a counter miss may cost a full
 * tree traversal; hashes and tree nodes cost one access. */
std::uint64_t
missCostOf(const MetadataAccess &acc, std::uint32_t tree_levels)
{
    return acc.type == MetadataType::Counter ? 1 + tree_levels : 1;
}

/** Realized cost of LRU or MIN on the fixed captured trace. */
std::uint64_t
costOf(const std::vector<CsOptAccess> &trace, std::uint32_t sets,
       std::uint32_t ways, bool use_min)
{
    std::vector<std::vector<CsOptAccess>> per_set(sets);
    for (const auto &acc : trace)
        per_set[blockIndex(acc.block) % sets].push_back(acc);
    std::uint64_t total = 0;
    for (const auto &set_trace : per_set) {
        // Direct per-set simulation charging each miss its cost
        // (min_sim reports counts, not positions).
        const std::vector<CsOptAccess> &t = set_trace;
        std::uint64_t cost = 0;
        if (use_min) {
            // next-use MIN with cost charging
            std::vector<std::uint64_t> next_use(t.size());
            std::unordered_map<Addr, std::uint64_t> upcoming;
            for (std::size_t i = t.size(); i-- > 0;) {
                const auto it = upcoming.find(t[i].block);
                next_use[i] = it == upcoming.end() ? ~std::uint64_t{0}
                                                   : it->second;
                upcoming[t[i].block] = i;
            }
            std::unordered_map<Addr, std::uint64_t> resident;
            for (std::size_t i = 0; i < t.size(); ++i) {
                const auto it = resident.find(t[i].block);
                if (it != resident.end()) {
                    it->second = next_use[i];
                    continue;
                }
                cost += t[i].missCost;
                if (resident.size() >= ways) {
                    auto victim = resident.begin();
                    for (auto c = resident.begin(); c != resident.end();
                         ++c)
                        if (c->second > victim->second)
                            victim = c;
                    resident.erase(victim);
                }
                resident.emplace(t[i].block, next_use[i]);
            }
        } else {
            // true LRU with cost charging
            std::vector<Addr> order; // MRU at back
            for (const auto &acc : t) {
                auto pos =
                    std::find(order.begin(), order.end(), acc.block);
                if (pos != order.end()) {
                    order.erase(pos);
                    order.push_back(acc.block);
                    continue;
                }
                cost += acc.missCost;
                if (order.size() >= ways)
                    order.erase(order.begin());
                order.push_back(acc.block);
            }
        }
        total += cost;
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = Options::parse(argc, argv);
    Experiment exp({"abl_csopt",
                    "Ablation: CSOPT cost-sensitive optimal replacement",
                    "§V-B (The Optimal Eviction Policy / CSOPT [10])"},
                   opts);

    // Tiny 4-way cache (the paper also runs CSOPT at 4 ways) over a
    // truncated trace so the exact search is feasible.
    const std::uint32_t sets = 16, ways = 4;
    const std::size_t trace_cap = static_cast<std::size_t>(
        10'000 * opts.scale < 2'000 ? 2'000 : 10'000 * opts.scale);

    std::vector<Cell> cells;
    for (const std::string bench :
         {"perl", "gcc", "libquantum", "canneal"}) {
        cells.push_back({bench, 0, [=](const Cell &cell) {
            auto cfg = defaultConfig(bench, opts, 300'000, 100'000);
            cfg.secure.cacheEnabled = false; // capture the raw stream
            SecureMemorySim sim(cfg);
            std::vector<MetadataAccess> stream;
            sim.setMetadataTap([&stream](const MetadataAccess &a) {
                stream.push_back(a);
            });
            const auto report = sim.run();
            if (stream.size() > trace_cap)
                stream.resize(trace_cap);

            const auto tree_levels =
                MetadataLayout(cfg.secure.layout).numTreeLevels();
            std::vector<CsOptAccess> trace;
            for (const auto &acc : stream)
                trace.push_back(
                    {acc.addr, missCostOf(acc, tree_levels)});

            const auto lru_cost = costOf(trace, sets, ways, false);
            const auto min_cost = costOf(trace, sets, ways, true);
            const auto csopt =
                solveCsOptSetAssociative(trace, sets, ways, 1u << 12);

            Row row;
            row.add("benchmark", bench)
                .add("trace len",
                     static_cast<std::uint64_t>(trace.size()))
                .add("LRU cost", lru_cost)
                .add("MIN cost", min_cost)
                .add("CSOPT cost", csopt.minCost)
                .add("CSOPT vs MIN",
                     TextTable::fmt(
                         100.0 *
                             (static_cast<double>(min_cost) -
                              static_cast<double>(csopt.minCost)) /
                             static_cast<double>(min_cost),
                         1) +
                         "%")
                .add("peak states", csopt.peakStates)
                .add("expansions", csopt.expansions)
                .add("exact", csopt.exact ? "yes" : "no (beam)");
            CellOutput out;
            out.add(std::move(row));
            addMetricsRows(opts, out, cell.id, report);
            return out;
        }});
    }
    exp.runAndEmit(cells);

    exp.note(
        "expected shape (paper): CSOPT's realized cost <= MIN's on\n"
        "every trace (often strictly better: it keeps expensive counter\n"
        "blocks); state counts (and hence runtime) grow with footprint\n"
        "— the paper's perl-in-32-minutes vs canneal->6-days effect.\n"
        "Fully optimal handling of the *varying* access stream remains\n"
        "open (iterating CSOPT did not finish for the paper either).");
    return exp.finish();
}
