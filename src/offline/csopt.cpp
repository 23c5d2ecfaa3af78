#include "offline/csopt.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>

#include "util/hash.hpp"
#include "util/logging.hpp"

namespace maps {

namespace {

constexpr unsigned kMaxWays = 8;
constexpr std::uint16_t kEmpty = 0xFFFF;

/** Canonical (sorted) content of one cache set, as dense block ids. */
struct StateKey
{
    std::array<std::uint16_t, kMaxWays> blocks;

    bool operator==(const StateKey &other) const
    {
        return blocks == other.blocks;
    }
};

struct StateKeyHash
{
    std::size_t operator()(const StateKey &key) const
    {
        // FNV-1a over the packed ids, one 16-bit id per step.
        Fnv1a h;
        for (const std::uint16_t b : key.blocks)
            h.mix(b);
        return static_cast<std::size_t>(h.value());
    }
};

struct StateValue
{
    std::uint64_t cost = 0;
    std::uint64_t misses = 0;
};

bool
better(const StateValue &a, const StateValue &b)
{
    return a.cost < b.cost || (a.cost == b.cost && a.misses < b.misses);
}

using StateMap = std::unordered_map<StateKey, StateValue, StateKeyHash>;

/** Insertion sort over the first n slots (n <= kMaxWays). */
void
sortPrefix(StateKey &key, unsigned n)
{
    for (unsigned i = 1; i < n && i < kMaxWays; ++i) {
        const std::uint16_t v = key.blocks[i];
        unsigned j = i;
        while (j > 0 && key.blocks[j - 1] > v) {
            key.blocks[j] = key.blocks[j - 1];
            --j;
        }
        key.blocks[j] = v;
    }
}

} // namespace

CsOptResult
solveCsOpt(const std::vector<CsOptAccess> &trace, const CsOptConfig &cfg)
{
    fatalIf(cfg.ways == 0 || cfg.ways > kMaxWays,
            "CSOPT supports 1..8 ways");

    CsOptResult result;
    if (trace.empty())
        return result;

    // Densify block ids.
    std::unordered_map<Addr, std::uint16_t> ids;
    std::vector<std::uint16_t> access_id(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Addr block = blockAlign(trace[i].block);
        auto [it, inserted] =
            ids.emplace(block, static_cast<std::uint16_t>(ids.size()));
        fatalIf(ids.size() >= kEmpty, "CSOPT trace touches too many blocks");
        access_id[i] = it->second;
    }

    StateKey initial;
    initial.blocks.fill(kEmpty);
    StateMap states;
    states.emplace(initial, StateValue{});
    result.peakStates = 1;

    StateMap next;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint16_t block = access_id[i];
        const std::uint64_t miss_cost = trace[i].missCost;
        next.clear();

        auto upsert = [&next](const StateKey &key, const StateValue &val) {
            auto [it, inserted] = next.emplace(key, val);
            if (!inserted && better(val, it->second))
                it->second = val;
        };

        for (const auto &[key, val] : states) {
            ++result.expansions;
            const auto end =
                std::find(key.blocks.begin(), key.blocks.end(), kEmpty);
            const bool hit =
                std::find(key.blocks.begin(), end, block) != end;
            if (hit) {
                upsert(key, val);
                continue;
            }

            StateValue missed = val;
            missed.cost += miss_cost;
            missed.misses += 1;

            const auto occupied =
                static_cast<unsigned>(end - key.blocks.begin());
            if (occupied < cfg.ways) {
                StateKey grown = key;
                grown.blocks[occupied] = block;
                sortPrefix(grown, occupied + 1);
                upsert(grown, missed);
                continue;
            }

            // Branch over every eviction candidate (the heart of CSOPT:
            // no greedy choice is safe under non-uniform costs).
            for (unsigned w = 0; w < cfg.ways; ++w) {
                StateKey child = key;
                child.blocks[w] = block;
                sortPrefix(child, cfg.ways);
                upsert(child, missed);
            }
        }

        // Beam pruning when the frontier exceeds the budget.
        if (cfg.beamWidth && next.size() > cfg.beamWidth) {
            std::vector<std::pair<StateKey, StateValue>> frontier(
                next.begin(), next.end());
            std::nth_element(
                frontier.begin(), frontier.begin() + cfg.beamWidth,
                frontier.end(), [](const auto &a, const auto &b) {
                    return better(a.second, b.second);
                });
            frontier.resize(cfg.beamWidth);
            next.clear();
            next.insert(frontier.begin(), frontier.end());
            result.exact = false;
        }

        states.swap(next);
        result.peakStates = std::max(result.peakStates, states.size());
    }

    StateValue best;
    best.cost = std::numeric_limits<std::uint64_t>::max();
    for (const auto &[key, val] : states) {
        if (better(val, best))
            best = val;
    }
    result.minCost = best.cost;
    result.misses = best.misses;
    return result;
}

CsOptResult
solveCsOptSetAssociative(const std::vector<CsOptAccess> &trace,
                         std::uint32_t sets, unsigned ways,
                         std::size_t beam_width)
{
    fatalIf(sets == 0, "need at least one set");
    std::vector<std::vector<CsOptAccess>> per_set(sets);
    for (const auto &acc : trace) {
        const std::uint64_t set = blockIndex(acc.block) % sets;
        per_set[set].push_back(acc);
    }

    CsOptConfig cfg;
    cfg.ways = ways;
    cfg.beamWidth = beam_width;

    CsOptResult total;
    for (const auto &set_trace : per_set) {
        const CsOptResult r = solveCsOpt(set_trace, cfg);
        total.minCost += r.minCost;
        total.misses += r.misses;
        total.expansions += r.expansions;
        total.peakStates = std::max(total.peakStates, r.peakStates);
        total.exact = total.exact && r.exact;
    }
    return total;
}

} // namespace maps
