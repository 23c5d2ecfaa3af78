/**
 * @file
 * Analytic-vs-sim differential gate for the estimator seam
 * (core/estimator.hpp): evaluates a fig2-class (LLC x metadata-cache)
 * grid with both tiers and fails unless
 *
 *  - every metric the analytic tier discloses a tolerance for lands
 *    within that tolerance of the exact simulation, on every matched
 *    cell (|est - sim| <= tol * max(|sim|, |est|) — the same formula
 *    the tolerance rows advertise), and
 *  - the analytic tier evaluates the whole grid at least 20x faster
 *    than full simulation would (sim cost extrapolated from the timed
 *    tolerance-leg cells, profiling + anchor runs charged to the
 *    analytic side).
 *
 * This is the cross-validation leg of maps::check for the estimator:
 * an estimate outside its own disclosed tolerance means the stream
 * model (or its calibration) broke, silently. The tolerances are read
 * from the emitted bounds, never duplicated here. Runs under ctest
 * (label: quick).
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/estimator.hpp"
#include "core/simulator.hpp"

namespace {

using namespace maps;
using Clock = std::chrono::steady_clock;

int g_failures = 0;

/** One validated metric: exact value vs (estimate, tolerance). */
void
validate(const std::string &cell, const std::string &name, double exact,
         double estimate, double tol)
{
    const double err = std::fabs(exact - estimate);
    const double bound =
        tol * std::max(std::fabs(exact), std::fabs(estimate));
    const bool ok = err <= bound;
    std::printf("%-24s %-32s sim=%-14.4g est=%-14.4g rel=%-8.3f "
                "tol=%-6.2f %s\n",
                cell.c_str(), name.c_str(), exact, estimate,
                bound > 0.0 ? err / std::max(std::fabs(exact),
                                             std::fabs(estimate))
                            : 0.0,
                tol, ok ? "ok" : "OUT OF TOLERANCE");
    if (!ok)
        ++g_failures;
}

double
simValueOf(const RunReport &sim, const std::string &name)
{
    if (name == "hierarchy.llc.misses")
        return static_cast<double>(sim.hierarchy.llcMisses);
    if (name == "derived.llc.mpki")
        return sim.llcMpki;
    if (name == "derived.metadata.mpki")
        return sim.metadataMpki;
    if (name == "derived.mem.accesses_per_request")
        return sim.memAccessesPerRequest;
    if (name == "derived.cycles")
        return static_cast<double>(sim.cycles);
    if (name == "derived.ed2")
        return sim.ed2;
    if (name.size() > 9 &&
        name.compare(name.size() - 9, 9, ".accesses") == 0)
        return static_cast<double>(sim.memory.accesses());
    std::printf("unknown tolerance metric '%s'\n", name.c_str());
    ++g_failures;
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = runner::Options::parse(argc, argv);

    // Fig2-class grid: paper workloads x four LLC sizes x six metadata
    // cache sizes, default Table I secure-memory configuration.
    const std::vector<std::string> benchmarks{"canneal", "libquantum",
                                              "fft", "leslie3d"};
    const std::vector<std::uint64_t> llc_sizes{512_KiB, 1_MiB, 2_MiB,
                                               4_MiB};
    const std::vector<std::uint64_t> md_sizes{16_KiB,  64_KiB, 256_KiB,
                                              512_KiB, 1_MiB,  2_MiB};
    const auto make_cfg = [&opts](const std::string &bench,
                                  std::uint64_t llc, std::uint64_t md) {
        auto cfg = bench::defaultConfig(bench, opts, 350'000, 140'000);
        cfg.hierarchy.llcBytes = llc;
        cfg.secure.cache.sizeBytes = md;
        cfg.sample = {}; // both legs are unsampled whatever --sample
        return cfg;
    };
    const auto cell_id = [](const std::string &bench, std::uint64_t llc,
                            std::uint64_t md) {
        return bench + "/" + TextTable::fmtSize(llc) + "+" +
               TextTable::fmtSize(md);
    };

    // Tolerance leg: three spread-out cells per benchmark (two grid
    // corners and the middle), simulated exactly and timed — the timed
    // cells double as the sim-cost sample for the speedup leg.
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> probes{
        {llc_sizes.front(), md_sizes.front()},
        {llc_sizes[2], md_sizes[2]},
        {llc_sizes.back(), md_sizes.back()}};
    double sim_seconds = 0.0;
    std::size_t sim_cells = 0;
    for (const auto &bench : benchmarks) {
        for (const auto &[llc, md] : probes) {
            const auto cfg = make_cfg(bench, llc, md);
            const auto t0 = Clock::now();
            const RunReport sim = estimator::runWithMode(
                cfg, estimator::Mode::Sim, estimator::CellKind::Corner);
            sim_seconds +=
                std::chrono::duration<double>(Clock::now() - t0).count();
            ++sim_cells;
            if (sim.estimator.enabled) {
                std::printf("sim run unexpectedly estimated\n");
                return 1;
            }

            const RunReport est = estimator::runWithMode(
                cfg, estimator::Mode::Analytic,
                estimator::CellKind::Interior);
            if (!est.estimator.enabled ||
                est.estimator.tier != "analytic" ||
                !est.estimator.pinned.empty()) {
                std::printf("analytic run did not take the analytic "
                            "tier (tier=%s pinned=%s)\n",
                            est.estimator.tier.c_str(),
                            est.estimator.pinned.c_str());
                return 1;
            }
            if (est.estimator.bounds.empty()) {
                std::printf("analytic run disclosed no tolerances\n");
                return 1;
            }
            for (const auto &b : est.estimator.bounds)
                validate(cell_id(bench, llc, md), b.name,
                         simValueOf(sim, b.name), b.estimate,
                         b.tolerance);
        }
    }

    // Speedup leg: a *dense* fig2-class sweep through the analytic
    // tier — the same capacity span as the tolerance grid but at
    // half-octave steps, the design-space-exploration shape the
    // analytic tier exists for (one profile per stream serves every
    // cell; per-cell evaluation is microseconds). Run from a cold cache
    // so profiling and anchor simulations are charged to the analytic
    // side; full-sim cost is extrapolated from the timed tolerance-leg
    // cells (per-cell sim cost is set by the reference count, not the
    // cache sizes).
    const auto half_octaves = [](std::uint64_t lo, std::uint64_t hi) {
        std::vector<std::uint64_t> sizes;
        for (std::uint64_t s = lo; s <= hi; s *= 2) {
            sizes.push_back(s);
            if (s + s / 2 <= hi)
                sizes.push_back(s + s / 2);
        }
        return sizes;
    };
    const auto dense_llc = half_octaves(llc_sizes.front(), llc_sizes.back());
    const auto dense_md = half_octaves(md_sizes.front(), md_sizes.back());
    estimator::resetCacheForTests();
    const std::size_t grid_cells =
        benchmarks.size() * dense_llc.size() * dense_md.size();
    const auto t0 = Clock::now();
    for (const auto &bench : benchmarks)
        for (const auto llc : dense_llc)
            for (const auto md : dense_md) {
                const RunReport est = estimator::runWithMode(
                    make_cfg(bench, llc, md), estimator::Mode::Analytic,
                    estimator::CellKind::Interior);
                if (!est.estimator.enabled) {
                    std::printf("grid cell was not estimated\n");
                    return 1;
                }
            }
    const double analytic_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const double sim_extrapolated =
        sim_cells ? sim_seconds / static_cast<double>(sim_cells) *
                        static_cast<double>(grid_cells)
                  : 0.0;
    const double speedup = analytic_seconds > 0.0
                               ? sim_extrapolated / analytic_seconds
                               : 0.0;
    std::printf("grid: %zu cells, analytic=%.3fs, sim (extrapolated "
                "from %zu timed cells)=%.3fs, speedup=%.1fx\n",
                grid_cells, analytic_seconds, sim_cells,
                sim_extrapolated, speedup);
    if (speedup < 20.0) {
        std::printf("FAILED: analytic grid must evaluate >=20x faster "
                    "than full simulation\n");
        ++g_failures;
    }

    if (g_failures) {
        std::printf("check_estimator: %d failure(s)\n", g_failures);
        return 1;
    }
    std::printf("check_estimator: all estimates within disclosed "
                "tolerances\n");
    return 0;
}
