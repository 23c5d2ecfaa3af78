/**
 * @file
 * The estimator seam (docs/ESTIMATOR.md): every driver evaluates its
 * cells through estimator::runWithMode() (via bench::runCell, which
 * passes the driver's --estimator), dispatching to a backend tier.
 *
 *   sim       SecureMemorySim::run() — exact, byte-identical to a build
 *             without the seam; the default.
 *   analytic  one reuse-distance profiling pass plus one anchor
 *             simulation per reference stream (cached process-wide),
 *             then every cell of a sweep is composed from the miss
 *             curves in microseconds (analysis/metadata_model.hpp) and
 *             calibrated against the anchor. Per-metric tolerances are
 *             disclosed in RunReport::estimator and enforced on the
 *             paper workloads by bench/check_estimator.
 *   auto      analytic for cells a driver declares sweep interiors,
 *             sim for corners.
 *
 * Cells the analytic model cannot differentiate (insecure baselines,
 * sampled runs, metadata prefetching, partial writes, non-default
 * replacement policies) are pinned to the sim tier with a disclosed
 * reason rather than estimated silently.
 */
#ifndef MAPS_CORE_ESTIMATOR_HPP
#define MAPS_CORE_ESTIMATOR_HPP

#include "core/estimator_types.hpp"
#include "core/simulator.hpp"

namespace maps::estimator {

/**
 * Evaluate one cell under @p mode. Under Mode::Sim the returned report
 * is bit-identical to SecureMemorySim(cfg).run() (estimator section
 * disabled).
 *
 * @param kind the driver's hint about the cell's sweep role; only
 *        consulted under Mode::Auto.
 */
RunReport runWithMode(const SimConfig &cfg, Mode mode,
                      CellKind kind = CellKind::Corner);

/**
 * Drop the process-wide stream memo: every captured stream and every
 * profile/anchor (tests and mapsbench rounds — production runs want
 * maximal reuse: one capture, one profile and one anchor per reference
 * stream). Holders of a capture keep it until they finish.
 */
void resetCacheForTests();

/** What the stream memo holds (tests). */
struct MemoStats
{
    /** Stream passes run through the memo since process start. */
    std::uint64_t captures = 0;
    /** Resident captured streams and the bytes charged for them. */
    std::size_t streams = 0;
    std::size_t bytes = 0;
};
MemoStats memoStatsForTests();

/** Set the memo's byte budget, evicting to fit; returns the old one. */
std::size_t setMemoBudgetForTests(std::size_t bytes);

} // namespace maps::estimator

#endif // MAPS_CORE_ESTIMATOR_HPP
