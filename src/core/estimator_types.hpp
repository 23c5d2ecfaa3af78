/**
 * @file
 * Shared vocabulary of the estimator seam (docs/ESTIMATOR.md): the
 * tier-selection mode parsed from `--estimator`, the cell-kind hint
 * drivers attach to sweep cells, and the per-run disclosure report
 * rendered as the "maps::metrics estimator" sections.
 *
 * Kept separate from estimator.hpp so both simulator.hpp (RunReport
 * carries a Report) and runner.hpp (Options carries a Mode) can include
 * it without an include cycle.
 */
#ifndef MAPS_CORE_ESTIMATOR_TYPES_HPP
#define MAPS_CORE_ESTIMATOR_TYPES_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace maps::estimator {

/** Schema tag on every "maps::metrics estimator" row. */
inline constexpr const char *kSchemaVersion = "maps-estimator-v1";

/**
 * Which backend evaluates a cell (from --estimator):
 *
 *   Sim       the batched SoA simulation — exact, the default; runs are
 *             byte-identical to a build without the seam.
 *   Analytic  reuse-distance miss-curve composition calibrated against
 *             one anchor simulation per reference stream; per-metric
 *             tolerances are disclosed on every estimated cell.
 *   Auto      Analytic for cells declared sweep interiors, Sim for
 *             corners — the corners stay exact and anchor the sweep.
 */
enum class Mode : std::uint8_t { Sim = 0, Analytic = 1, Auto = 2 };

inline const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Analytic: return "analytic";
      case Mode::Auto: return "auto";
      case Mode::Sim: break;
    }
    return "sim";
}

/** Strict parse of an --estimator value; false on unknown names. */
inline bool
parseMode(const std::string &name, Mode &out)
{
    if (name == "sim")
        out = Mode::Sim;
    else if (name == "analytic")
        out = Mode::Analytic;
    else if (name == "auto")
        out = Mode::Auto;
    else
        return false;
    return true;
}

/**
 * A driver's hint about a cell's role in its sweep. Corners (extreme
 * grid points, baselines, cells whose knob the analytic model does not
 * differentiate) are pinned to full simulation under Mode::Auto;
 * interiors may be estimated.
 */
enum class CellKind : std::uint8_t { Corner = 0, Interior = 1 };

/**
 * One disclosed per-metric tolerance: the analytic estimate and the
 * relative error band it is claimed to fall in versus full simulation
 * (|estimate - sim| <= tolerance * max(|sim|, |estimate|)), enforced on
 * the paper workloads by bench/check_estimator.
 */
struct Bound
{
    std::string name;
    double estimate = 0.0;
    /** Relative tolerance (fraction, e.g. 0.12 = 12%). */
    double tolerance = 0.0;
    /** Display precision for the estimate. */
    int precision = 3;
};

/**
 * How a report's numbers were produced, rendered by the benches as the
 * "maps::metrics estimator" sections whenever enabled (any --metrics
 * level — estimated numbers always disclose themselves, mirroring the
 * sampling sections). enabled stays false under Mode::Sim, so every
 * existing golden is byte-identical.
 */
struct Report
{
    bool enabled = false;
    /** Requested mode ("sim" / "analytic" / "auto"). */
    std::string mode;
    /** Tier that actually produced the numbers ("sim" / "analytic"). */
    std::string tier;
    /**
     * Why an analytic-capable mode fell back to simulation for this
     * cell ("sweep-corner", "insecure-baseline", "sampled",
     * "md-policy-override"); empty when tier == "analytic".
     */
    std::string pinned;
    /** Anchor/profile pivot configuration (bytes). */
    std::uint64_t pivotLlcBytes = 0;
    std::uint64_t pivotMdBytes = 0;
    /** References profiled once per stream (warmup + measure). */
    std::uint64_t profiledRefs = 0;
    /** References simulated by the per-stream anchor run. */
    std::uint64_t anchorRefs = 0;
    /** Cell-vs-pivot LLC-request scale factor (the fallback ratio). */
    double mdScale = 1.0;
    /** Disclosed per-metric tolerances (analytic tier only). */
    std::vector<Bound> bounds;
};

} // namespace maps::estimator

#endif // MAPS_CORE_ESTIMATOR_TYPES_HPP
