/**
 * @file
 * Tests for the estimator seam (core/estimator.hpp): miss-curve
 * composition, mode parsing and flag rejection, tier dispatch, pinning
 * of knobs the analytic model does not differentiate, tolerance
 * disclosure, determinism across the profile cache, and the
 * resume.manifest guard against mixing estimated and exact checkpoints.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/metadata_model.hpp"
#include "core/estimator.hpp"
#include "core/runner.hpp"
#include "core/simulator.hpp"
#include "util/histogram.hpp"

namespace maps {
namespace {

using estimator::CellKind;
using estimator::Mode;

/** Small but non-trivial stream: fast enough for the quick tier. */
SimConfig
smallConfig(const std::string &bench = "fft")
{
    SimConfig cfg;
    cfg.benchmark = bench;
    cfg.seed = 5;
    cfg.warmupRefs = 20'000;
    cfg.measureRefs = 50'000;
    cfg.secure.layout.protectedBytes = 256_MiB;
    cfg.useDram = true;
    return cfg;
}

TEST(MissCurve, ColdAndCapacityComposition)
{
    ExactHistogram hist;
    hist.add(2);
    hist.add(2);
    hist.add(10);
    hist.add(100);
    const analysis::MissCurve curve(hist, 3);

    EXPECT_EQ(curve.accesses(), 7u);
    EXPECT_EQ(curve.cold(), 3u);
    // Capacity 0: every access misses.
    EXPECT_EQ(curve.missesAt(0), 7u);
    // Capacity above every distance: only the cold misses remain.
    EXPECT_EQ(curve.missesAt(101), 3u);
    // Distances >= capacity miss: {10, 100} at capacity 3.
    EXPECT_EQ(curve.missesAt(3), 5u);
    EXPECT_EQ(curve.missesAt(10), 5u) << "boundary distance must miss";
    EXPECT_EQ(curve.missesAt(11), 4u);
    EXPECT_DOUBLE_EQ(curve.missRatioAt(101), 3.0 / 7.0);
}

TEST(MissCurve, EmptyCurveIsSafe)
{
    const analysis::MissCurve curve;
    EXPECT_EQ(curve.accesses(), 0u);
    EXPECT_EQ(curve.missesAt(0), 0u);
    EXPECT_DOUBLE_EQ(curve.missRatioAt(123), 0.0);
}

TEST(EstimatorMode, StrictParseAndNames)
{
    Mode m = Mode::Auto;
    EXPECT_TRUE(estimator::parseMode("sim", m));
    EXPECT_EQ(m, Mode::Sim);
    EXPECT_TRUE(estimator::parseMode("analytic", m));
    EXPECT_EQ(m, Mode::Analytic);
    EXPECT_TRUE(estimator::parseMode("auto", m));
    EXPECT_EQ(m, Mode::Auto);
    EXPECT_FALSE(estimator::parseMode("", m));
    EXPECT_FALSE(estimator::parseMode("Sim", m));
    EXPECT_FALSE(estimator::parseMode("approx", m));
    EXPECT_STREQ(estimator::modeName(Mode::Sim), "sim");
    EXPECT_STREQ(estimator::modeName(Mode::Analytic), "analytic");
    EXPECT_STREQ(estimator::modeName(Mode::Auto), "auto");
}

TEST(EstimatorOptions, FlagParsingAndRejections)
{
    // Fresh Options per sub-case: a failed tryParse may leave fields it
    // parsed before the error behind, which must not bleed across cases.
    const auto parse = [](const std::vector<std::string> &args,
                          runner::Options &out) {
        out = runner::Options{};
        return runner::Options::tryParse(args, out);
    };
    runner::Options opts;
    EXPECT_EQ(parse({"--estimator=analytic"}, opts), "");
    EXPECT_EQ(opts.estimator, Mode::Analytic);
    EXPECT_EQ(parse({"--estimator=auto"}, opts), "");
    EXPECT_EQ(opts.estimator, Mode::Auto);
    EXPECT_EQ(parse({"--estimator=sim"}, opts), "");
    EXPECT_EQ(opts.estimator, Mode::Sim);

    // Strict parse: unknown or malformed values are errors.
    EXPECT_NE(parse({"--estimator=fast"}, opts), "");
    EXPECT_NE(parse({"--estimator="}, opts), "");

    // Estimated cells have no counter stream to sample or trace.
    EXPECT_NE(parse({"--estimator=analytic", "--sample=k=4"}, opts), "");
    EXPECT_NE(parse({"--estimator=auto",
                     "--trace-events=/tmp/x.json"},
                    opts),
              "");
    // Flag order must not matter to the rejection.
    EXPECT_NE(parse({"--sample=k=4", "--estimator=analytic"}, opts), "");
    // --estimator=sim is the exact tier: both combinations stay legal.
    EXPECT_EQ(parse({"--estimator=sim", "--sample=k=4"}, opts), "");
}

TEST(Estimator, SimModeMatchesPlainSimulation)
{
    const SimConfig cfg = smallConfig();
    const RunReport direct = SecureMemorySim(cfg).run();
    const RunReport seamed =
        estimator::runWithMode(cfg, Mode::Sim, CellKind::Interior);

    EXPECT_FALSE(seamed.estimator.enabled)
        << "sim tier must not attach an estimator section";
    EXPECT_EQ(seamed.hierarchy.llcMisses, direct.hierarchy.llcMisses);
    EXPECT_EQ(seamed.cycles, direct.cycles);
    EXPECT_EQ(seamed.mdCache.misses, direct.mdCache.misses);
    EXPECT_DOUBLE_EQ(seamed.ed2, direct.ed2);
}

TEST(Estimator, AnalyticDisclosesBoundsAndProvenance)
{
    const SimConfig cfg = smallConfig();
    const RunReport est =
        estimator::runWithMode(cfg, Mode::Analytic, CellKind::Interior);

    EXPECT_TRUE(est.estimator.enabled);
    EXPECT_EQ(est.estimator.mode, "analytic");
    EXPECT_EQ(est.estimator.tier, "analytic");
    EXPECT_TRUE(est.estimator.pinned.empty());
    EXPECT_GT(est.estimator.pivotLlcBytes, 0u);
    EXPECT_GT(est.estimator.pivotMdBytes, 0u);
    ASSERT_FALSE(est.estimator.bounds.empty());
    for (const auto &b : est.estimator.bounds) {
        EXPECT_FALSE(b.name.empty());
        EXPECT_GT(b.tolerance, 0.0) << b.name;
    }
}

TEST(Estimator, AnalyticExactAtThePivotCell)
{
    // A cell at the anchor configuration (default hierarchy + default
    // metadata cache) is the calibration point itself: the ratio rule
    // must return the anchor's exact LLC miss count.
    SimConfig cfg = smallConfig();
    cfg.hierarchy = HierarchyConfig{};
    cfg.secure.cache = MetadataCacheConfig{};

    const RunReport sim =
        estimator::runWithMode(cfg, Mode::Sim, CellKind::Corner);
    const RunReport est =
        estimator::runWithMode(cfg, Mode::Analytic, CellKind::Interior);
    EXPECT_EQ(est.hierarchy.llcMisses, sim.hierarchy.llcMisses);
    EXPECT_EQ(est.estimator.pivotLlcBytes, cfg.hierarchy.llcBytes);
    EXPECT_EQ(est.estimator.pivotMdBytes, cfg.secure.cache.sizeBytes);
}

TEST(Estimator, AnalyticDeterministicAcrossProfileCache)
{
    SimConfig cfg = smallConfig();
    cfg.hierarchy.llcBytes = 1_MiB;
    cfg.secure.cache.sizeBytes = 256_KiB;

    const RunReport a =
        estimator::runWithMode(cfg, Mode::Analytic, CellKind::Interior);
    const RunReport b =
        estimator::runWithMode(cfg, Mode::Analytic, CellKind::Interior);
    // Cached profile: identical estimates.
    EXPECT_EQ(a.hierarchy.llcMisses, b.hierarchy.llcMisses);
    EXPECT_DOUBLE_EQ(a.metadataMpki, b.metadataMpki);

    // A re-profiled stream must reproduce the same numbers.
    estimator::resetCacheForTests();
    const RunReport c =
        estimator::runWithMode(cfg, Mode::Analytic, CellKind::Interior);
    EXPECT_EQ(a.hierarchy.llcMisses, c.hierarchy.llcMisses);
    EXPECT_DOUBLE_EQ(a.metadataMpki, c.metadataMpki);
    EXPECT_DOUBLE_EQ(a.ed2, c.ed2);
}

TEST(Estimator, ToleranceWidensAwayFromPivot)
{
    const auto tol_of = [](const RunReport &r, const std::string &name) {
        for (const auto &b : r.estimator.bounds)
            if (b.name == name)
                return b.tolerance;
        ADD_FAILURE() << "bound " << name << " not disclosed";
        return 0.0;
    };
    SimConfig pivot = smallConfig();
    pivot.hierarchy = HierarchyConfig{};
    pivot.secure.cache = MetadataCacheConfig{};
    SimConfig corner = pivot;
    corner.hierarchy.llcBytes = 512_KiB;
    corner.secure.cache.sizeBytes = 16_KiB;

    const RunReport at_pivot = estimator::runWithMode(
        pivot, Mode::Analytic, CellKind::Interior);
    const RunReport at_corner = estimator::runWithMode(
        corner, Mode::Analytic, CellKind::Interior);
    EXPECT_GT(tol_of(at_corner, "derived.metadata.mpki"),
              tol_of(at_pivot, "derived.metadata.mpki"));
    EXPECT_GT(tol_of(at_corner, "derived.llc.mpki"),
              tol_of(at_pivot, "derived.llc.mpki"));
    EXPECT_GT(tol_of(at_corner, "derived.cycles"),
              tol_of(at_pivot, "derived.cycles"));
}

TEST(Estimator, PinsKnobsTheModelDoesNotDifferentiate)
{
    const auto pinned_as = [](SimConfig cfg, Mode mode,
                              const std::string &reason,
                              CellKind kind = CellKind::Interior) {
        const RunReport r = estimator::runWithMode(cfg, mode, kind);
        EXPECT_TRUE(r.estimator.enabled) << reason;
        EXPECT_EQ(r.estimator.tier, "sim") << reason;
        EXPECT_EQ(r.estimator.pinned, reason);
    };

    SimConfig insecure = smallConfig();
    insecure.secureEnabled = false;
    pinned_as(insecure, Mode::Analytic, "insecure-baseline");

    SimConfig sampled = smallConfig();
    sampled.sample.enabled = true;
    sampled.sample.k = 4;
    pinned_as(sampled, Mode::Analytic, "sampled");

    SimConfig prefetch = smallConfig();
    prefetch.secure.prefetchNextMetadata = true;
    pinned_as(prefetch, Mode::Analytic, "md-prefetch-unmodeled");

    SimConfig partial = smallConfig();
    partial.secure.cache.partialWrites = true;
    pinned_as(partial, Mode::Analytic, "partial-writes-unmodeled");

    SimConfig policy = smallConfig();
    policy.secure.cache.policy = "lru";
    pinned_as(policy, Mode::Analytic, "md-policy-unmodeled");
}

TEST(Estimator, AutoEstimatesInteriorsPinsCorners)
{
    const SimConfig cfg = smallConfig();
    const RunReport corner =
        estimator::runWithMode(cfg, Mode::Auto, CellKind::Corner);
    EXPECT_EQ(corner.estimator.tier, "sim");
    EXPECT_EQ(corner.estimator.pinned, "sweep-corner");
    EXPECT_EQ(corner.estimator.mode, "auto");

    const RunReport interior =
        estimator::runWithMode(cfg, Mode::Auto, CellKind::Interior);
    EXPECT_EQ(interior.estimator.tier, "analytic");
    EXPECT_TRUE(interior.estimator.pinned.empty());
    EXPECT_EQ(interior.estimator.mode, "auto");
}

TEST(EstimatorResumeDeathTest, ManifestRefusesMixedEstimatorModes)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    namespace fs = std::filesystem;
    const auto dir = fs::temp_directory_path() /
                     ("maps_estimator_manifest_" +
                      std::to_string(::getpid()));
    fs::remove_all(dir);

    const auto make_cells = [] {
        std::vector<runner::Cell> cells;
        cells.push_back({"c0", 0, [](const runner::Cell &) {
                             return runner::CellOutput{}.add(
                                 runner::Row{}.add("id", "c0"));
                         }});
        return cells;
    };

    runner::Options opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.resumeDir = dir.string();
    opts.estimator = Mode::Sim;
    runner::ExperimentRunner(opts).run(make_cells(), "phase");

    // Same directory, different estimation mechanism: exact and
    // estimated checkpoints must never silently mix.
    runner::Options analytic = opts;
    analytic.estimator = Mode::Analytic;
    EXPECT_DEATH(
        { runner::ExperimentRunner(analytic).run(make_cells(), "phase"); },
        "resume.manifest");

    runner::Options same = opts;
    runner::ExperimentRunner(same).run(make_cells(), "phase");
    fs::remove_all(dir);
}

} // namespace
} // namespace maps
