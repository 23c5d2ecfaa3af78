/**
 * @file
 * Tests for the maps::metrics phase-aware registry, the derived-metric
 * definitions, the simulator's single statistics boundary, and the
 * chrome://tracing event emitter.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/cache.hpp"
#include "check/check.hpp"
#include "core/runner.hpp"
#include "core/simulator.hpp"
#include "metrics/derived.hpp"
#include "metrics/metrics.hpp"
#include "metrics/trace_events.hpp"

namespace maps {
namespace {

// ---------------------------------------------------------------------------
// Registry fundamentals.
// ---------------------------------------------------------------------------

TEST(Registry, TotalWarmupMeasureWindows)
{
    metrics::Registry reg;
    std::uint64_t hits = 0;
    reg.counter("unit.hits", &hits);

    hits = 7; // warmup activity
    EXPECT_EQ(reg.total("unit.hits"), 7u);
    // Before the snapshot the measure window covers the whole run.
    EXPECT_EQ(reg.warmup("unit.hits"), 0u);
    EXPECT_EQ(reg.measure("unit.hits"), 7u);

    reg.beginPhase(metrics::Phase::Measure);
    EXPECT_EQ(reg.warmup("unit.hits"), 7u);
    EXPECT_EQ(reg.measure("unit.hits"), 0u);

    hits += 5; // measured activity
    EXPECT_EQ(reg.total("unit.hits"), 12u);
    EXPECT_EQ(reg.warmup("unit.hits"), 7u);
    EXPECT_EQ(reg.measure("unit.hits"), 5u);
    // The invariant the whole design hangs on:
    EXPECT_EQ(reg.warmup("unit.hits") + reg.measure("unit.hits"),
              reg.total("unit.hits"));
}

TEST(Registry, AttachEnumeratesStructFields)
{
    metrics::Registry reg;
    CacheStats stats;
    reg.attach("l1", stats);
    // hits, misses, evictions, evictions.dirty + 4 hit + 4 miss classes.
    EXPECT_EQ(reg.counterCount(), 12u);
    stats.hits = 3;
    stats.misses = 2;
    EXPECT_EQ(reg.total("l1.hits"), 3u);
    EXPECT_EQ(reg.total("l1.misses"), 2u);
}

TEST(Registry, MeasureViewSubtractsSnapshotPerField)
{
    metrics::Registry reg;
    CacheStats stats;
    reg.attach("llc", stats);
    stats.hits = 10;
    stats.misses = 4;
    reg.beginPhase(metrics::Phase::Measure);
    stats.hits = 25;
    stats.misses = 5;
    stats.evictions = 2;

    const CacheStats view = reg.measureView("llc", stats);
    EXPECT_EQ(view.hits, 15u);
    EXPECT_EQ(view.misses, 1u);
    EXPECT_EQ(view.evictions, 2u);
    // The view is a copy; the live struct keeps its totals.
    EXPECT_EQ(stats.hits, 25u);
}

TEST(RegistryDeath, SnapshotTakenExactlyOnce)
{
    metrics::Registry reg;
    std::uint64_t c = 0;
    reg.counter("c", &c);
    reg.beginPhase(metrics::Phase::Measure);
    EXPECT_DEATH(reg.beginPhase(metrics::Phase::Measure), "");
}

TEST(RegistryDeath, BeginWarmupPanics)
{
    metrics::Registry reg;
    EXPECT_DEATH(reg.beginPhase(metrics::Phase::Warmup), "");
}

TEST(RegistryDeath, DuplicateCounterNamePanics)
{
    metrics::Registry reg;
    std::uint64_t a = 0, b = 0;
    reg.counter("dup", &a);
    EXPECT_DEATH(reg.counter("dup", &b), "");
}

TEST(RegistryDeath, RegistrationAfterSnapshotPanics)
{
    metrics::Registry reg;
    std::uint64_t a = 0, b = 0;
    reg.counter("early", &a);
    reg.beginPhase(metrics::Phase::Measure);
    EXPECT_DEATH(reg.counter("late", &b), "");
}

TEST(RegistryDeath, UnknownNamePanics)
{
    metrics::Registry reg;
    EXPECT_DEATH(reg.total("no.such.counter"), "");
}

TEST(Registry, PhaseListenerRunsAfterSnapshot)
{
    metrics::Registry reg;
    std::uint64_t c = 0;
    reg.counter("c", &c);
    c = 9;
    std::uint64_t seen_warmup = 0;
    reg.onPhaseBegin([&](metrics::Phase p) {
        EXPECT_EQ(p, metrics::Phase::Measure);
        seen_warmup = reg.warmup("c"); // snapshot already taken
    });
    reg.beginPhase(metrics::Phase::Measure);
    EXPECT_EQ(seen_warmup, 9u);
}

TEST(Registry, HistogramSnapshotsBucketwise)
{
    metrics::Registry reg;
    Log2Histogram hist;
    reg.histogram("lat", &hist);
    hist.add(3); // bucket for small values
    hist.add(100);
    reg.beginPhase(metrics::Phase::Measure);
    hist.add(100);
    hist.add(5000);

    const auto ex = reg.exportAll();
    ASSERT_EQ(ex.histograms.size(), 1u);
    const auto &h = ex.histograms[0];
    EXPECT_EQ(h.name, "lat");
    EXPECT_EQ(h.totalCount, 4u);
    std::uint64_t warm = 0, meas = 0;
    for (const auto v : h.warmupBuckets)
        warm += v;
    for (const auto v : h.measureBuckets)
        meas += v;
    EXPECT_EQ(warm, 2u);
    EXPECT_EQ(meas, 2u);
}

TEST(Registry, ExportCarriesSchemaAndAllRecords)
{
    metrics::Registry reg;
    std::uint64_t c = 0;
    reg.counter("x.events", &c);
    c = 4;
    reg.beginPhase(metrics::Phase::Measure);
    c = 10;
    reg.derived("x.rate", 2.5, 2);

    const auto ex = reg.exportAll();
    EXPECT_EQ(ex.schema, metrics::kSchemaVersion);
    ASSERT_EQ(ex.counters.size(), 1u);
    EXPECT_EQ(ex.counters[0].name, "x.events");
    EXPECT_EQ(ex.counters[0].warmup, 4u);
    EXPECT_EQ(ex.counters[0].measure, 6u);
    EXPECT_EQ(ex.counters[0].total, 10u);
    ASSERT_EQ(ex.derived.size(), 1u);
    EXPECT_EQ(ex.derived[0].name, "x.rate");
    EXPECT_DOUBLE_EQ(ex.derived[0].value, 2.5);
    EXPECT_EQ(ex.derived[0].precision, 2);
}

// ---------------------------------------------------------------------------
// Derived metrics: one definition, exact formulas.
// ---------------------------------------------------------------------------

TEST(Derived, FormulasMatchTheirDefinitions)
{
    EXPECT_DOUBLE_EQ(metrics::perKiloInstructions(50, 10'000), 5.0);
    EXPECT_DOUBLE_EQ(metrics::perKiloInstructions(50, 0), 0.0);
    EXPECT_DOUBLE_EQ(metrics::ratioOrZero(3, 4), 0.75);
    EXPECT_DOUBLE_EQ(metrics::ratioOrZero(3, 0), 0.0);
    // ED² = pJ -> J conversion times seconds².
    EXPECT_DOUBLE_EQ(metrics::energyDelaySquared(2e12, 3.0), 2.0 * 9.0);
}

TEST(Derived, StatsStructsDelegate)
{
    CacheStats stats;
    stats.hits = 3;
    stats.misses = 1;
    EXPECT_DOUBLE_EQ(stats.missRate(), metrics::ratioOrZero(1, 4));
}

// ---------------------------------------------------------------------------
// Simulator integration: one statistics boundary per run.
// ---------------------------------------------------------------------------

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.benchmark = "libquantum";
    cfg.seed = 5;
    cfg.warmupRefs = 2'000;
    cfg.measureRefs = 5'000;
    return cfg;
}

const metrics::Registry::CounterRecord &
findCounter(const metrics::Registry::Export &ex, const std::string &name)
{
    for (const auto &c : ex.counters)
        if (c.name == name)
            return c;
    ADD_FAILURE() << "counter " << name << " not exported";
    static metrics::Registry::CounterRecord none;
    return none;
}

TEST(SimulatorMetrics, CountersResetExactlyOnce)
{
    const auto report = runBenchmark(tinyConfig());
    const auto &refs = findCounter(report.metricsExport,
                                   "hierarchy.refs");
    // The warmup window is exactly the warmup references, the measure
    // window exactly the measured ones, and nothing is ever lost:
    // warmup + measure == total.
    EXPECT_EQ(refs.warmup, 2'000u);
    EXPECT_EQ(refs.measure, 5'000u);
    EXPECT_EQ(refs.total, 7'000u);
    EXPECT_EQ(report.refs, 5'000u) << "report views are measure-window";
}

TEST(SimulatorMetrics, ReportViewsAreMeasureWindows)
{
    const auto cfg = tinyConfig();
    SecureMemorySim sim(cfg);
    const auto report = sim.run();
    auto &reg = sim.metricsRegistry();
    EXPECT_EQ(report.hierarchy.llcMisses, reg.measure("hierarchy.llc.misses"));
    EXPECT_EQ(report.memory.reads, reg.measure("dram.reads"));
    EXPECT_EQ(report.controller.readRequests,
              reg.measure("secmem.requests.read"));
    EXPECT_EQ(report.mdCache.accesses[0],
              reg.measure("secmem.mdcache.counter.accesses"));
}

TEST(SimulatorMetrics, CacheEnergySpansBothPhases)
{
    const auto cfg = tinyConfig();
    SecureMemorySim sim(cfg);
    const auto report = sim.run();
    const auto &ex = report.metricsExport;
    const auto &hits = findCounter(ex, "l1.hits");
    const auto &misses = findCounter(ex, "l1.misses");
    ASSERT_GT(hits.warmup + misses.warmup, 0u)
        << "warmup must generate L1 traffic for this test to bite";

    // Documented window convention: l1/l2/llc dynamic energy charges the
    // WHOLE run (warmup fills are real accesses that cost energy), not
    // just the measure window.
    const EnergyModel energy(cfg.energy);
    const double whole_run = energy.cacheDynamicPj(
        cfg.hierarchy.l1Bytes, hits.total + misses.total);
    const double measure_only = energy.cacheDynamicPj(
        cfg.hierarchy.l1Bytes, hits.measure + misses.measure);
    EXPECT_DOUBLE_EQ(report.energy.l1Pj, whole_run);
    EXPECT_GT(report.energy.l1Pj, measure_only);
}

TEST(SimulatorMetrics, ExportIncludesDerivedFigures)
{
    const auto report = runBenchmark(tinyConfig());
    const auto &ex = report.metricsExport;
    EXPECT_EQ(ex.schema, metrics::kSchemaVersion);
    bool saw_mpki = false, saw_ed2 = false;
    for (const auto &d : ex.derived) {
        if (d.name == "derived.llc.mpki") {
            saw_mpki = true;
            EXPECT_DOUBLE_EQ(d.value, report.llcMpki);
        }
        if (d.name == "derived.ed2") {
            saw_ed2 = true;
            EXPECT_DOUBLE_EQ(d.value, report.ed2);
        }
    }
    EXPECT_TRUE(saw_mpki);
    EXPECT_TRUE(saw_ed2);
}

TEST(SimulatorMetrics, AccountingAuditCleanOnHealthyRun)
{
    check::setEnabled(true);
    check::setFailureMode(check::FailureMode::Record);
    check::resetStats();
    runBenchmark(tinyConfig());
    EXPECT_EQ(check::failureCount(), 0u)
        << "registry cross-component accounting diverged";
    EXPECT_GT(check::checkCount(), 0u);
    check::setEnabled(false);
}

TEST(SimulatorMetrics, InsecureBaselineStillExports)
{
    auto cfg = tinyConfig();
    cfg.secureEnabled = false;
    const auto report = runBenchmark(cfg);
    const auto &refs = findCounter(report.metricsExport,
                                   "hierarchy.refs");
    EXPECT_EQ(refs.total, cfg.warmupRefs + cfg.measureRefs);
    for (const auto &c : report.metricsExport.counters)
        EXPECT_TRUE(c.name.rfind("secmem", 0) != 0)
            << "no controller counters without a controller: " << c.name;
}

// ---------------------------------------------------------------------------
// Trace events.
// ---------------------------------------------------------------------------

TEST(TraceEvents, WriterEmitsValidChromeTraceJson)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "maps_test_trace_events.json";
    std::filesystem::remove(path);
    {
        auto cfg = tinyConfig();
        SecureMemorySim sim(cfg);
        sim.enableTraceEvents(path.string(), 16, "test/cell");
        sim.run();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << "trace file missing: " << path;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string body = text.str();

    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.find(metrics::kTraceSchemaVersion), std::string::npos);
    EXPECT_NE(body.find("\"cell\":\"test/cell\""), std::string::npos);
    EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(body.find("\"cat\":\"metadata\""), std::string::npos);
    // Crude structural sanity: brackets balance.
    std::int64_t depth = 0;
    for (const char c : body) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    std::filesystem::remove(path);
}

TEST(TraceEvents, SamplingBoundsEventCount)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "maps_test_trace_sampled.json";
    std::filesystem::remove(path);
    auto cfg = tinyConfig();
    SecureMemorySim sim(cfg);
    sim.enableTraceEvents(path.string(), 1'000'000, "sparse");
    sim.run();
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream text;
    text << in.rdbuf();
    // Sampling every millionth request over a few thousand refs keeps
    // at most one sampled request.
    EXPECT_NE(text.str().find("\"requests_sampled\":1"),
              std::string::npos)
        << text.str().substr(text.str().size() > 400
                                 ? text.str().size() - 400
                                 : 0);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Runner plumbing: option parsing and the once-per-run trace claim.
// ---------------------------------------------------------------------------

TEST(RunnerMetrics, OptionsParseMetricsAndTraceFlags)
{
    runner::Options opts;
    const auto err = runner::Options::tryParse(
        {"--metrics=full", "--trace-events=/tmp/t.json",
         "--trace-sample=8", "--trace-cell=canneal"},
        opts);
    EXPECT_EQ(err, "");
    EXPECT_EQ(opts.metrics, runner::MetricsLevel::Full);
    EXPECT_EQ(opts.traceEventsPath, "/tmp/t.json");
    EXPECT_EQ(opts.traceSample, 8u);
    EXPECT_EQ(opts.traceCell, "canneal");

    runner::Options bad;
    EXPECT_NE(runner::Options::tryParse({"--metrics=verbose"}, bad), "");
    EXPECT_NE(runner::Options::tryParse({"--trace-sample=0"}, bad), "");
    EXPECT_NE(runner::Options::tryParse({"--trace-events="}, bad), "");
}

/**
 * Run a four-cell experiment at --jobs=4 with --trace-events=@p path
 * (and --trace-cell=@p cell unless empty). Each cell runs two tiny
 * sims and moves the trace file aside after each one, so every traced
 * sim leaves a file of its own. Returns the bodies of those files and
 * fills @p warnings with what finish() printed on stderr.
 */
std::vector<std::string>
runTracedGrid(const std::filesystem::path &path, const std::string &cell,
              std::string &warnings)
{
    runner::Options opts;
    opts.jobs = 4;
    opts.progress = false;
    opts.outPath = path.string() + ".out";
    opts.traceEventsPath = path.string();
    opts.traceSample = 64;
    opts.traceCell = cell;
    runner::Experiment exp({"trace_claim", "probe", "probe"}, opts);

    std::mutex mu;
    std::vector<std::string> moved;
    std::vector<runner::Cell> cells;
    for (const char *id : {"c0", "c1", "c2", "c3"}) {
        cells.push_back({id, 0, [&](const runner::Cell &c) {
            for (int k = 0; k < 2; ++k) {
                SecureMemorySim(tinyConfig()).run();
                const auto aside = path.string() + "." + c.id + "." +
                                   std::to_string(k);
                std::error_code ec;
                std::filesystem::rename(path, aside, ec);
                if (!ec) {
                    const std::lock_guard<std::mutex> lock(mu);
                    moved.push_back(aside);
                }
            }
            return runner::CellOutput{};
        }});
    }
    exp.run(cells);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(exp.finish(), 0);
    warnings = ::testing::internal::GetCapturedStderr();

    std::vector<std::string> bodies;
    for (const auto &file : moved) {
        std::ifstream in(file);
        std::ostringstream text;
        text << in.rdbuf();
        bodies.push_back(text.str());
        std::filesystem::remove(file);
    }
    std::filesystem::remove(opts.outPath);
    return bodies;
}

TEST(RunnerMetrics, TraceClaimGrantedOncePerRun)
{
    const auto path = std::filesystem::temp_directory_path() /
                      ("maps_trace_claim_" + std::to_string(::getpid()) +
                       ".json");
    std::string warnings;

    // First come: exactly one of the eight sims is traced.
    auto traced = runTracedGrid(path, "", warnings);
    ASSERT_EQ(traced.size(), 1u);
    EXPECT_NE(traced[0].find("\"sample_every\":64"), std::string::npos);
    EXPECT_EQ(warnings, "");

    // A second Experiment in the same process grants again, and the
    // filter routes the grant to the named cell.
    traced = runTracedGrid(path, "c2", warnings);
    ASSERT_EQ(traced.size(), 1u);
    EXPECT_NE(traced[0].find("\"cell\":\"c2\""), std::string::npos);
    EXPECT_EQ(warnings, "");

    // Outside a runner worker there is nothing to claim.
    EXPECT_FALSE(runner::claimTraceEvents().has_value());
}

TEST(RunnerMetrics, UngrantedTraceClaimWarns)
{
    const auto path = std::filesystem::temp_directory_path() /
                      ("maps_trace_unclaimed_" +
                       std::to_string(::getpid()) + ".json");
    std::string warnings;
    EXPECT_TRUE(runTracedGrid(path, "nosuch", warnings).empty());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_NE(warnings.find("--trace-events=" + path.string()),
              std::string::npos)
        << warnings;
    EXPECT_NE(warnings.find("--trace-cell=nosuch"), std::string::npos)
        << warnings;
}

} // namespace
} // namespace maps
