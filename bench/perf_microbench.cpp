/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: cache
 * accesses per policy, controller request handling, DRAM model, reuse
 * analysis, and workload generation. These guard the simulator's own
 * performance, not the paper's results.
 */
#include <benchmark/benchmark.h>

#include "analysis/reuse.hpp"
#include "cache/cache.hpp"
#include "core/estimator.hpp"
#include "core/simulator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "mem/dram.hpp"
#include "mem/fixed_latency.hpp"
#include "metrics/metrics.hpp"
#include "secmem/controller.hpp"
#include "util/rng.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace maps;

void
BM_CacheAccess(benchmark::State &state,
               const std::string &policy)
{
    CacheGeometry geom;
    geom.sizeBytes = 64_KiB;
    geom.assoc = 8;
    SetAssociativeCache cache(geom, makeReplacementPolicy(policy));
    Rng rng(1);
    for (auto _ : state) {
        const Addr addr = rng.nextBounded(4096) * kBlockSize;
        benchmark::DoNotOptimize(cache.access(addr, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_CacheAccess, lru, std::string("lru"));
BENCHMARK_CAPTURE(BM_CacheAccess, plru, std::string("plru"));
BENCHMARK_CAPTURE(BM_CacheAccess, eva, std::string("eva"));
BENCHMARK_CAPTURE(BM_CacheAccess, srrip, std::string("srrip"));

void
BM_DramAccess(benchmark::State &state)
{
    DramModel dram;
    Rng rng(2);
    Cycles now = 0;
    for (auto _ : state) {
        const Addr addr = rng.nextBounded(1 << 22) * kBlockSize;
        benchmark::DoNotOptimize(dram.access(addr, false, now));
        now += 10;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

void
BM_ControllerRead(benchmark::State &state)
{
    SecureMemoryConfig cfg;
    cfg.layout.protectedBytes = 256_MiB;
    FixedLatencyMemory mem(150);
    SecureMemoryController ctrl(cfg, mem);
    Rng rng(3);
    for (auto _ : state) {
        MemoryRequest req;
        req.addr = rng.nextBounded(256_MiB / kBlockSize) * kBlockSize;
        req.kind = rng.nextBool(0.2) ? RequestKind::Writeback
                                     : RequestKind::Read;
        benchmark::DoNotOptimize(ctrl.handleRequest(req));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerRead);

void
BM_ReuseAnalyzer(benchmark::State &state)
{
    ReuseDistanceAnalyzer analyzer;
    Rng rng(4);
    for (auto _ : state) {
        analyzer.observe(rng.nextBounded(1 << 16) * kBlockSize,
                         MetadataType::Counter, AccessType::Read);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseAnalyzer);

void
BM_WorkloadGeneration(benchmark::State &state, const std::string &bench)
{
    auto gen = makeBenchmark(bench, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_WorkloadGeneration, canneal,
                  std::string("canneal"));
BENCHMARK_CAPTURE(BM_WorkloadGeneration, libquantum,
                  std::string("libquantum"));
BENCHMARK_CAPTURE(BM_WorkloadGeneration, leslie3d,
                  std::string("leslie3d"));

void
BM_HierarchyAccess(benchmark::State &state)
{
    CacheHierarchy hierarchy;
    auto gen = makeBenchmark("fft", 1);
    for (auto _ : state)
        hierarchy.access(gen->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

// ---------------------------------------------------------------------------
// Registry-overhead pairs. Each *Registered bench is its plain
// counterpart with every counter attached to a metrics::Registry and the
// measure phase open — the claimed zero-overhead configuration. The CI
// guard (scripts/perf_guard.sh) compares each pair within one run and
// fails on >3% overhead; pairing makes the check machine-independent.
// ---------------------------------------------------------------------------

void
BM_HierarchyAccessRegistered(benchmark::State &state)
{
    CacheHierarchy hierarchy;
    metrics::Registry registry;
    hierarchy.attachMetrics(registry);
    registry.beginPhase(metrics::Phase::Measure);
    auto gen = makeBenchmark("fft", 1);
    for (auto _ : state)
        hierarchy.access(gen->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccessRegistered);

void
BM_ControllerReadRegistered(benchmark::State &state)
{
    SecureMemoryConfig cfg;
    cfg.layout.protectedBytes = 256_MiB;
    FixedLatencyMemory mem(150);
    SecureMemoryController ctrl(cfg, mem);
    metrics::Registry registry;
    ctrl.attachMetrics(registry);
    registry.attach(mem.name(), mem.statsMut());
    registry.beginPhase(metrics::Phase::Measure);
    Rng rng(3);
    for (auto _ : state) {
        MemoryRequest req;
        req.addr = rng.nextBounded(256_MiB / kBlockSize) * kBlockSize;
        req.kind = rng.nextBool(0.2) ? RequestKind::Writeback
                                     : RequestKind::Read;
        benchmark::DoNotOptimize(ctrl.handleRequest(req));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControllerReadRegistered);

// ---------------------------------------------------------------------------
// End-to-end throughput: one full SecureMemorySim run (warmup + measure)
// per iteration over the Figure 3 workload mix, at the figure benches'
// operating point (256 MiB protected, banked DRAM, metadata cache on).
// items_per_second is *simulated references per wall second* — the number
// scripts/perf_guard.sh tracks in the bench/BENCH_micro.json trend and
// gates regressions on. Each iteration constructs a fresh simulation
// (one run per instance), so construction cost is amortised over the
// 400k simulated references, same as a real runner cell. Each iteration
// also drops the stream memo, so it times both passes — the stream pass
// and the replay — rather than a replay of a memoized stream.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kThroughputWarmupRefs = 50'000;
constexpr std::uint64_t kThroughputMeasureRefs = 350'000;

SimConfig
throughputConfig(const std::string &bench)
{
    SimConfig cfg;
    cfg.benchmark = bench;
    cfg.seed = 3;
    cfg.warmupRefs = kThroughputWarmupRefs;
    cfg.measureRefs = kThroughputMeasureRefs;
    cfg.secure.layout.protectedBytes = 256_MiB;
    cfg.useDram = true;
    return cfg;
}

void
BM_SimThroughput(benchmark::State &state, const std::string &bench)
{
    for (auto _ : state) {
        estimator::resetCacheForTests();
        RunReport report = runBenchmark(throughputConfig(bench));
        benchmark::DoNotOptimize(report);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(kThroughputWarmupRefs
                                    + kThroughputMeasureRefs));
}

#define MAPS_SIM_THROUGHPUT(bench)                                         \
    BENCHMARK_CAPTURE(BM_SimThroughput, fig3mix_##bench,                   \
                      std::string(#bench))                                 \
        ->Iterations(1)                                                    \
        ->Unit(benchmark::kMillisecond)
MAPS_SIM_THROUGHPUT(canneal);
MAPS_SIM_THROUGHPUT(libquantum);
MAPS_SIM_THROUGHPUT(fft);
MAPS_SIM_THROUGHPUT(leslie3d);
MAPS_SIM_THROUGHPUT(mcf);
MAPS_SIM_THROUGHPUT(barnes);
#undef MAPS_SIM_THROUGHPUT

// Analytic-tier grid wall clock: a fig2-class 4-workload x 2 LLC x 3
// metadata-cache sweep through estimator::runWithMode(Analytic), from a
// cold profile cache each iteration so the measured time is what the
// tier actually costs — stream profiling, anchor simulation, and the
// per-cell curve evaluations. items_per_second is grid cells/sec (the
// trend key `analytic_grid`), not simulated refs/sec like the fig3mix
// series.
void
BM_AnalyticGrid(benchmark::State &state, const std::string &)
{
    const std::vector<std::string> benches{"canneal", "libquantum",
                                           "fft", "leslie3d"};
    const std::vector<std::uint64_t> llcs{1_MiB, 4_MiB};
    const std::vector<std::uint64_t> mds{64_KiB, 256_KiB, 1_MiB};
    std::int64_t cells = 0;
    for (auto _ : state) {
        estimator::resetCacheForTests();
        for (const auto &bench : benches)
            for (const auto llc : llcs)
                for (const auto md : mds) {
                    SimConfig cfg = throughputConfig(bench);
                    cfg.hierarchy.llcBytes = llc;
                    cfg.secure.cache.sizeBytes = md;
                    RunReport report = estimator::runWithMode(
                        cfg, estimator::Mode::Analytic,
                        estimator::CellKind::Interior);
                    benchmark::DoNotOptimize(report);
                    ++cells;
                }
    }
    state.SetItemsProcessed(cells);
}
BENCHMARK_CAPTURE(BM_AnalyticGrid, analytic_grid, std::string())
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
