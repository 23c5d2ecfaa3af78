/**
 * @file
 * The two-pass exact simulation and its stream memo
 * (docs/ARCHITECTURE.md "Two passes"): a run served from a memoized
 * L2-side log must equal a direct generator -> CacheHierarchy ->
 * controller -> memory composition, counter for counter, cycle for
 * cycle and tap access for tap access; one stream is captured once
 * however many threads ask for it; resetCacheForTests() releases the
 * logs; the byte budget evicts least-recently-used streams.
 */
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.hpp"
#include "core/simulator.hpp"
#include "core/stream_capture.hpp"
#include "mem/dram.hpp"
#include "mem/fixed_latency.hpp"
#include "util/rng.hpp"

namespace maps {
namespace {

/** What the test compares between the two sides. */
struct Outcome
{
    metrics::Registry::Export ex;
    Cycles cycles = 0;
    std::vector<MetadataAccess> taps;
};

/**
 * The reference: every level simulated per CPU reference, composed here
 * from the public components in SecureMemorySim's attach order.
 */
Outcome
directRun(const SimConfig &cfg)
{
    Arena arena;
    const auto generator = makeBenchmark(cfg.benchmark, cfg.seed);
    std::unique_ptr<MemoryModel> memory;
    if (cfg.useDram)
        memory = std::make_unique<DramModel>();
    else
        memory = std::make_unique<FixedLatencyMemory>(cfg.fixedLatencyCycles);
    std::unique_ptr<SecureMemoryController> controller;
    if (cfg.secureEnabled)
        controller = std::make_unique<SecureMemoryController>(
            cfg.secure, *memory, nullptr, &arena);
    CacheHierarchy hierarchy(cfg.hierarchy, &arena);

    Outcome out;
    bool measuring = false;
    hierarchy.setRequestSink([&](const MemoryRequest &req) {
        const Cycles latency =
            controller ? controller->handleRequest(req, out.cycles).latency
                       : memory->access(req.addr, req.isWrite(), out.cycles)
                             .latency;
        if (req.kind == RequestKind::Read)
            out.cycles += latency;
    });
    if (controller)
        controller->setMetadataTap([&](const MetadataAccess &acc) {
            if (measuring)
                out.taps.push_back(acc);
        });
    metrics::Registry registry;
    hierarchy.attachMetrics(registry);
    registry.attach(memory->name(), memory->statsMut());
    if (controller)
        controller->attachMetrics(registry);

    generator->skip(cfg.skipRefs);
    std::vector<MemRef> refs(97); // a batch size dividing no window
    const auto drive = [&](std::uint64_t count, Cycles *core) {
        for (std::uint64_t i = 0; i < count;) {
            const std::uint64_t n =
                std::min<std::uint64_t>(refs.size(), count - i);
            generator->nextBatch(refs.data(), n);
            hierarchy.accessBatch(refs.data(), n, core);
            i += n;
        }
    };
    drive(cfg.warmupRefs, nullptr);
    registry.beginPhase(metrics::Phase::Measure);
    out.cycles = 0;
    measuring = true;
    drive(cfg.measureRefs, &out.cycles);
    out.ex = registry.exportAll();
    return out;
}

Outcome
simRun(const SimConfig &cfg)
{
    SecureMemorySim sim(cfg);
    Outcome out;
    sim.setMetadataTap(
        [&out](const MetadataAccess &acc) { out.taps.push_back(acc); });
    const RunReport report = sim.run();
    out.ex = report.metricsExport;
    out.cycles = report.cycles;
    return out;
}

void
expectSame(const Outcome &got, const Outcome &want)
{
    EXPECT_EQ(got.cycles, want.cycles);
    ASSERT_EQ(got.ex.counters.size(), want.ex.counters.size());
    for (std::size_t i = 0; i < got.ex.counters.size(); ++i) {
        const auto &g = got.ex.counters[i];
        const auto &w = want.ex.counters[i];
        EXPECT_EQ(g.name, w.name);
        EXPECT_EQ(g.warmup, w.warmup) << g.name;
        EXPECT_EQ(g.total, w.total) << g.name;
    }
    ASSERT_EQ(got.ex.histograms.size(), want.ex.histograms.size());
    for (std::size_t i = 0; i < got.ex.histograms.size(); ++i) {
        const auto &g = got.ex.histograms[i];
        const auto &w = want.ex.histograms[i];
        EXPECT_EQ(g.name, w.name);
        EXPECT_EQ(g.warmupBuckets, w.warmupBuckets) << g.name;
        EXPECT_EQ(g.measureBuckets, w.measureBuckets) << g.name;
    }
    ASSERT_EQ(got.taps.size(), want.taps.size());
    for (std::size_t i = 0; i < got.taps.size(); ++i) {
        const auto &g = got.taps[i];
        const auto &w = want.taps[i];
        ASSERT_TRUE(g.addr == w.addr && g.type == w.type &&
                    g.access == w.access && g.level == w.level &&
                    g.icount == w.icount)
            << "tap access " << i;
    }
}

template <typename T, std::size_t N>
const T &
pick(Rng &rng, const T (&options)[N])
{
    return options[rng.nextBounded(N)];
}

SimConfig
streamBase(const std::string &bench, std::uint64_t seed)
{
    SimConfig cfg;
    cfg.benchmark = bench;
    cfg.seed = seed;
    cfg.warmupRefs = 3'000;
    cfg.measureRefs = 20'000;
    cfg.secure.layout.protectedBytes = 256_MiB;
    return cfg;
}

TEST(StreamMemo, ReplayedRunsEqualDirectComposition)
{
    static const char *kBenches[] = {"canneal", "libquantum", "mcf",
                                     "lbm", "fft", "barnes"};
    static const char *kPolicies[] = {"lru", "plru", "random", "srrip",
                                      "eva"};
    static const std::uint64_t kLlc[] = {128_KiB, 512_KiB, 1_MiB, 4_MiB};
    static const std::uint32_t kLlcAssoc[] = {4, 8, 16};
    static const std::uint64_t kMd[] = {4_KiB, 16_KiB, 64_KiB, 256_KiB};
    static const PartitionScheme kPartitions[] = {
        PartitionScheme::None, PartitionScheme::Static,
        PartitionScheme::Dueling};
    Rng rng(0x5EED5);
    for (int round = 0; round < 24; ++round) {
        estimator::resetCacheForTests();
        SimConfig cfg = streamBase(pick(rng, kBenches),
                                   rng.nextRange(1, 1'000'000));
        cfg.skipRefs = rng.nextRange(1, 5'000);
        cfg.hierarchy.policy = pick(rng, kPolicies);
        cfg.hierarchy.llcBytes = pick(rng, kLlc);
        cfg.hierarchy.llcAssoc = pick(rng, kLlcAssoc);
        cfg.secure.cache.sizeBytes = pick(rng, kMd);
        cfg.secure.cache.partition = pick(rng, kPartitions);
        cfg.secure.cache.policy = pick(rng, kPolicies);
        cfg.secure.speculation = rng.nextBounded(2);
        cfg.secure.lazyTreeUpdate = rng.nextBounded(2);
        cfg.secure.prefetchNextMetadata = rng.nextBounded(2);
        cfg.secureEnabled = rng.nextBounded(4) != 0;
        cfg.useDram = rng.nextBounded(2);
        SCOPED_TRACE("round " + std::to_string(round) + ": " +
                     cfg.benchmark + " seed " + std::to_string(cfg.seed));

        // A neighbouring stream (one stream field changed) must not
        // serve it; a different replay configuration of the same stream
        // captures it, so the run under test is served from the memo.
        SimConfig neighbour = cfg;
        switch (rng.nextBounded(5)) {
          case 0:
            neighbour.hierarchy.policy =
                cfg.hierarchy.policy == "lru" ? "plru" : "lru";
            break;
          case 1: neighbour.hierarchy.l2Bytes /= 2; break;
          case 2: ++neighbour.skipRefs; break;
          case 3: ++neighbour.seed; break;
          default: ++neighbour.warmupRefs; break;
        }
        SimConfig other = cfg;
        other.hierarchy.llcBytes = 2_MiB;
        other.secure.cache = MetadataCacheConfig{};
        other.useDram = !cfg.useDram;
        const auto captures = estimator::memoStatsForTests().captures;
        simRun(neighbour);
        simRun(other);
        ASSERT_EQ(estimator::memoStatsForTests().captures, captures + 2)
            << "a neighbouring stream served another";
        const Outcome served = simRun(cfg);
        ASSERT_EQ(estimator::memoStatsForTests().captures, captures + 2)
            << "the run under test captured instead of replaying";

        expectSame(served, directRun(cfg));
    }
    estimator::resetCacheForTests();
}

TEST(StreamMemo, TwoThreadsCaptureOneStreamOnce)
{
    estimator::resetCacheForTests();
    const auto captures = estimator::memoStatsForTests().captures;
    std::latch start(2);
    RunReport reports[2];
    const auto work = [&](int i) {
        SimConfig cfg = streamBase("canneal", 7);
        cfg.secure.cache.sizeBytes = i == 0 ? 16_KiB : 128_KiB;
        SecureMemorySim sim(cfg);
        start.arrive_and_wait();
        reports[i] = sim.run();
    };
    std::thread a(work, 0), b(work, 1);
    a.join();
    b.join();
    EXPECT_EQ(estimator::memoStatsForTests().captures, captures + 1);
    EXPECT_EQ(estimator::memoStatsForTests().streams, 1u);
    EXPECT_EQ(reports[0].hierarchy.l2Misses, reports[1].hierarchy.l2Misses);
    EXPECT_EQ(reports[0].hierarchy.llcMisses,
              reports[1].hierarchy.llcMisses);
    EXPECT_NE(reports[0].mdCache.misses, reports[1].mdCache.misses);
    estimator::resetCacheForTests();
}

TEST(StreamMemo, ResetReleasesTheLogs)
{
    estimator::resetCacheForTests();
    const SimConfig cfg = streamBase("mcf", 3);
    const std::weak_ptr<const StreamCapture> log = estimator::streamFor(cfg);
    ASSERT_FALSE(log.expired()) << "the memo holds the capture";
    const auto held = estimator::memoStatsForTests();
    EXPECT_EQ(held.streams, 1u);
    EXPECT_GT(held.bytes, log.lock()->log.size());

    estimator::resetCacheForTests();
    EXPECT_TRUE(log.expired());
    EXPECT_EQ(estimator::memoStatsForTests().streams, 0u);
    EXPECT_EQ(estimator::memoStatsForTests().bytes, 0u);
}

TEST(StreamMemo, ByteBudgetEvictsLeastRecentlyUsed)
{
    estimator::resetCacheForTests();
    const SimConfig a = streamBase("libquantum", 1);
    const SimConfig b = streamBase("libquantum", 2);
    const SimConfig c = streamBase("libquantum", 3);
    const auto captures = [] {
        return estimator::memoStatsForTests().captures;
    };

    std::size_t total = 0;
    for (const SimConfig *cfg : {&a, &b, &c})
        total += estimator::streamFor(*cfg)->bytes();
    ASSERT_EQ(estimator::memoStatsForTests().bytes, total);
    estimator::resetCacheForTests();

    // Room for any two of the streams, not all three.
    const std::size_t budget = total - 1;
    const std::size_t previous = estimator::setMemoBudgetForTests(budget);
    estimator::streamFor(a);
    estimator::streamFor(b);
    EXPECT_EQ(estimator::memoStatsForTests().streams, 2u);

    // Touch a, so b is the least recently used when c arrives.
    const auto before_a = captures();
    estimator::streamFor(a);
    EXPECT_EQ(captures(), before_a) << "a resident stream was recaptured";
    estimator::streamFor(c);
    const auto after_c = captures();
    EXPECT_EQ(estimator::memoStatsForTests().streams, 2u);
    EXPECT_LE(estimator::memoStatsForTests().bytes, budget);
    estimator::streamFor(a);
    EXPECT_EQ(captures(), after_c) << "a was evicted instead of b";
    estimator::streamFor(b);
    EXPECT_EQ(captures(), after_c + 1) << "b was not evicted";

    // A budget below one stream keeps nothing resident, yet a holder
    // still replays from its own reference.
    estimator::setMemoBudgetForTests(sizeof(StreamCapture));
    EXPECT_EQ(estimator::memoStatsForTests().streams, 0u);
    const auto held = estimator::streamFor(a);
    EXPECT_EQ(estimator::memoStatsForTests().streams, 0u);
    EXPECT_EQ(held->warmupAccesses + held->measureAccesses,
              held->atEnd.l2Misses + held->atEnd.l2.dirtyEvictions);

    estimator::setMemoBudgetForTests(previous);
    estimator::resetCacheForTests();
}

} // namespace
} // namespace maps
