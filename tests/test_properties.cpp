/**
 * @file
 * Cross-module property tests: invariants that must hold across whole
 * configuration matrices, checked with parameterized sweeps.
 */
#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/reuse.hpp"
#include "cache/cache.hpp"
#include "core/simulator.hpp"
#include "hierarchy/hierarchy.hpp"
#include "offline/min_sim.hpp"
#include "secmem/layout.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace maps {
namespace {

// ---------------------------------------------------------------------
// PLRU == LRU at 2 ways, for any access stream.
// ---------------------------------------------------------------------

class PlruLruEquiv : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PlruLruEquiv, TwoWayIdentical)
{
    CacheGeometry geom;
    geom.sizeBytes = 8_KiB;
    geom.assoc = 2;
    SetAssociativeCache plru(geom, makeReplacementPolicy("plru"));
    SetAssociativeCache lru(geom, makeReplacementPolicy("lru"));
    Rng rng(GetParam());
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.nextBounded(512) * kBlockSize;
        ASSERT_EQ(plru.access(a, false).hit, lru.access(a, false).hit)
            << "access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlruLruEquiv,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Offline MIN lower-bounds every online policy on fixed traces.
// ---------------------------------------------------------------------

struct MinBoundParam
{
    const char *policy;
    std::uint64_t seed;
};

// Parameter printers name each ctest case by its values instead of
// the raw bytes (pointers, padding) gtest would print otherwise.
void
PrintTo(const MinBoundParam &p, std::ostream *os)
{
    *os << p.policy << " seed=" << p.seed;
}

class MinLowerBound : public ::testing::TestWithParam<MinBoundParam>
{
};

TEST_P(MinLowerBound, MinNeverMissesMore)
{
    const auto param = GetParam();
    CacheGeometry geom;
    geom.sizeBytes = 2_KiB;
    geom.assoc = 4;

    Rng rng(param.seed);
    std::vector<Addr> trace;
    Addr prev = 0;
    for (int i = 0; i < 15000; ++i) {
        Addr a;
        if (i > 0 && rng.nextBool(0.35))
            a = prev;
        else
            a = rng.nextBounded(160) * kBlockSize;
        trace.push_back(a);
        prev = a;
    }

    SetAssociativeCache cache(geom,
                              makeReplacementPolicy(param.policy, 7));
    for (const Addr a : trace)
        cache.access(a, false);

    const auto min = simulateMinFixedTrace(trace, geom);
    EXPECT_LE(min.misses, cache.stats().misses) << param.policy;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MinLowerBound,
    ::testing::Values(MinBoundParam{"lru", 11}, MinBoundParam{"plru", 12},
                      MinBoundParam{"random", 13},
                      MinBoundParam{"srrip", 14}, MinBoundParam{"eva", 15},
                      MinBoundParam{"drrip", 16},
                      MinBoundParam{"cost-lru", 17},
                      MinBoundParam{"eva-typed", 18},
                      MinBoundParam{"drrip-typed", 19}));

// ---------------------------------------------------------------------
// Layout invariants across sizes and counter modes.
// ---------------------------------------------------------------------

struct LayoutParam
{
    std::uint64_t bytes;
    CounterMode mode;
};

void
PrintTo(const LayoutParam &p, std::ostream *os)
{
    const std::uint64_t kib = p.bytes >> 10;
    *os << counterModeName(p.mode) << ' ';
    if (kib >= (1u << 20))
        *os << (kib >> 20) << "GiB";
    else if (kib >= (1u << 10))
        *os << (kib >> 10) << "MiB";
    else
        *os << kib << "KiB";
}

class LayoutSweep : public ::testing::TestWithParam<LayoutParam>
{
};

TEST_P(LayoutSweep, GeometryInvariants)
{
    LayoutConfig cfg;
    cfg.protectedBytes = GetParam().bytes;
    cfg.counterMode = GetParam().mode;
    MetadataLayout layout(cfg);

    // Counter blocks exactly cover the protected region.
    EXPECT_EQ(layout.numCounterBlocks() * layout.counterBlockCoverage(),
              cfg.protectedBytes);
    // Hash blocks exactly cover the data blocks.
    EXPECT_EQ(layout.numHashBlocks(),
              ceilDiv(layout.numDataBlocks(), 8));
    // Tree shrinks by arity and ends in one block.
    EXPECT_EQ(layout.treeLevelBlockCount(layout.numTreeLevels() - 1), 1u);
    for (std::uint32_t l = 1; l < layout.numTreeLevels(); ++l) {
        EXPECT_EQ(layout.treeLevelBlockCount(l),
                  ceilDiv(layout.treeLevelBlockCount(l - 1), 8));
    }
    // Every counter maps to a leaf whose ancestors chain to the root.
    for (std::uint64_t i = 0; i < layout.numCounterBlocks();
         i += std::max<std::uint64_t>(1, layout.numCounterBlocks() / 7)) {
        const Addr ctr = MetadataLayout::encode(MetadataType::Counter, 0,
                                                i);
        const auto path = layout.treePathForCounter(ctr);
        EXPECT_EQ(path.size(), layout.numTreeLevels());
        for (std::size_t p = 1; p < path.size(); ++p)
            EXPECT_EQ(layout.treeParent(path[p - 1]), path[p]);
    }
    // Coverage doubles by arity per level.
    for (std::uint32_t l = 1; l < layout.numTreeLevels(); ++l) {
        EXPECT_EQ(layout.treeBlockCoverage(l),
                  8 * layout.treeBlockCoverage(l - 1));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LayoutSweep,
    ::testing::Values(LayoutParam{4_KiB, CounterMode::SplitPi},
                      LayoutParam{1_MiB, CounterMode::SplitPi},
                      LayoutParam{64_MiB, CounterMode::SplitPi},
                      LayoutParam{4_GiB, CounterMode::SplitPi},
                      LayoutParam{1_MiB, CounterMode::MonolithicSgx},
                      LayoutParam{64_MiB, CounterMode::MonolithicSgx},
                      LayoutParam{4_GiB, CounterMode::MonolithicSgx}));

// ---------------------------------------------------------------------
// Controller accounting invariants across the configuration matrix.
// ---------------------------------------------------------------------

struct CtrlParam
{
    bool cacheEnabled;
    bool counters, hashes, tree;
    bool lazy;
    bool speculation;
    bool partialWrites;
    bool prefetch;
    CounterMode mode;
};

class ControllerMatrix : public ::testing::TestWithParam<CtrlParam>
{
};

TEST_P(ControllerMatrix, AccountingConsistent)
{
    const auto p = GetParam();
    SimConfig cfg;
    cfg.benchmark = "fft";
    cfg.warmupRefs = 30'000;
    cfg.measureRefs = 150'000;
    cfg.useDram = false;
    cfg.secure.layout.protectedBytes = 64_MiB;
    cfg.secure.layout.counterMode = p.mode;
    cfg.secure.cacheEnabled = p.cacheEnabled;
    cfg.secure.cache.cacheCounters = p.counters;
    cfg.secure.cache.cacheHashes = p.hashes;
    cfg.secure.cache.cacheTree = p.tree;
    cfg.secure.lazyTreeUpdate = p.lazy;
    cfg.secure.speculation = p.speculation;
    cfg.secure.cache.partialWrites = p.partialWrites;
    cfg.secure.prefetchNextMetadata = p.prefetch;

    const auto report = runBenchmark(cfg);
    const auto &ctl = report.controller;

    // 1. Every DRAM access the controller performed reached memory.
    EXPECT_EQ(report.memory.accesses(), ctl.totalMemAccesses());
    // 2. Each read request reads its data block exactly once.
    EXPECT_EQ(ctl.memReads[static_cast<int>(MemCategory::Data)],
              ctl.readRequests);
    // 3. Each writeback writes its data block exactly once.
    EXPECT_EQ(ctl.memWrites[static_cast<int>(MemCategory::Data)],
              ctl.writeRequests);
    // 4. Metadata cache accounting: hits + misses + bypasses == taps.
    const auto &md = report.mdCache;
    for (unsigned t = 0; t < kNumMetadataTypes; ++t) {
        EXPECT_EQ(md.accesses[t],
                  md.hits[t] + md.misses[t] + md.bypasses[t]);
    }
    // 5. Counters and hashes are touched at least once per request.
    EXPECT_GE(md.accesses[static_cast<int>(MetadataType::Counter)],
              ctl.requests());
    EXPECT_GE(md.accesses[static_cast<int>(MetadataType::Hash)],
              ctl.requests());
    // 6. Latency accounting is sane.
    EXPECT_GT(ctl.avgReadLatency(), 0.0);
    EXPECT_GE(report.cycles, report.instructions);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ControllerMatrix,
    ::testing::Values(
        CtrlParam{true, true, true, true, true, true, false, false,
                  CounterMode::SplitPi},
        CtrlParam{true, true, true, true, true, false, false, false,
                  CounterMode::SplitPi},
        CtrlParam{true, true, false, false, true, true, false, false,
                  CounterMode::SplitPi},
        CtrlParam{true, true, true, false, true, true, true, false,
                  CounterMode::SplitPi},
        CtrlParam{true, false, true, true, true, true, false, false,
                  CounterMode::SplitPi},
        CtrlParam{true, true, true, true, false, true, false, false,
                  CounterMode::SplitPi},
        CtrlParam{false, true, true, true, true, true, false, false,
                  CounterMode::SplitPi},
        CtrlParam{true, true, true, true, true, true, false, true,
                  CounterMode::SplitPi},
        CtrlParam{true, true, true, true, true, true, true, true,
                  CounterMode::MonolithicSgx},
        CtrlParam{false, true, true, true, false, false, false, false,
                  CounterMode::MonolithicSgx}));

// ---------------------------------------------------------------------
// Hierarchy: writebacks only for blocks previously read, all aligned.
// ---------------------------------------------------------------------

class HierarchyProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HierarchyProperty, WritebacksFollowReads)
{
    HierarchyConfig cfg;
    cfg.l1Bytes = 1_KiB;
    cfg.l2Bytes = 4_KiB;
    cfg.llcBytes = 16_KiB;
    CacheHierarchy h(cfg);

    std::unordered_set<Addr> read_blocks;
    bool ok = true;
    h.setRequestSink([&](const MemoryRequest &req) {
        if (req.addr % kBlockSize != 0)
            ok = false;
        if (req.kind == RequestKind::Read)
            read_blocks.insert(req.addr);
        else if (!read_blocks.count(req.addr))
            ok = false; // writeback of a block never fetched
    });

    Rng rng(GetParam());
    for (int i = 0; i < 30000; ++i) {
        MemRef ref;
        ref.addr = rng.nextBounded(4096) * 8;
        ref.type = rng.nextBool(0.4) ? AccessType::Write
                                     : AccessType::Read;
        ref.instGap = 1;
        h.access(ref);
    }
    EXPECT_TRUE(ok);
    EXPECT_GT(h.stats().llcWritebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyProperty,
                         ::testing::Values(21, 22, 23));

// ---------------------------------------------------------------------
// Reuse analyzer conservation: recorded + cold == observed.
// ---------------------------------------------------------------------

TEST(ReuseConservation, CountsAddUp)
{
    ReuseDistanceAnalyzer analyzer;
    Rng rng(31);
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        analyzer.observe(rng.nextBounded(300) * kBlockSize,
                         static_cast<MetadataType>(rng.nextBounded(3)),
                         rng.nextBool(0.3) ? AccessType::Write
                                           : AccessType::Read);
    }
    std::uint64_t recorded = 0, cold = 0, accesses = 0;
    for (unsigned t = 0; t < 3; ++t) {
        const auto type = static_cast<MetadataType>(t);
        recorded += analyzer.typeHistogram(type).totalCount();
        cold += analyzer.coldMisses(type);
        accesses += analyzer.accesses(type);
    }
    EXPECT_EQ(recorded + cold, accesses);
    EXPECT_EQ(accesses, static_cast<std::uint64_t>(n));
    EXPECT_EQ(cold, analyzer.uniqueBlocks());
}

} // namespace
} // namespace maps
