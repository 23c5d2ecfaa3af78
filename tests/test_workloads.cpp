/**
 * @file
 * Tests for workload generators and the benchmark registry.
 */
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "workloads/generators.hpp"
#include "workloads/suite.hpp"

namespace maps {
namespace {

std::vector<MemRef>
collect(AccessGenerator &gen, std::size_t n)
{
    std::vector<MemRef> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        refs.push_back(gen.next());
    return refs;
}

double
writeFraction(const std::vector<MemRef> &refs)
{
    std::size_t writes = 0;
    for (const auto &ref : refs)
        writes += ref.isWrite();
    return static_cast<double>(writes) / static_cast<double>(refs.size());
}

double
meanInstGap(const std::vector<MemRef> &refs)
{
    InstCount instructions = 0;
    for (const auto &ref : refs)
        instructions += ref.instGap;
    return static_cast<double>(instructions) /
           static_cast<double>(refs.size());
}

TEST(StreamGenerator, SequentialAndWraps)
{
    StreamGenerator gen(4 * kBlockSize, 0.0, kBlockSize, 1);
    const auto refs = collect(gen, 8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(refs[i].addr, static_cast<Addr>(i % 4) * kBlockSize);
}

TEST(StreamGenerator, WriteFraction)
{
    StreamGenerator gen(1_MiB, 0.25, kBlockSize, 7);
    EXPECT_NEAR(writeFraction(collect(gen, 50000)), 0.25, 0.02);
}

TEST(StreamGenerator, BaseOffsetApplied)
{
    StreamGenerator gen(4 * kBlockSize, 0.0, kBlockSize, 1, 4.0, 1_MiB);
    EXPECT_EQ(gen.next().addr, 1_MiB);
}

TEST(StreamGenerator, InstGapMean)
{
    StreamGenerator gen(1_MiB, 0.0, kBlockSize, 3, 5.0);
    EXPECT_NEAR(meanInstGap(collect(gen, 50000)), 5.0, 0.3);
}

TEST(RandomGenerator, StaysWithinFootprint)
{
    RandomGenerator gen(1_MiB, 0.5, 11);
    for (const auto &ref : collect(gen, 10000))
        EXPECT_LT(ref.addr, 1_MiB);
}

TEST(RandomGenerator, CoversFootprint)
{
    RandomGenerator gen(64 * kBlockSize, 0.0, 13);
    std::unordered_set<Addr> blocks;
    for (const auto &ref : collect(gen, 5000))
        blocks.insert(blockIndex(ref.addr));
    EXPECT_EQ(blocks.size(), 64u);
}

TEST(ZipfGenerator, SkewConcentratesAccesses)
{
    ZipfGenerator gen(8_MiB, 0.99, 0.0, 1, 17);
    std::unordered_map<Addr, int> counts;
    const int n = 50000;
    for (const auto &ref : collect(gen, n))
        counts[blockIndex(ref.addr)]++;
    int hot = 0;
    for (const auto &[blk, c] : counts)
        if (c > n / 1000)
            hot += c;
    // A heavily skewed distribution concentrates a large share in a
    // few blocks.
    EXPECT_GT(hot, n / 4);
}

TEST(ZipfGenerator, RunLengthAddsSpatialLocality)
{
    ZipfGenerator gen(8_MiB, 0.5, 0.0, 4, 19);
    const auto refs = collect(gen, 4000);
    int sequential = 0;
    for (std::size_t i = 1; i < refs.size(); ++i) {
        if (blockIndex(refs[i].addr) == blockIndex(refs[i - 1].addr) + 1)
            ++sequential;
    }
    // Three of every four steps inside a run are sequential.
    EXPECT_GT(sequential, 2000);
}

TEST(StencilGenerator, StaysWithinGrid)
{
    StencilGenerator gen(16, 16, 4, 8, 3, 23);
    const std::uint64_t footprint = gen.footprintBytes();
    EXPECT_EQ(footprint, 16u * 16 * 4 * 8);
    for (const auto &ref : collect(gen, 20000))
        EXPECT_LT(ref.addr, footprint);
}

TEST(StencilGenerator, WriteEveryControlsWrites)
{
    StencilGenerator dense(64, 64, 8, 8, 1, 29);
    StencilGenerator sparse(64, 64, 8, 8, 16, 29);
    EXPECT_GT(writeFraction(collect(dense, 40000)),
              writeFraction(collect(sparse, 40000)) * 4);
}

TEST(StencilGenerator, TwoDimensionalSkipsZPhases)
{
    StencilGenerator gen(32, 32, 1, 8, 4, 31);
    // Just exercise it; addresses must stay in the 2D plane.
    for (const auto &ref : collect(gen, 5000))
        EXPECT_LT(ref.addr, 32u * 32 * 8);
}

TEST(PointerChaseGenerator, VisitsEveryBlockOnce)
{
    const std::uint64_t blocks = 128;
    PointerChaseGenerator gen(blocks * kBlockSize, 0.0, 37);
    std::unordered_set<Addr> seen;
    for (const auto &ref : collect(gen, blocks))
        seen.insert(blockIndex(ref.addr));
    // Sattolo cycle: all blocks visited before any repeats.
    EXPECT_EQ(seen.size(), blocks);
}

TEST(PointerChaseGenerator, LowSpatialLocality)
{
    PointerChaseGenerator gen(4_MiB, 0.0, 41);
    const auto refs = collect(gen, 10000);
    int adjacent = 0;
    for (std::size_t i = 1; i < refs.size(); ++i) {
        const auto a = blockIndex(refs[i].addr);
        const auto b = blockIndex(refs[i - 1].addr);
        if (a == b + 1 || b == a + 1)
            ++adjacent;
    }
    EXPECT_LT(adjacent, 50);
}

TEST(TransposeGenerator, PhasesAlternate)
{
    // 4x4 matrix of 64B elements: first pass sequential, second pass
    // column-major.
    TransposeGenerator gen(4, 4, kBlockSize, 0.0, 43);
    const auto refs = collect(gen, 32);
    // Row phase: addresses increase by one block.
    for (int i = 1; i < 16; ++i)
        EXPECT_EQ(refs[i].addr, refs[i - 1].addr + kBlockSize);
    // Column phase: stride is one row (4 blocks), wrapping per column.
    EXPECT_EQ(refs[16].addr, 0u);
    EXPECT_EQ(refs[17].addr, 4 * kBlockSize);
    EXPECT_EQ(refs[18].addr, 8 * kBlockSize);
}

TEST(TransposeGenerator, FootprintMatches)
{
    TransposeGenerator gen(64, 32, 8, 0.2, 47);
    EXPECT_EQ(gen.footprintBytes(), 64u * 32 * 8);
    for (const auto &ref : collect(gen, 20000))
        EXPECT_LT(ref.addr, gen.footprintBytes());
}

TEST(MixtureGenerator, RespectsWeights)
{
    std::vector<std::unique_ptr<AccessGenerator>> parts;
    parts.push_back(
        std::make_unique<StreamGenerator>(1_MiB, 0.0, kBlockSize, 1, 4.0,
                                          0));
    parts.push_back(
        std::make_unique<StreamGenerator>(1_MiB, 0.0, kBlockSize, 2, 4.0,
                                          16_MiB));
    MixtureGenerator gen(std::move(parts), {0.8, 0.2}, 10, 53);
    std::uint64_t low = 0, high = 0;
    for (const auto &ref : collect(gen, 50000)) {
        if (ref.addr < 16_MiB)
            ++low;
        else
            ++high;
    }
    EXPECT_NEAR(static_cast<double>(low) / 50000.0, 0.8, 0.05);
}

TEST(Generators, ResetReproducesStream)
{
    const auto spec = findBenchmark("fft");
    ASSERT_NE(spec, nullptr);
    auto gen = spec->factory(99);
    const auto first = collect(*gen, 1000);
    gen->reset();
    const auto second = collect(*gen, 1000);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].addr, second[i].addr);
        EXPECT_EQ(first[i].type, second[i].type);
        EXPECT_EQ(first[i].instGap, second[i].instGap);
    }
}

TEST(Suite, RegistryComplete)
{
    const auto &suite = benchmarkSuite();
    EXPECT_GE(suite.size(), 12u);
    std::set<std::string> names;
    for (const auto &spec : suite) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_FALSE(spec.character.empty());
        EXPECT_GT(spec.footprintBytes, 0u);
        EXPECT_TRUE(spec.factory != nullptr);
        names.insert(spec.name);
    }
    EXPECT_EQ(names.size(), suite.size()) << "duplicate benchmark names";
}

TEST(Suite, PaperBenchmarksPresent)
{
    for (const char *name :
         {"canneal", "libquantum", "fft", "leslie3d", "mcf", "barnes",
          "cactusADM", "perl"}) {
        EXPECT_NE(findBenchmark(name), nullptr) << name;
    }
}

TEST(Suite, Figure3BenchmarksResolve)
{
    for (const auto &name : figure3Benchmarks())
        EXPECT_NE(findBenchmark(name), nullptr) << name;
    EXPECT_EQ(figure3Benchmarks().size(), 6u);
}

TEST(Suite, MemoryIntensiveFilter)
{
    const auto all = benchmarkNames(false);
    const auto intensive = benchmarkNames(true);
    EXPECT_LT(intensive.size(), all.size());
    EXPECT_GE(intensive.size(), 8u);
}

TEST(Suite, GeneratorsAreDeterministicAcrossInstances)
{
    for (const auto &name : {"canneal", "libquantum", "mcf"}) {
        auto a = makeBenchmark(name, 5);
        auto b = makeBenchmark(name, 5);
        for (int i = 0; i < 500; ++i) {
            const auto ra = a->next();
            const auto rb = b->next();
            EXPECT_EQ(ra.addr, rb.addr);
            EXPECT_EQ(ra.type, rb.type);
        }
    }
}

TEST(Suite, LibquantumStreamsFourMegabytes)
{
    auto gen = makeBenchmark("libquantum", 3);
    Addr max_addr = 0;
    for (int i = 0; i < 600000; ++i) // one full pass at 8B granularity
        max_addr = std::max(max_addr, gen->next().addr);
    EXPECT_LT(max_addr, 4_MiB);
    EXPECT_GT(max_addr, 3_MiB);
}

TEST(Suite, FftWriteFractionNearTwentyPercent)
{
    auto gen = makeBenchmark("fft", 3);
    std::uint64_t writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += gen->next().isWrite();
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.20, 0.03);
}

TEST(Suite, Leslie3dWriteFractionNearFivePercent)
{
    auto gen = makeBenchmark("leslie3d", 3);
    std::uint64_t writes = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        writes += gen->next().isWrite();
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.05, 0.02);
}

/**
 * The fast-forward seam (AccessGenerator::skip) must be bit-exact with
 * consuming: skip(n) then next() has to yield exactly the stream a
 * consuming generator produces after n next() calls. The sampled
 * execution mode and SimConfig::skipRefs depend on this for every
 * registered benchmark, so the regression sweeps the whole registry
 * plus a multiprogrammed mix.
 */
TEST(Suite, SkipMatchesConsumeForEveryBenchmark)
{
    auto names = benchmarkNames(false);
    names.push_back("mix:canneal+libquantum");
    for (const auto &name : names) {
        // Split an 8000-ref prefix at a few odd offsets (exercising
        // phase boundaries of the stencil/transpose generators).
        for (const std::uint64_t cut : {1ull, 777ull, 4096ull, 6001ull}) {
            auto consumed = makeBenchmark(name, 11);
            auto skipped = makeBenchmark(name, 11);
            for (std::uint64_t i = 0; i < cut; ++i)
                consumed->next();
            skipped->skip(cut);
            for (int i = 0; i < 2000; ++i) {
                const auto rc = consumed->next();
                const auto rs = skipped->next();
                ASSERT_EQ(rc.addr, rs.addr)
                    << name << " cut " << cut << " ref " << i;
                ASSERT_EQ(rc.type, rs.type)
                    << name << " cut " << cut << " ref " << i;
                ASSERT_EQ(rc.instGap, rs.instGap)
                    << name << " cut " << cut << " ref " << i;
            }
        }
    }
}

} // namespace
} // namespace maps
