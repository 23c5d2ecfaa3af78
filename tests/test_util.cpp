/**
 * @file
 * Unit tests for the util module: bit ops, RNG, histograms, CDFs,
 * statistics, and table formatting.
 */
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "util/arena.hpp"
#include "util/bitops.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/types.hpp"

namespace maps {
namespace {

TEST(BitOps, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(BitOps, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(1ull << 63), 63u);
}

TEST(BitOps, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
}

TEST(BitOps, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 8), 0u);
    EXPECT_EQ(ceilDiv(1, 8), 1u);
    EXPECT_EQ(ceilDiv(8, 8), 1u);
    EXPECT_EQ(ceilDiv(9, 8), 2u);
}

TEST(BitOps, Bits)
{
    EXPECT_EQ(bits(0xFF00, 8, 8), 0xFFu);
    EXPECT_EQ(bits(0xABCD, 0, 4), 0xDu);
    EXPECT_EQ(bits(~std::uint64_t{0}, 60, 4), 0xFu);
}

TEST(Types, SizeLiterals)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
    EXPECT_EQ(4_GiB, 4ull << 30);
}

TEST(Types, BlockHelpers)
{
    EXPECT_EQ(blockAlign(0x12345), 0x12340u);
    EXPECT_EQ(blockIndex(0x12345), 0x12345u >> 6);
    EXPECT_EQ(pageIndex(0x12345), 0x12u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int heads = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        heads += rng.nextBool(0.3);
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng rng(17);
    const double p = 0.25;
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    EXPECT_NEAR(sum / n, 1.0 / p, 0.2);
}

TEST(Zipf, UniformWhenThetaZero)
{
    Rng rng(19);
    ZipfSampler zipf(10, 0.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 50000; ++i)
        counts[zipf.sample(rng)]++;
    for (const auto &[rank, count] : counts)
        EXPECT_NEAR(count / 50000.0, 0.1, 0.02);
}

TEST(Zipf, SkewFavorsLowRanks)
{
    Rng rng(23);
    ZipfSampler zipf(1000, 0.99);
    std::uint64_t low = 0, total = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto rank = zipf.sample(rng);
        EXPECT_LT(rank, 1000u);
        low += rank < 10;
        ++total;
    }
    // With theta=0.99 the top-10 ranks get a large share.
    EXPECT_GT(static_cast<double>(low) / static_cast<double>(total), 0.25);
}

TEST(Zipf, SingleItem)
{
    Rng rng(29);
    ZipfSampler zipf(1, 0.9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(Log2Histogram, BucketBoundaries)
{
    EXPECT_EQ(Log2Histogram::bucketLo(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketHi(0), 1u);
    EXPECT_EQ(Log2Histogram::bucketLo(4), 8u);
    EXPECT_EQ(Log2Histogram::bucketHi(4), 16u);
}

TEST(Log2Histogram, CumulativeMonotone)
{
    Log2Histogram hist;
    for (std::uint64_t v : {0, 1, 1, 3, 9, 100, 5000})
        hist.add(v);
    double prev = -1.0;
    for (std::uint64_t x = 0; x <= 8192; x = x ? x * 2 : 1) {
        const double c = hist.cumulativeAtOrBelow(x);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_DOUBLE_EQ(hist.cumulativeAtOrBelow(1u << 20), 1.0);
}

TEST(Log2Histogram, Merge)
{
    Log2Histogram a, b;
    a.add(5);
    b.add(500);
    a.merge(b);
    EXPECT_EQ(a.totalCount(), 2u);
}

TEST(ExactHistogram, CumulativeAndQuantile)
{
    ExactHistogram hist;
    hist.add(10, 5);
    hist.add(20, 3);
    hist.add(30, 2);
    EXPECT_DOUBLE_EQ(hist.cumulativeAtOrBelow(9), 0.0);
    EXPECT_DOUBLE_EQ(hist.cumulativeAtOrBelow(10), 0.5);
    EXPECT_DOUBLE_EQ(hist.cumulativeAtOrBelow(20), 0.8);
    EXPECT_DOUBLE_EQ(hist.cumulativeAtOrBelow(30), 1.0);
    EXPECT_EQ(hist.quantile(0.5), 10u);
    EXPECT_EQ(hist.quantile(0.79), 20u);
    EXPECT_EQ(hist.quantile(1.0), 30u);
}

TEST(ExactHistogram, Mean)
{
    ExactHistogram hist;
    hist.add(2, 1);
    hist.add(4, 1);
    EXPECT_DOUBLE_EQ(hist.mean(), 3.0);
    ExactHistogram empty;
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(Stats, GeometricMean)
{
    EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
}

TEST(TextTable, FormatHelpers)
{
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::fmt(std::uint64_t{42}), "42");
    EXPECT_EQ(TextTable::fmtSize(64_KiB), "64KB");
    EXPECT_EQ(TextTable::fmtSize(2_MiB), "2MB");
    EXPECT_EQ(TextTable::fmtSize(4_GiB), "4GB");
    EXPECT_EQ(TextTable::fmtSize(100), "100B");
}

TEST(TextTable, PrintsAlignedRows)
{
    TextTable table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    EXPECT_EQ(table.rows(), 2u);
}

TEST(CsvWriter, EscapesSpecials)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.writeRow({"a", "b,c", "d\"e"});
    EXPECT_EQ(os.str(), "a,\"b,c\",\"d\"\"e\"\n");
}

TEST(Arena, AlignsZeroesAndPersists)
{
    Arena arena(256); // small chunks force multi-chunk growth
    auto *words = arena.allocate<std::uint64_t>(10);
    ASSERT_NE(words, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words) % 64, 0u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(words[i], 0u);
    words[0] = 42;

    // An allocation larger than the chunk size gets its own chunk;
    // earlier pointers stay valid.
    auto *big = arena.allocate<std::uint8_t>(4096);
    ASSERT_NE(big, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big) % 64, 0u);
    EXPECT_EQ(big[0], 0u);
    EXPECT_EQ(big[4095], 0u);
    EXPECT_EQ(words[0], 42u);

    EXPECT_EQ(arena.allocate<std::uint64_t>(0), nullptr);
    EXPECT_GE(arena.reservedBytes(), arena.allocatedBytes());
    // Each allocation is rounded up to whole 64-byte lines.
    EXPECT_EQ(arena.allocatedBytes() % 64, 0u);
}

TEST(Arena, DistinctAllocationsDoNotOverlap)
{
    Arena arena;
    auto *a = arena.allocate<std::uint32_t>(16);
    auto *b = arena.allocate<std::uint32_t>(16);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    for (int i = 0; i < 16; ++i)
        a[i] = 0xA0A0A0A0u;
    for (int i = 0; i < 16; ++i)
        b[i] = 0x0B0B0B0Bu;
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a[i], 0xA0A0A0A0u);
}

} // namespace
} // namespace maps
