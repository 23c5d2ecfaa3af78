/**
 * @file
 * Tests for the cache substrate: geometry, the set-associative array,
 * LRU/PLRU/random/SRRIP policies, and way partitioning.
 */
#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/partition.hpp"
#include "cache/policy_lru.hpp"
#include "util/rng.hpp"

namespace maps {
namespace {

SetAssociativeCache
makeCache(std::uint64_t size, std::uint32_t assoc,
          const std::string &policy = "lru",
          std::unique_ptr<WayPartition> partition = nullptr)
{
    CacheGeometry geom;
    geom.sizeBytes = size;
    geom.assoc = assoc;
    return SetAssociativeCache(geom, makeReplacementPolicy(policy),
                               std::move(partition));
}

TEST(Geometry, DerivedQuantities)
{
    CacheGeometry geom;
    geom.sizeBytes = 64_KiB;
    geom.assoc = 8;
    geom.validate();
    EXPECT_EQ(geom.numSets(), 128u);
    EXPECT_EQ(geom.numLines(), 1024u);
}

TEST(Geometry, SetAndTag)
{
    CacheGeometry geom;
    geom.sizeBytes = 8_KiB;
    geom.assoc = 2;
    geom.validate(); // 64 sets
    const Addr addr = (5ull * 64) + (3ull * 64 * 64); // set 5, tag 3
    EXPECT_EQ(geom.setIndexOf(addr), 5u);
    EXPECT_EQ(geom.tagOf(addr), 3u);
}

TEST(Cache, HitAfterFill)
{
    auto cache = makeCache(4_KiB, 4);
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1020, false).hit) << "same block";
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, WriteMakesDirtyEviction)
{
    auto cache = makeCache(2 * kBlockSize, 2); // 1 set, 2 ways
    cache.access(0, true);
    cache.access(64, false);
    const auto out = cache.access(128, false); // evicts block 0 (LRU)
    ASSERT_TRUE(out.evictedValid);
    EXPECT_EQ(out.evictedAddr, 0u);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, CleanEvictionNotDirty)
{
    auto cache = makeCache(2 * kBlockSize, 2);
    cache.access(0, false);
    cache.access(64, false);
    const auto out = cache.access(128, false);
    ASSERT_TRUE(out.evictedValid);
    EXPECT_FALSE(out.evictedDirty);
}

TEST(Cache, LruOrderExact)
{
    auto cache = makeCache(4 * kBlockSize, 4); // 1 set, 4 ways
    for (Addr a : {0, 64, 128, 192})
        cache.access(a, false);
    cache.access(0, false); // 0 becomes MRU; LRU is 64
    const auto out = cache.access(256, false);
    ASSERT_TRUE(out.evictedValid);
    EXPECT_EQ(out.evictedAddr, 64u);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    auto cache = makeCache(2 * kBlockSize, 2);
    cache.access(0, false);
    cache.access(64, false);
    EXPECT_TRUE(cache.probe(0));
    // Probe must not refresh recency: 0 is still LRU.
    const auto out = cache.access(128, false);
    EXPECT_EQ(out.evictedAddr, 0u);
    const auto hits = cache.stats().hits;
    EXPECT_EQ(hits, 0u);
}

TEST(Cache, InvalidateRemovesLine)
{
    auto cache = makeCache(4_KiB, 4);
    cache.access(0x40, true);
    bool dirty = false;
    EXPECT_TRUE(cache.invalidate(0x40, &dirty));
    EXPECT_TRUE(dirty);
    EXPECT_FALSE(cache.probe(0x40));
    EXPECT_FALSE(cache.invalidate(0x40));
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(Cache, CleanLineClearsDirty)
{
    auto cache = makeCache(2 * kBlockSize, 2);
    cache.access(0, true);
    EXPECT_TRUE(cache.cleanLine(0));
    cache.access(64, false);
    const auto out = cache.access(128, false);
    ASSERT_TRUE(out.evictedValid);
    EXPECT_FALSE(out.evictedDirty);
    EXPECT_FALSE(cache.cleanLine(0x7777));
}

TEST(Cache, PerTypeStats)
{
    auto cache = makeCache(4_KiB, 4);
    cache.access(0, false, 0);
    cache.access(64, false, 1);
    cache.access(64, false, 1);
    EXPECT_EQ(cache.stats().missesByType[0], 1u);
    EXPECT_EQ(cache.stats().missesByType[1], 1u);
    EXPECT_EQ(cache.stats().hitsByType[1], 1u);
}

TEST(Cache, ForEachLineSeesResidents)
{
    auto cache = makeCache(4_KiB, 4);
    cache.access(0x000, true, 2);
    cache.access(0x100, false, 1);
    std::vector<ReplLineInfo> lines;
    cache.forEachLine(
        [&lines](const ReplLineInfo &info) { lines.push_back(info); });
    ASSERT_EQ(lines.size(), 2u);
}

/**
 * Reference LRU model: list-based, exact. The SetAssociativeCache with
 * TrueLruPolicy must agree on every access over random streams.
 */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), state_(sets)
    {
    }

    bool
    access(Addr addr)
    {
        const Addr block = blockAlign(addr);
        auto &set = state_[(block / kBlockSize) % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == block) {
                set.splice(set.begin(), set, it);
                return true;
            }
        }
        if (set.size() >= ways_)
            set.pop_back();
        set.push_front(block);
        return false;
    }

  private:
    std::uint32_t sets_, ways_;
    std::vector<std::list<Addr>> state_;
};

struct LruEquivParam
{
    std::uint64_t size;
    // 64-bit so the struct has no padding: gtest prints the raw bytes
    // into the ctest case name, which must not vary between builds.
    std::uint64_t assoc;
    std::uint64_t footprint;
};

class LruEquivalence : public ::testing::TestWithParam<LruEquivParam>
{
};

TEST_P(LruEquivalence, MatchesReferenceModel)
{
    const auto param = GetParam();
    const auto assoc = static_cast<std::uint32_t>(param.assoc);
    auto cache = makeCache(param.size, assoc);
    ReferenceLru ref(cache.geometry().numSets(), assoc);

    Rng rng(1234);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.nextBounded(param.footprint / kBlockSize) *
                          kBlockSize;
        const bool model_hit = cache.access(addr, false).hit;
        const bool ref_hit = ref.access(addr);
        ASSERT_EQ(model_hit, ref_hit) << "access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LruEquivalence,
    ::testing::Values(LruEquivParam{1_KiB, 1, 8_KiB},
                      LruEquivParam{1_KiB, 2, 8_KiB},
                      LruEquivParam{2_KiB, 4, 16_KiB},
                      LruEquivParam{4_KiB, 8, 8_KiB},
                      LruEquivParam{8_KiB, 16, 64_KiB},
                      LruEquivParam{64_KiB, 8, 256_KiB}));

struct PolicyParam
{
    const char *name;
};

// Names the ctest case after the policy, not the pointer's bytes.
void
PrintTo(const PolicyParam &p, std::ostream *os)
{
    *os << p.name;
}

class EveryPolicy : public ::testing::TestWithParam<PolicyParam>
{
};

TEST_P(EveryPolicy, NeverEvictsWhenInvalidWaysExist)
{
    auto cache = makeCache(4 * kBlockSize, 4, GetParam().name);
    for (Addr a : {0, 64, 128})
        EXPECT_FALSE(cache.access(a, false).evictedValid);
}

TEST_P(EveryPolicy, HitRateOnTinyLoopIsPerfect)
{
    auto cache = makeCache(8 * kBlockSize, 8, GetParam().name);
    // Working set of 4 blocks in an 8-way set: after the cold pass,
    // every policy must hit forever.
    for (int round = 0; round < 10; ++round) {
        for (Addr a : {0, 64, 128, 192}) {
            const bool hit = cache.access(a, false).hit;
            if (round > 0)
                EXPECT_TRUE(hit);
        }
    }
    EXPECT_EQ(cache.stats().misses, 4u);
}

TEST_P(EveryPolicy, EvictionsReportResidentBlocks)
{
    auto cache = makeCache(4 * kBlockSize, 4, GetParam().name);
    Rng rng(5);
    std::uint64_t evictions = 0;
    for (int i = 0; i < 3000; ++i) {
        const Addr addr = rng.nextBounded(64) * kBlockSize;
        const auto out = cache.access(addr, rng.nextBool(0.3));
        if (out.evictedValid) {
            ++evictions;
            EXPECT_NE(out.evictedAddr, kInvalidAddr);
            EXPECT_FALSE(cache.probe(out.evictedAddr));
        }
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(cache.stats().evictions, evictions);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EveryPolicy,
                         ::testing::Values(PolicyParam{"lru"},
                                           PolicyParam{"plru"},
                                           PolicyParam{"random"},
                                           PolicyParam{"srrip"},
                                           PolicyParam{"eva"},
                                           PolicyParam{"eva-typed"}));

TEST(Plru, ApproximatesLruOnScans)
{
    // PLRU on a repeated scan of set-size+1 blocks thrashes like LRU.
    auto cache = makeCache(4 * kBlockSize, 4, "plru");
    std::uint64_t misses = 0;
    for (int round = 0; round < 50; ++round) {
        for (Addr a = 0; a < 5 * kBlockSize; a += kBlockSize)
            misses += !cache.access(a, false).hit;
    }
    // Far more misses than the 5 cold ones (thrash behaviour).
    EXPECT_GT(misses, 100u);
}

TEST(Partition, StaticMasksByType)
{
    StaticPartition part(3);
    part.init(16, 8);
    ReplContext counter_ctx;
    counter_ctx.typeClass =
        static_cast<std::uint8_t>(MetadataType::Counter);
    ReplContext hash_ctx;
    hash_ctx.typeClass = static_cast<std::uint8_t>(MetadataType::Hash);
    ReplContext tree_ctx;
    tree_ctx.typeClass = static_cast<std::uint8_t>(MetadataType::TreeNode);

    EXPECT_EQ(part.allowedWays(0, counter_ctx), 0b00000111u);
    EXPECT_EQ(part.allowedWays(0, hash_ctx), 0b11111000u);
    EXPECT_EQ(part.allowedWays(0, tree_ctx), 0b11111111u);
}

TEST(Partition, StaticKeepsTypesApart)
{
    auto cache = makeCache(8 * kBlockSize, 8, "lru",
                           std::make_unique<StaticPartition>(4));
    const auto ctr = static_cast<std::uint8_t>(MetadataType::Counter);
    const auto hsh = static_cast<std::uint8_t>(MetadataType::Hash);
    // Fill 6 counter blocks: only 4 ways available, so 2 evictions, and
    // the 4 hash blocks must be untouched by them.
    for (Addr a = 0; a < 4 * kBlockSize; a += kBlockSize)
        cache.access(a | (1ull << 40), false, hsh);
    for (Addr a = 0; a < 6 * kBlockSize; a += kBlockSize)
        cache.access(a, false, ctr);
    for (Addr a = 0; a < 4 * kBlockSize; a += kBlockSize)
        EXPECT_TRUE(cache.probe(a | (1ull << 40)));
}

TEST(Partition, DuelingTracksBetterSplit)
{
    SetDuelingPartition part(2, 6, 8, 10);
    part.init(64, 8);
    ReplContext ctx;
    // Feed misses only to A's leader sets: PSEL should swing toward B.
    for (int i = 0; i < 1000; ++i)
        part.onMiss(0, ctx); // set 0 is an A leader (phase 0)
    EXPECT_EQ(part.activeSplit(), 6u);
    // Now hammer B's leaders harder.
    for (int i = 0; i < 2000; ++i)
        part.onMiss(4, ctx); // set 4 is a B leader (phase == stride/2)
    EXPECT_EQ(part.activeSplit(), 2u);
}

TEST(Partition, FollowerUsesWinningSplit)
{
    SetDuelingPartition part(2, 6, 8, 10);
    part.init(64, 8);
    ReplContext ctr_ctx;
    ctr_ctx.typeClass = static_cast<std::uint8_t>(MetadataType::Counter);
    // Initially PSEL = 0 -> split A (2 counter ways) for followers.
    EXPECT_EQ(part.allowedWays(1, ctr_ctx), 0b00000011u);
    for (int i = 0; i < 100; ++i)
        part.onMiss(0, ctr_ctx); // A leader misses -> B wins
    EXPECT_EQ(part.allowedWays(1, ctr_ctx), 0b00111111u);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheGeometry geom;
    geom.sizeBytes = 100; // not a multiple of assoc * block
    geom.assoc = 2;
    EXPECT_DEATH(
        {
            SetAssociativeCache cache(geom,
                                      makeReplacementPolicy("lru"));
        },
        "");
}

} // namespace
} // namespace maps
