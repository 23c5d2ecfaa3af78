/**
 * @file
 * The unified metadata cache: one on-chip SRAM array that may hold
 * counters, data hashes and tree nodes (the paper's central artifact).
 *
 * Extra mechanisms over a plain cache:
 *  - a contents mask selecting which metadata types may be cached
 *    (Figure 1 compares counters-only / counters+hashes / all types);
 *  - partial writes (§IV-E): a hash write that misses may insert a
 *    placeholder block carrying only the written 8B hash, with per-hash
 *    valid bits; the fill read is saved iff the block completes before
 *    eviction;
 *  - way partitioning between counters and hashes (§V-C).
 */
#ifndef MAPS_SECMEM_METADATA_CACHE_HPP
#define MAPS_SECMEM_METADATA_CACHE_HPP

#include <array>
#include <memory>
#include <string>
#include <unordered_map>

#include "cache/cache.hpp"
#include "metrics/derived.hpp"
#include "metrics/metrics.hpp"
#include "secmem/layout.hpp"

namespace maps {

/** Partitioning schemes of Figure 7. */
enum class PartitionScheme : std::uint8_t
{
    None = 0,
    Static = 1,  ///< fixed counter/hash way split
    Dueling = 2, ///< set-dueling between two splits
};

/** Construction parameters for the metadata cache. */
struct MetadataCacheConfig
{
    std::uint64_t sizeBytes = 64_KiB; ///< Figure 6's evaluation point
    std::uint32_t assoc = 8;
    std::string policy = "plru";

    bool cacheCounters = true;
    bool cacheHashes = true;
    bool cacheTree = true;

    bool partialWrites = false;

    PartitionScheme partition = PartitionScheme::None;
    std::uint32_t staticCounterWays = 4;  ///< for Static
    std::uint32_t duelingSplitA = 2;      ///< for Dueling
    std::uint32_t duelingSplitB = 6;      ///< for Dueling

    std::uint64_t seed = 1;

    /** Convenience: mask for Figure 1's three configurations. */
    static MetadataCacheConfig countersOnly(std::uint64_t size);
    static MetadataCacheConfig countersAndHashes(std::uint64_t size);
    static MetadataCacheConfig allTypes(std::uint64_t size);

    bool operator==(const MetadataCacheConfig &) const = default;
};

/** Result of a metadata cache access. */
struct MetadataCacheOutcome
{
    bool hit = false;
    /** Type not cacheable: the access bypassed the cache entirely. */
    bool bypassed = false;
    /** Fill read avoided by inserting a partial placeholder. */
    bool placeholderInserted = false;
    /** Memory reads needed to complete a partial line (0 or 1). */
    std::uint32_t completionReads = 0;

    /** Eviction caused by the fill, if any. */
    bool evictedValid = false;
    Addr evictedAddr = kInvalidAddr;
    MetadataType evictedType = MetadataType::Counter;
    bool evictedDirty = false;
    /** Evicted line was a partial hash block with missing hashes. */
    bool evictedIncomplete = false;
};

/**
 * Per-type hit/miss statistics (indexed by MetadataType). Monotonic —
 * never reset; windowed readings come from metrics::Registry phase
 * snapshots.
 */
struct MetadataCacheStats
{
    std::array<std::uint64_t, kNumMetadataTypes> accesses{};
    std::array<std::uint64_t, kNumMetadataTypes> hits{};
    std::array<std::uint64_t, kNumMetadataTypes> misses{};
    std::array<std::uint64_t, kNumMetadataTypes> bypasses{};
    std::uint64_t placeholderInserts = 0;
    std::uint64_t partialCompletions = 0;
    std::uint64_t incompleteEvictions = 0;
    std::uint64_t prefetchInserts = 0;

    std::uint64_t totalMisses() const
    {
        std::uint64_t acc = 0;
        for (auto m : misses)
            acc += m;
        return acc;
    }
    std::uint64_t totalAccesses() const
    {
        std::uint64_t acc = 0;
        for (auto a : accesses)
            acc += a;
        return acc;
    }

    /**
     * Metadata misses (+ bypasses: they always cost a memory access)
     * per kilo-instruction.
     */
    double mpki(InstCount instructions) const
    {
        std::uint64_t missed = totalMisses();
        for (auto b : bypasses)
            missed += b;
        return metrics::perKiloInstructions(missed, instructions);
    }
};

/** metrics::Registry enumeration protocol (attach / measureView). */
template <typename Fn>
void
forEachCounter(MetadataCacheStats &s, Fn &&fn)
{
    static constexpr const char *kTypeSlug[kNumMetadataTypes] = {
        "counter", "tree", "hash"};
    for (unsigned t = 0; t < kNumMetadataTypes; ++t) {
        const std::string slug = kTypeSlug[t];
        fn(slug + ".accesses", s.accesses[t]);
        fn(slug + ".hits", s.hits[t]);
        fn(slug + ".misses", s.misses[t]);
        fn(slug + ".bypasses", s.bypasses[t]);
    }
    fn("placeholder_inserts", s.placeholderInserts);
    fn("partial_completions", s.partialCompletions);
    fn("incomplete_evictions", s.incompleteEvictions);
    fn("prefetch_inserts", s.prefetchInserts);
}

/**
 * Unified metadata cache. Wraps SetAssociativeCache with metadata-type
 * awareness. A disabled type's accesses are reported as bypasses and the
 * array is untouched.
 */
class MetadataCache
{
  public:
    /**
     * @param policy optional override policy (else built from config).
     * @param arena  optional allocator for the tag arrays (must outlive
     *               the cache); nullptr = heap.
     */
    explicit MetadataCache(MetadataCacheConfig cfg,
                           std::unique_ptr<ReplacementPolicy> policy
                           = nullptr,
                           Arena *arena = nullptr);

    /**
     * Access one metadata block.
     * @param addr      encoded metadata block address.
     * @param type      the block's metadata type.
     * @param write     update (marks dirty).
     * @param sub_index which 8B hash within the block (partial writes).
     */
    MetadataCacheOutcome access(Addr addr, MetadataType type, bool write,
                                std::uint32_t sub_index = 0);

    /**
     * Insert a block without demand-access accounting (metadata
     * prefetching). Returns hit=true if already resident, bypassed if
     * the type is not cacheable; otherwise inserts clean and reports
     * any eviction exactly like a demand fill.
     */
    MetadataCacheOutcome prefetchInsert(Addr addr, MetadataType type);

    /** Hit test without side effects (false for bypassed types). */
    bool probe(Addr addr, MetadataType type) const;

    bool typeCacheable(MetadataType type) const;

    const MetadataCacheConfig &config() const { return cfg_; }
    const MetadataCacheStats &stats() const { return stats_; }

    /**
     * Register the per-type stats (prefix.mdcache.*) and the underlying
     * SRAM array's counters (prefix.mdcache.array.*).
     */
    void attachMetrics(metrics::Registry &registry,
                       const std::string &prefix);

    /** Underlying array (for inspection in tests). */
    const SetAssociativeCache &array() const { return *cache_; }
    /** Mutable array access (maps::check shadow attachment). */
    SetAssociativeCache &arrayMut() { return *cache_; }

    /** Metadata misses per kilo-instruction given an instruction count. */
    double mpki(InstCount instructions) const;

    /** Active dueling split (counter ways), if partition == Dueling. */
    std::uint32_t activeDuelingSplit() const;

  private:
    MetadataCacheConfig cfg_;
    std::unique_ptr<SetAssociativeCache> cache_;
    /** Valid-bit masks for resident partial hash blocks. */
    std::unordered_map<Addr, std::uint8_t> partialMasks_;
    MetadataCacheStats stats_;
    SetDuelingPartition *dueling_ = nullptr;
};

} // namespace maps

#endif // MAPS_SECMEM_METADATA_CACHE_HPP
