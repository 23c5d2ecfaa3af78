/**
 * @file
 * SecureMemoryController: the memory encryption engine model.
 *
 * For every LLC-level request it generates the metadata traffic of
 * counter-mode encryption + Bonsai Merkle Tree integrity (§II):
 *
 *  read  @A: fetch data(A); fetch counter block (or hit the metadata
 *            cache); on a counter miss, traverse the tree upward until a
 *            cached (already-verified) ancestor or the on-chip root;
 *            fetch the data-hash block (or hit).
 *  write @A: bump A's counter (possible per-block overflow -> page
 *            re-encryption); update counter block, hash block and —
 *            lazily, on dirty counter eviction — the tree path; write
 *            the data block.
 *
 * Timing is transaction-level: decryption overlaps the data fetch
 * (counter-mode), verification is hidden when speculation [12] is on.
 * Disabling the metadata cache (or individual types) reproduces the
 * paper's no-cache and Figure-1 configurations.
 */
#ifndef MAPS_SECMEM_CONTROLLER_HPP
#define MAPS_SECMEM_CONTROLLER_HPP

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "mem/memory_model.hpp"
#include "metrics/metrics.hpp"
#include "secmem/counter_store.hpp"
#include "secmem/metadata_cache.hpp"
#include "util/histogram.hpp"

namespace maps {

class SecureMemoryFaultObserver;

/** Categories of DRAM traffic for the energy/overhead breakdowns. */
enum class MemCategory : std::uint8_t
{
    Data = 0,
    Counter = 1,
    Hash = 2,
    Tree = 3,
    Reencrypt = 4,
};
inline constexpr unsigned kNumMemCategories = 5;
const char *memCategoryName(MemCategory c);

/** Controller configuration. */
struct SecureMemoryConfig
{
    LayoutConfig layout;
    MetadataCacheConfig cache;
    /** False disables the metadata cache entirely (all types bypass). */
    bool cacheEnabled = true;
    /** Speculative use of unverified data (PoisonIvy [12]). */
    bool speculation = true;
    /** Defer tree updates to dirty-counter eviction (needs the cache). */
    bool lazyTreeUpdate = true;
    /**
     * Spatial metadata prefetching (extension, §VI direction): on a
     * counter or hash demand miss, fetch the next block of the same
     * type into the metadata cache. Prefetched counters are verified
     * in the background like any other fetched counter.
     */
    bool prefetchNextMetadata = false;
    Cycles hashLatency = 40; ///< Table I: 40 cycles per hash
    Cycles aesLatency = 40;  ///< one-time-pad generation

    bool operator==(const SecureMemoryConfig &) const = default;
};

/** Timing/traffic outcome for one request. */
struct RequestOutcome
{
    /** Critical-path latency for reads (0 for posted writes). */
    Cycles latency = 0;
    /** Background verification work (hidden when speculating). */
    Cycles verifyLatency = 0;
    /** DRAM block transfers triggered by this request. */
    std::uint32_t memAccesses = 0;
    bool counterHit = false;
    bool hashHit = false;
    std::uint32_t treeLevelsFetched = 0;
};

/**
 * Aggregate controller statistics. Monotonic — never reset; windowed
 * readings come from metrics::Registry phase snapshots.
 */
struct ControllerStats
{
    std::uint64_t readRequests = 0;
    std::uint64_t writeRequests = 0;
    std::array<std::uint64_t, kNumMemCategories> memReads{};
    std::array<std::uint64_t, kNumMemCategories> memWrites{};
    std::uint64_t treeLevelsFetched = 0;
    std::uint64_t pageOverflows = 0;
    std::uint64_t rootUpdates = 0;
    std::uint64_t cascadeTruncations = 0;
    std::uint64_t prefetchesIssued = 0;
    Cycles totalReadLatency = 0;
    Cycles totalVerifyLatency = 0;

    std::uint64_t requests() const { return readRequests + writeRequests; }
    std::uint64_t totalMemAccesses() const;
    std::uint64_t metadataMemAccesses() const;
    double avgReadLatency() const
    {
        return metrics::ratioOrZero(totalReadLatency, readRequests);
    }
};

/** metrics::Registry enumeration protocol (attach / measureView). */
template <typename Fn>
void
forEachCounter(ControllerStats &s, Fn &&fn)
{
    fn("requests.read", s.readRequests);
    fn("requests.write", s.writeRequests);
    static constexpr const char *kCategorySlug[kNumMemCategories] = {
        "data", "counter", "hash", "tree", "reencrypt"};
    for (unsigned c = 0; c < kNumMemCategories; ++c) {
        const std::string slug = std::string("mem.") + kCategorySlug[c];
        fn(slug + ".reads", s.memReads[c]);
        fn(slug + ".writes", s.memWrites[c]);
    }
    fn("tree.levels_fetched", s.treeLevelsFetched);
    fn("page_overflows", s.pageOverflows);
    fn("root_updates", s.rootUpdates);
    fn("cascade_truncations", s.cascadeTruncations);
    fn("prefetches", s.prefetchesIssued);
    fn("latency.read_cycles", s.totalReadLatency);
    fn("latency.verify_cycles", s.totalVerifyLatency);
}

/** The memory encryption engine. */
class SecureMemoryController
{
  public:
    /**
     * @param cfg    configuration (validated).
     * @param memory DRAM model; must outlive the controller.
     * @param policy optional replacement-policy override for the
     *               metadata cache (e.g. an oracle-driven MIN).
     * @param arena  optional allocator for the metadata cache's tag
     *               arrays (must outlive the controller); nullptr = heap.
     */
    SecureMemoryController(SecureMemoryConfig cfg, MemoryModel &memory,
                           std::unique_ptr<ReplacementPolicy> policy
                           = nullptr,
                           Arena *arena = nullptr);

    /** Service one LLC-level request. */
    RequestOutcome handleRequest(const MemoryRequest &req, Cycles now = 0);

    /**
     * Observe every metadata access *before* the cache (the stream the
     * paper characterizes). Tree accesses appear as the cache state
     * makes them occur; with the cache disabled, every counter access
     * yields a full root-ward traversal.
     */
    using MetadataTap = std::function<void(const MetadataAccess &)>;
    void setMetadataTap(MetadataTap tap) { tap_ = std::move(tap); }

    /**
     * Attach a fault-injection observer (maps::fault). The observer sees
     * every request, metadata-cache access outcome, tree verification
     * and functional write commit, in hardware order (fault_hooks.hpp).
     * Pass nullptr to detach. Must outlive the attachment.
     */
    void setFaultObserver(SecureMemoryFaultObserver *obs)
    {
        faultObs_ = obs;
    }

    /**
     * Corrupt the live counter state for a data block (fault injection
     * only; see CounterStore::tamper). Under --check the shadow model
     * will — by design — diverge on the next write to the block.
     */
    void tamperCounter(Addr data_addr, const CounterValue &value)
    {
        counters_.tamper(data_addr, value);
    }

    const ControllerStats &stats() const { return stats_; }

    /**
     * Register every controller counter under "secmem." — the request
     * and per-category DRAM traffic counters, the metadata cache
     * (secmem.mdcache.*), the functional counter store
     * (secmem.counters.*) and the read-latency distribution
     * (secmem.latency.read histogram).
     */
    void attachMetrics(metrics::Registry &registry);

    /** Distribution of per-request read latencies (whole run). */
    const Log2Histogram &readLatencyHistogram() const
    {
        return readLatencyHist_;
    }

    const MetadataLayout &layout() const { return layout_; }
    const CounterStore &counters() const { return counters_; }
    MetadataCache &metadataCache() { return *mdCache_; }
    const MetadataCache &metadataCache() const { return *mdCache_; }
    const SecureMemoryConfig &config() const { return cfg_; }

  private:
    SecureMemoryConfig cfg_;
    MetadataLayout layout_;
    MemoryModel &memory_;
    CounterStore counters_;
    std::unique_ptr<MetadataCache> mdCache_;
    MetadataTap tap_;
    SecureMemoryFaultObserver *faultObs_ = nullptr;
    ControllerStats stats_;
    Log2Histogram readLatencyHist_;

    /** One entry of the eviction-settling FIFO (settleEviction). */
    struct EvictedMd
    {
        Addr addr;
        MetadataType type;
        bool dirty;
        bool incomplete;
    };
    /**
     * Scratch FIFO for settleEviction, reused across calls so the hot
     * path performs no per-request heap allocation (capacity persists;
     * settleEviction runs several times per LLC request).
     */
    std::vector<EvictedMd> evictFifo_;
    /** settleEviction is not re-entrant; guards the shared FIFO. */
    bool settlingEviction_ = false;

    /** Physical DRAM base of each metadata region. */
    std::array<Addr, kNumMemCategories> regionBase_{};

    RequestOutcome handleRead(const MemoryRequest &req, Cycles now);
    RequestOutcome handleWrite(const MemoryRequest &req, Cycles now);

    /** One DRAM block transfer; returns its latency. */
    Cycles memAccess(MemCategory category, Addr addr, bool write,
                     Cycles now, RequestOutcome &outcome);

    /** Map a (possibly metadata-encoded) address to DRAM space. */
    Addr physAddrOf(MemCategory category, Addr addr) const;

    /** Root-ward traversal after a counter fetch. Returns verify
     * cycles; fetched nodes are inserted into the cache. */
    Cycles traverseTree(Addr counter_block_addr, InstCount icount,
                        Cycles now, RequestOutcome &outcome);

    /** Immediate (non-lazy) tree path update after a counter write. */
    void writeTreePath(Addr counter_block_addr, InstCount icount,
                       Cycles now, RequestOutcome &outcome);

    /** Handle an eviction chain from a metadata cache fill. */
    void settleEviction(const MetadataCacheOutcome &first, InstCount icount,
                        Cycles now, RequestOutcome &outcome);

    /** Issue one tree-node *write* access through the cache. */
    MetadataCacheOutcome treeNodeWrite(Addr node_addr, InstCount icount,
                                       Cycles now, RequestOutcome &outcome);

    /** Prefetch the next same-type metadata block after a miss. */
    void prefetchNeighbor(Addr md_addr, MetadataType type,
                          InstCount icount, Cycles now,
                          RequestOutcome &outcome);

    void emitTap(Addr addr, MetadataType type, bool write,
                 std::uint8_t level, InstCount icount);

    /** maps::check: verify DRAM region ranges never overlap. */
    void checkRegionDisjointness(std::uint64_t tree_blocks) const;

    static MemCategory categoryOf(MetadataType type);
};

} // namespace maps

#endif // MAPS_SECMEM_CONTROLLER_HPP
