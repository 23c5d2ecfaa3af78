/**
 * @file
 * Three-level write-back cache hierarchy (Table I: 32KB L1D, 256KB L2,
 * 2MB LLC, all 8-way). Trace-driven: CPU references go in, LLC misses
 * and dirty writebacks come out as the memory-request stream the secure
 * memory controller services.
 */
#ifndef MAPS_HIERARCHY_HIERARCHY_HPP
#define MAPS_HIERARCHY_HIERARCHY_HPP

#include <functional>
#include <memory>

#include "cache/cache.hpp"
#include "metrics/derived.hpp"
#include "metrics/metrics.hpp"
#include "trace/record.hpp"

namespace maps {

/** Hierarchy shape; Table I defaults. */
struct HierarchyConfig
{
    std::uint64_t l1Bytes = 32_KiB;
    std::uint32_t l1Assoc = 8;
    std::uint64_t l2Bytes = 256_KiB;
    std::uint32_t l2Assoc = 8;
    std::uint64_t llcBytes = 2_MiB;
    std::uint32_t llcAssoc = 8;
    /** Replacement policy for all levels. */
    std::string policy = "lru";

    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * Per-level and aggregate statistics. Monotonic — never reset; the
 * warmup/measure split comes from metrics::Registry phase snapshots.
 */
struct HierarchyStats
{
    InstCount instructions = 0;
    std::uint64_t refs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcWritebacks = 0;

    double llcMpki() const
    {
        return metrics::perKiloInstructions(llcMisses, instructions);
    }
};

/** metrics::Registry enumeration protocol (attach / measureView). */
template <typename Fn>
void
forEachCounter(HierarchyStats &s, Fn &&fn)
{
    fn("instructions", s.instructions);
    fn("refs", s.refs);
    fn("l1.misses", s.l1Misses);
    fn("l2.misses", s.l2Misses);
    fn("llc.misses", s.llcMisses);
    fn("llc.writebacks", s.llcWritebacks);
}

/**
 * The levels a CacheHierarchy models. Exact simulations split the
 * hierarchy at the L2 -> LLC seam (docs/ARCHITECTURE.md): the stream
 * pass runs L1/L2 once per reference stream and logs what leaves L2;
 * every configuration then replays that log through its own LLC. The
 * split is exact because the hierarchy is non-inclusive — nothing below
 * L2 ever changes L1/L2 state.
 */
enum class HierarchyLevels : std::uint8_t
{
    All,   ///< L1, L2 and LLC: CPU references in, memory requests out
    Upper, ///< L1 and L2: CPU references in, LLC accesses to the LlcSink
    Llc,   ///< the LLC alone: replayed LLC accesses in, memory requests out
};

/** One access that leaves L2 for the LLC. */
struct LlcAccess
{
    /** Block-aligned address. */
    Addr addr = 0;
    /** A dirty L2 victim spilled downward (else an L2 miss's fill). */
    bool write = false;
    /** Instructions retired since the previous LLC access (or since the
     *  last restoreUpper() boundary). */
    InstCount instDelta = 0;
};

/** L1/L2-side counters at one point of a stream (the stream pass's
 *  phase-boundary and end snapshots). */
struct UpperLevelStats
{
    InstCount instructions = 0;
    std::uint64_t refs = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    CacheStats l1;
    CacheStats l2;
};

/**
 * Non-inclusive write-back, write-allocate hierarchy. Downstream traffic
 * is delivered to a sink callback so callers can chain the secure memory
 * controller, a trace file, or an analyzer.
 */
class CacheHierarchy
{
  public:
    using RequestSink = std::function<void(const MemoryRequest &)>;
    /** HierarchyLevels::Upper: receives every access L2 sends down. */
    using LlcSink = std::function<void(Addr addr, bool write)>;

    /**
     * @param cfg    hierarchy shape (Upper ignores the LLC geometry, Llc
     *               the L1/L2 geometry).
     * @param arena  optional allocator for the per-level tag arrays
     *               (must outlive the hierarchy); nullptr = heap.
     * @param levels which levels to build and drive.
     */
    explicit CacheHierarchy(HierarchyConfig cfg = {},
                            Arena *arena = nullptr,
                            HierarchyLevels levels = HierarchyLevels::All);

    /** Process one CPU reference. Requests reach the sink in order. */
    void access(const MemRef &ref);

    /**
     * Process a batch of CPU references in order — one call into the
     * hierarchy per batch instead of per reference. Semantically
     * identical to calling access() on each element: downstream
     * requests are still serviced synchronously per reference, so
     * timing and statistics are bit-exact with the scalar path.
     *
     * @param core_cycles when non-null, advanced by each reference's
     *        instruction gap *before* that reference is processed (the
     *        measure-phase unit-IPC core clock; the sink adds request
     *        latencies to the same counter mid-batch).
     */
    void accessBatch(const MemRef *refs, std::size_t n,
                     Cycles *core_cycles = nullptr);

    void setRequestSink(RequestSink sink) { sink_ = std::move(sink); }
    void setLlcSink(LlcSink sink) { llcSink_ = std::move(sink); }

    /**
     * HierarchyLevels::Llc: replay logged LLC accesses in order. Each
     * advances the instruction count (and @p core_cycles, when non-null)
     * by its instDelta before the LLC sees it, so downstream requests
     * carry the icounts and clock of the run that logged them.
     */
    void replayBatch(const LlcAccess *accesses, std::size_t n,
                     Cycles *core_cycles = nullptr);

    /** HierarchyLevels::Upper: the L1/L2-side counters now. */
    UpperLevelStats upperStats() const;

    /**
     * HierarchyLevels::Llc: set the L1/L2-side counters to a stream
     * snapshot. Call at the boundary the snapshot was taken at, before
     * the registry reads the counters there (beginPhase, export).
     */
    void restoreUpper(const UpperLevelStats &s);

    const HierarchyStats &stats() const { return stats_; }
    /** Per-level counters; an Llc hierarchy reports the L1/L2 counters
     *  of its last restoreUpper(). */
    const CacheStats &l1Stats() const
    {
        return l1_ ? l1_->stats() : upper_.l1;
    }
    const CacheStats &l2Stats() const
    {
        return l2_ ? l2_->stats() : upper_.l2;
    }

    /**
     * Register every hierarchy counter (aggregate stats plus the
     * l1/l2/llc arrays) with the registry, and subscribe to the phase
     * transition: downstream request icounts are phase-relative, so the
     * instruction count at the start of Measure is captured here.
     */
    void attachMetrics(metrics::Registry &registry);

    const HierarchyConfig &config() const { return cfg_; }
    const SetAssociativeCache &llc() const { return *llc_; }
    /** Mutable access (maps::check shadow attachment); only the arrays
     *  the HierarchyLevels build exist. */
    SetAssociativeCache &l1Mut() { return *l1_; }
    SetAssociativeCache &l2Mut() { return *l2_; }
    SetAssociativeCache &llcMut() { return *llc_; }

  private:
    HierarchyConfig cfg_;
    std::unique_ptr<SetAssociativeCache> l1_;
    std::unique_ptr<SetAssociativeCache> l2_;
    std::unique_ptr<SetAssociativeCache> llc_;
    RequestSink sink_;
    LlcSink llcSink_;
    HierarchyStats stats_;
    /** HierarchyLevels::Llc: the L1/L2 counters of the last restore. */
    UpperLevelStats upper_;
    /** Instruction count captured at beginPhase(Measure). */
    InstCount phaseStartInst_ = 0;

    /**
     * maps::check: per-level hit/miss/writeback accounting. All
     * counters are monotonic from construction, so the invariants
     * compare raw totals — no baseline snapshots needed.
     */
    void checkInvariants() const;

    void emit(Addr addr, RequestKind kind);
    /** Access the LLC; emit a Read on miss, Writeback on dirty victim. */
    void accessLlc(Addr addr, bool write);
    /** Send an access below L2: the LLC, or the Upper hierarchy's sink. */
    void belowL2(Addr addr, bool write)
    {
        if (llc_)
            accessLlc(addr, write);
        else
            llcSink_(blockAlign(addr), write);
    }
    /** Access L2; spill into the LLC. */
    void accessL2(Addr addr, bool write);
};

} // namespace maps

#endif // MAPS_HIERARCHY_HIERARCHY_HPP
