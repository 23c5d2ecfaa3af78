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
 * Non-inclusive write-back, write-allocate hierarchy. Downstream traffic
 * is delivered to a sink callback so callers can chain the secure memory
 * controller, a trace file, or an analyzer.
 */
class CacheHierarchy
{
  public:
    using RequestSink = std::function<void(const MemoryRequest &)>;

    /**
     * @param cfg   hierarchy shape.
     * @param arena optional allocator for the per-level tag arrays
     *              (must outlive the hierarchy); nullptr = heap.
     */
    explicit CacheHierarchy(HierarchyConfig cfg = {},
                            Arena *arena = nullptr);

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

    const HierarchyStats &stats() const { return stats_; }

    /**
     * Register every hierarchy counter (aggregate stats plus the
     * l1/l2/llc arrays) with the registry, and subscribe to the phase
     * transition: downstream request icounts are phase-relative, so the
     * instruction count at the start of Measure is captured here.
     */
    void attachMetrics(metrics::Registry &registry);

    const HierarchyConfig &config() const { return cfg_; }
    const SetAssociativeCache &l1() const { return *l1_; }
    const SetAssociativeCache &l2() const { return *l2_; }
    const SetAssociativeCache &llc() const { return *llc_; }
    /** Mutable access (maps::check shadow attachment). */
    SetAssociativeCache &l1Mut() { return *l1_; }
    SetAssociativeCache &l2Mut() { return *l2_; }
    SetAssociativeCache &llcMut() { return *llc_; }

  private:
    HierarchyConfig cfg_;
    std::unique_ptr<SetAssociativeCache> l1_;
    std::unique_ptr<SetAssociativeCache> l2_;
    std::unique_ptr<SetAssociativeCache> llc_;
    RequestSink sink_;
    HierarchyStats stats_;
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
    /** Access L2; spill into the LLC. */
    void accessL2(Addr addr, bool write);
};

} // namespace maps

#endif // MAPS_HIERARCHY_HIERARCHY_HPP
