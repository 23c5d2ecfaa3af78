#include "hierarchy/hierarchy.hpp"

#include "check/check.hpp"
#include "util/logging.hpp"

namespace maps {

namespace {

std::unique_ptr<SetAssociativeCache>
buildLevel(std::uint64_t size, std::uint32_t assoc,
           const std::string &policy, Arena *arena)
{
    CacheGeometry geom;
    geom.sizeBytes = size;
    geom.assoc = assoc;
    return std::make_unique<SetAssociativeCache>(
        geom, makeReplacementPolicy(policy), nullptr, arena);
}

} // namespace

CacheHierarchy::CacheHierarchy(HierarchyConfig cfg, Arena *arena,
                               HierarchyLevels levels)
    : cfg_(cfg)
{
    if (levels != HierarchyLevels::Llc) {
        l1_ = buildLevel(cfg_.l1Bytes, cfg_.l1Assoc, cfg_.policy, arena);
        l2_ = buildLevel(cfg_.l2Bytes, cfg_.l2Assoc, cfg_.policy, arena);
    }
    if (levels != HierarchyLevels::Upper)
        llc_ = buildLevel(cfg_.llcBytes, cfg_.llcAssoc, cfg_.policy, arena);
}

void
CacheHierarchy::attachMetrics(metrics::Registry &registry)
{
    panicIf(!llc_, "an Upper hierarchy has no LLC to attach");
    registry.attach("hierarchy", stats_);
    registry.attach("l1", l1_ ? l1_->statsMut() : upper_.l1);
    registry.attach("l2", l2_ ? l2_->statsMut() : upper_.l2);
    registry.attach("llc", llc_->statsMut());
    registry.onPhaseBegin([this](metrics::Phase p) {
        if (p == metrics::Phase::Measure)
            phaseStartInst_ = stats_.instructions;
    });
}

void
CacheHierarchy::emit(Addr addr, RequestKind kind)
{
    if (!sink_)
        return;
    MemoryRequest req;
    req.addr = blockAlign(addr);
    req.kind = kind;
    // Phase-relative: downstream consumers (reuse analyzers, MIN
    // oracles) see instruction counts restarting at the measurement
    // boundary, exactly as the old clearStats() produced.
    req.icount = stats_.instructions - phaseStartInst_;
    sink_(req);
}

void
CacheHierarchy::accessLlc(Addr addr, bool write)
{
    const auto result = llc_->access(addr, write);
    if (!result.hit) {
        ++stats_.llcMisses;
        emit(addr, RequestKind::Read);
    }
    if (result.evictedValid && result.evictedDirty) {
        if (check::enabled() && check::mutations().dropLlcWriteback) {
            // Seeded bug (check_mutants): the dirty victim vanishes —
            // neither counted nor emitted downstream.
            return;
        }
        ++stats_.llcWritebacks;
        emit(result.evictedAddr, RequestKind::Writeback);
    }
}

void
CacheHierarchy::accessL2(Addr addr, bool write)
{
    const auto result = l2_->access(addr, write);
    if (!result.hit) {
        ++stats_.l2Misses;
        belowL2(addr, false); // fill path reads from below
        if (write) {
            // The L2 line is already marked dirty by the access above;
            // nothing further to do — writeback data stays in L2.
        }
    }
    if (result.evictedValid && result.evictedDirty)
        belowL2(result.evictedAddr, true); // spill dirty line downward
}

void
CacheHierarchy::access(const MemRef &ref)
{
    ++stats_.refs;
    stats_.instructions += ref.instGap;

    const auto result = l1_->access(ref.addr, ref.isWrite());
    if (!result.hit) {
        ++stats_.l1Misses;
        accessL2(ref.addr, false);
    }
    if (result.evictedValid && result.evictedDirty)
        accessL2(result.evictedAddr, true);

    if (check::enabled())
        checkInvariants();
}

void
CacheHierarchy::accessBatch(const MemRef *refs, std::size_t n,
                            Cycles *core_cycles)
{
    if (core_cycles) {
        for (std::size_t i = 0; i < n; ++i) {
            // Unit-IPC core: the gap elapses before the reference
            // issues, then any read stalls accrue inside access() via
            // the sink.
            *core_cycles += refs[i].instGap;
            access(refs[i]);
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        access(refs[i]);
}

void
CacheHierarchy::replayBatch(const LlcAccess *accesses, std::size_t n,
                            Cycles *core_cycles)
{
    for (std::size_t i = 0; i < n; ++i) {
        // The logged instruction gap elapses before the access, as the
        // references it stands for did in the stream pass.
        if (core_cycles)
            *core_cycles += accesses[i].instDelta;
        stats_.instructions += accesses[i].instDelta;
        accessLlc(accesses[i].addr, accesses[i].write);
        if (check::enabled())
            checkInvariants();
    }
}

UpperLevelStats
CacheHierarchy::upperStats() const
{
    UpperLevelStats s;
    s.instructions = stats_.instructions;
    s.refs = stats_.refs;
    s.l1Misses = stats_.l1Misses;
    s.l2Misses = stats_.l2Misses;
    s.l1 = l1_->stats();
    s.l2 = l2_->stats();
    return s;
}

void
CacheHierarchy::restoreUpper(const UpperLevelStats &s)
{
    panicIf(l1_ != nullptr, "restoreUpper on a hierarchy that models L1/L2");
    stats_.instructions = s.instructions;
    stats_.refs = s.refs;
    stats_.l1Misses = s.l1Misses;
    stats_.l2Misses = s.l2Misses;
    upper_ = s;
    if (check::enabled()) {
        // The replayed log is complete up to this boundary: the LLC saw
        // one access per L2 miss plus one per L2 dirty spill.
        check::countChecks();
        const std::uint64_t want = s.l2Misses + s.l2.dirtyEvictions;
        if (llc_->stats().accesses() != want)
            check::fail("hierarchy",
                        "replayed LLC accesses != L2 misses + L2 dirty "
                        "evictions: got " +
                            std::to_string(llc_->stats().accesses()) +
                            ", expected " + std::to_string(want));
    }
}

void
CacheHierarchy::checkInvariants() const
{
    check::countChecks();
    const auto expect = [](std::uint64_t got, std::uint64_t want,
                           const char *what) {
        if (got != want) {
            check::fail("hierarchy",
                        std::string(what) + ": got " +
                            std::to_string(got) + ", expected " +
                            std::to_string(want));
        }
    };
    // Every CPU reference is exactly one L1 access, every level's miss
    // counter mirrors its cache's own, and each lower level sees one
    // access per upper-level miss plus one per dirty spill. Counters
    // are monotonic from construction, so totals compare directly. A
    // split hierarchy checks the levels it models; restoreUpper()
    // checks the L2 -> LLC seam of a replay at each stream boundary.
    if (l1_) {
        const CacheStats &l1 = l1_->stats();
        const CacheStats &l2 = l2_->stats();
        expect(l1.accesses(), stats_.refs, "L1 accesses != refs");
        expect(stats_.l1Misses, l1.misses, "L1 miss accounting");
        expect(l2.accesses(), stats_.l1Misses + l1.dirtyEvictions,
               "L2 accesses != L1 misses + L1 dirty evictions");
        expect(stats_.l2Misses, l2.misses, "L2 miss accounting");
        if (llc_)
            expect(llc_->stats().accesses(),
                   stats_.l2Misses + l2.dirtyEvictions,
                   "LLC accesses != L2 misses + L2 dirty evictions");
    }
    if (llc_) {
        const CacheStats &llc = llc_->stats();
        expect(stats_.llcMisses, llc.misses, "LLC miss accounting");
        expect(stats_.llcWritebacks, llc.dirtyEvictions,
               "LLC writebacks != LLC dirty evictions");
    }
}

} // namespace maps
