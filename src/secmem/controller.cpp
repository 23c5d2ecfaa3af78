#include "secmem/controller.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "secmem/fault_hooks.hpp"
#include "util/logging.hpp"

namespace maps {

namespace {

/** Bound on lazy-update eviction chains; beyond it, remaining tree
 * writes go straight to memory (documented engineering safeguard). */
constexpr unsigned kMaxCascade = 256;

} // namespace

const char *
memCategoryName(MemCategory c)
{
    switch (c) {
      case MemCategory::Data:
        return "data";
      case MemCategory::Counter:
        return "counter";
      case MemCategory::Hash:
        return "hash";
      case MemCategory::Tree:
        return "tree";
      case MemCategory::Reencrypt:
        return "reencrypt";
    }
    return "?";
}

std::uint64_t
ControllerStats::totalMemAccesses() const
{
    std::uint64_t acc = 0;
    for (unsigned c = 0; c < kNumMemCategories; ++c)
        acc += memReads[c] + memWrites[c];
    return acc;
}

std::uint64_t
ControllerStats::metadataMemAccesses() const
{
    return totalMemAccesses() -
           memReads[static_cast<unsigned>(MemCategory::Data)] -
           memWrites[static_cast<unsigned>(MemCategory::Data)];
}

MemCategory
SecureMemoryController::categoryOf(MetadataType type)
{
    switch (type) {
      case MetadataType::Counter:
        return MemCategory::Counter;
      case MetadataType::Hash:
        return MemCategory::Hash;
      case MetadataType::TreeNode:
        return MemCategory::Tree;
      case MetadataType::Data:
        break;
    }
    return MemCategory::Data;
}

SecureMemoryController::SecureMemoryController(
    SecureMemoryConfig cfg, MemoryModel &memory,
    std::unique_ptr<ReplacementPolicy> policy, Arena *arena)
    : cfg_(cfg),
      layout_(cfg.layout),
      memory_(memory),
      counters_(layout_)
{
    MetadataCacheConfig cache_cfg = cfg_.cache;
    if (!cfg_.cacheEnabled) {
        // A fully-bypassing cache unifies the no-cache code path.
        cache_cfg.cacheCounters = false;
        cache_cfg.cacheHashes = false;
        cache_cfg.cacheTree = false;
    }
    mdCache_ = std::make_unique<MetadataCache>(cache_cfg,
                                               std::move(policy), arena);

    // Lay metadata regions above the protected data region in DRAM
    // space so the banked memory model sees realistic interleaving.
    Addr base = cfg_.layout.protectedBytes;
    regionBase_[static_cast<unsigned>(MemCategory::Data)] = 0;
    regionBase_[static_cast<unsigned>(MemCategory::Reencrypt)] = 0;
    regionBase_[static_cast<unsigned>(MemCategory::Counter)] = base;
    base += layout_.numCounterBlocks() * kBlockSize;
    regionBase_[static_cast<unsigned>(MemCategory::Tree)] = base;
    std::uint64_t tree_blocks = 0;
    for (std::uint32_t l = 0; l < layout_.numTreeLevels(); ++l)
        tree_blocks += layout_.treeLevelBlockCount(l);
    base += tree_blocks * kBlockSize;
    regionBase_[static_cast<unsigned>(MemCategory::Hash)] = base;

    // Steady-state settleEviction never allocates: chains longer than
    // this only grow the buffer once and keep the capacity.
    evictFifo_.reserve(64);

    if (check::enabled())
        checkRegionDisjointness(tree_blocks);
}

void
SecureMemoryController::checkRegionDisjointness(
    std::uint64_t tree_blocks) const
{
    struct Region
    {
        const char *name;
        Addr base;
        std::uint64_t bytes;
    };
    const Region regions[] = {
        {"data", 0, cfg_.layout.protectedBytes},
        {"counter",
         regionBase_[static_cast<unsigned>(MemCategory::Counter)],
         layout_.numCounterBlocks() * kBlockSize},
        {"tree", regionBase_[static_cast<unsigned>(MemCategory::Tree)],
         tree_blocks * kBlockSize},
        {"hash", regionBase_[static_cast<unsigned>(MemCategory::Hash)],
         layout_.numHashBlocks() * kBlockSize},
    };
    check::countChecks();
    for (const auto &a : regions) {
        for (const auto &b : regions) {
            if (&a == &b)
                continue;
            const bool overlap = a.base < b.base + b.bytes &&
                                 b.base < a.base + a.bytes;
            if (overlap) {
                check::fail("secmem.layout",
                            std::string("DRAM regions overlap: ") +
                                a.name + " and " + b.name);
            }
        }
    }
}

Addr
SecureMemoryController::physAddrOf(MemCategory category, Addr addr) const
{
    if (category == MemCategory::Data || category == MemCategory::Reencrypt)
        return blockAlign(addr);

    // Metadata addresses are encoded; linearize per region. Tree levels
    // are packed level by level.
    const std::uint64_t index = MetadataLayout::indexOf(addr);
    std::uint64_t offset = index;
    if (category == MemCategory::Tree) {
        const std::uint32_t level = MetadataLayout::levelOf(addr);
        for (std::uint32_t l = 0; l < level; ++l)
            offset += layout_.treeLevelBlockCount(l);
    }
    return regionBase_[static_cast<unsigned>(category)] +
           offset * kBlockSize;
}

Cycles
SecureMemoryController::memAccess(MemCategory category, Addr addr,
                                  bool write, Cycles now,
                                  RequestOutcome &outcome)
{
    const auto result =
        memory_.access(physAddrOf(category, addr), write, now);
    const auto idx = static_cast<unsigned>(category);
    if (write)
        ++stats_.memWrites[idx];
    else
        ++stats_.memReads[idx];
    ++outcome.memAccesses;
    return result.latency;
}

void
SecureMemoryController::emitTap(Addr addr, MetadataType type, bool write,
                                std::uint8_t level, InstCount icount)
{
    if (!tap_)
        return;
    MetadataAccess acc;
    acc.addr = addr;
    acc.type = type;
    acc.access = write ? AccessType::Write : AccessType::Read;
    acc.level = level;
    acc.icount = icount;
    tap_(acc);
}

RequestOutcome
SecureMemoryController::handleRequest(const MemoryRequest &req, Cycles now)
{
    panicIf(req.addr >= cfg_.layout.protectedBytes,
            "request outside the protected region");
    if (faultObs_)
        faultObs_->onRequest(req);
    if (req.kind == RequestKind::Read) {
        ++stats_.readRequests;
        return handleRead(req, now);
    }
    ++stats_.writeRequests;
    return handleWrite(req, now);
}

Cycles
SecureMemoryController::traverseTree(Addr counter_block_addr,
                                     InstCount icount, Cycles now,
                                     RequestOutcome &outcome)
{
    if (check::enabled() && check::mutations().skipTreeVerify) {
        // Seeded bug (check_mutants): fetched counters are used without
        // authenticating them against the tree.
        return 0;
    }
    // After the mutation gate on purpose: a skipped verification must
    // not announce itself, so fault campaigns classify it as silent.
    if (faultObs_)
        faultObs_->onCounterVerify(counter_block_addr);
    Cycles verify = 0;
    Addr node = layout_.treeLeafForCounter(counter_block_addr);
    while (node != kInvalidAddr) {
        const auto level =
            static_cast<std::uint8_t>(MetadataLayout::levelOf(node));
        emitTap(node, MetadataType::TreeNode, false, level, icount);
        const auto md =
            mdCache_->access(node, MetadataType::TreeNode, false);
        settleEviction(md, icount, now, outcome);
        if (faultObs_) {
            faultObs_->onMetadataAccess(node, MetadataType::TreeNode,
                                        false, md.hit, !md.hit);
        }
        if (md.hit) {
            // A cached node was verified when it was brought on chip:
            // the chain of trust ends here (one compare).
            verify += cfg_.hashLatency;
            return verify;
        }
        verify += memAccess(MemCategory::Tree, node, false, now, outcome) +
                  cfg_.hashLatency;
        ++outcome.treeLevelsFetched;
        ++stats_.treeLevelsFetched;
        node = layout_.treeParent(node);
    }
    // Reached the on-chip root: final compare.
    verify += cfg_.hashLatency;
    return verify;
}

void
SecureMemoryController::prefetchNeighbor(Addr md_addr, MetadataType type,
                                         InstCount icount, Cycles now,
                                         RequestOutcome &outcome)
{
    const std::uint64_t index = MetadataLayout::indexOf(md_addr);
    const std::uint64_t limit = type == MetadataType::Counter
                                    ? layout_.numCounterBlocks()
                                    : layout_.numHashBlocks();
    if (index + 1 >= limit)
        return;
    const Addr next = MetadataLayout::encode(type, 0, index + 1);
    const auto md = mdCache_->prefetchInsert(next, type);
    if (md.hit || md.bypassed)
        return;
    settleEviction(md, icount, now, outcome);
    ++stats_.prefetchesIssued;
    memAccess(type == MetadataType::Counter ? MemCategory::Counter
                                            : MemCategory::Hash,
              next, false, now, outcome);
    if (faultObs_)
        faultObs_->onMetadataAccess(next, type, false, false, true);
    // A prefetched counter must be verified before use; the walk runs
    // in the background alongside the demand verification.
    if (type == MetadataType::Counter)
        traverseTree(next, icount, now, outcome);
}

RequestOutcome
SecureMemoryController::handleRead(const MemoryRequest &req, Cycles now)
{
    RequestOutcome outcome;

    // Data fetch (the request itself).
    const Cycles data_lat =
        memAccess(MemCategory::Data, req.addr, false, now, outcome);

    // Counter (needed for the one-time pad).
    const Addr ctr_addr = layout_.counterBlockAddr(req.addr);
    emitTap(ctr_addr, MetadataType::Counter, false, 0, req.icount);
    const auto ctr_md =
        mdCache_->access(ctr_addr, MetadataType::Counter, false);
    settleEviction(ctr_md, req.icount, now, outcome);
    if (faultObs_) {
        faultObs_->onMetadataAccess(ctr_addr, MetadataType::Counter,
                                    false, ctr_md.hit, !ctr_md.hit);
    }
    Cycles ctr_lat = 0;
    Cycles verify = 0;
    outcome.counterHit = ctr_md.hit;
    if (!ctr_md.hit) {
        ctr_lat =
            memAccess(MemCategory::Counter, ctr_addr, false, now, outcome);
        // Freshly fetched counters must be verified against the tree.
        verify += traverseTree(ctr_addr, req.icount, now, outcome);
        if (check::enabled()) {
            // A counter fetched from (attackable) memory must incur at
            // least one tree hash compare before use.
            check::countChecks();
            if (cfg_.hashLatency > 0 && verify < cfg_.hashLatency) {
                check::fail("secmem.verify",
                            "counter fetched without tree verification"
                            " (read)");
            }
        }
        if (cfg_.prefetchNextMetadata && !ctr_md.bypassed) {
            prefetchNeighbor(ctr_addr, MetadataType::Counter, req.icount,
                             now, outcome);
        }
    }

    // Data hash (needed to verify the data itself).
    const Addr hash_addr = layout_.hashBlockAddr(req.addr);
    const auto sub_index = static_cast<std::uint32_t>(
        blockIndex(req.addr) % cfg_.layout.treeArity);
    emitTap(hash_addr, MetadataType::Hash, false, 0, req.icount);
    const auto hash_md =
        mdCache_->access(hash_addr, MetadataType::Hash, false, sub_index);
    settleEviction(hash_md, req.icount, now, outcome);
    if (faultObs_) {
        faultObs_->onMetadataAccess(hash_addr, MetadataType::Hash, false,
                                    hash_md.hit, !hash_md.hit);
    }
    Cycles hash_lat = 0;
    outcome.hashHit = hash_md.hit && hash_md.completionReads == 0;
    if (!hash_md.hit) {
        hash_lat =
            memAccess(MemCategory::Hash, hash_addr, false, now, outcome);
        if (cfg_.prefetchNextMetadata && !hash_md.bypassed) {
            prefetchNeighbor(hash_addr, MetadataType::Hash, req.icount,
                             now, outcome);
        }
    } else if (hash_md.completionReads) {
        // Partial line missing this hash: one read completes the block.
        hash_lat =
            memAccess(MemCategory::Hash, hash_addr, false, now, outcome);
    }

    // The data-hash (MAC) check over the fetched block.
    if (faultObs_)
        faultObs_->onDataMacCheck(req.addr);

    // Timing (§II-A): pad generation overlaps the data fetch; the XOR
    // costs one cycle. Without speculation, counter verification and the
    // data hash check serialize before data release.
    const Cycles otp_ready = ctr_lat + cfg_.aesLatency;
    Cycles latency = std::max(data_lat, otp_ready) + 1;
    const Cycles data_hash_check = cfg_.hashLatency;
    if (!cfg_.speculation) {
        const Cycles counter_verified = ctr_lat + verify;
        latency = std::max({latency, counter_verified, hash_lat}) +
                  data_hash_check;
    }

    outcome.latency = latency;
    outcome.verifyLatency = verify + data_hash_check;
    stats_.totalReadLatency += outcome.latency;
    stats_.totalVerifyLatency += outcome.verifyLatency;
    readLatencyHist_.add(outcome.latency);
    return outcome;
}

MetadataCacheOutcome
SecureMemoryController::treeNodeWrite(Addr node_addr, InstCount icount,
                                      Cycles now, RequestOutcome &outcome)
{
    const auto level =
        static_cast<std::uint8_t>(MetadataLayout::levelOf(node_addr));
    emitTap(node_addr, MetadataType::TreeNode, true, level, icount);
    const auto md = mdCache_->access(node_addr, MetadataType::TreeNode,
                                     true);
    if (faultObs_) {
        faultObs_->onMetadataAccess(node_addr, MetadataType::TreeNode,
                                    true, md.hit, !md.hit);
    }
    if (md.bypassed) {
        memAccess(MemCategory::Tree, node_addr, true, now, outcome);
    } else if (!md.hit) {
        // Fill before modify (tree nodes hold eight sibling hashes).
        memAccess(MemCategory::Tree, node_addr, false, now, outcome);
    }
    return md;
}

void
SecureMemoryController::writeTreePath(Addr counter_block_addr,
                                      InstCount icount, Cycles now,
                                      RequestOutcome &outcome)
{
    Addr node = layout_.treeLeafForCounter(counter_block_addr);
    while (node != kInvalidAddr) {
        const auto md = treeNodeWrite(node, icount, now, outcome);
        settleEviction(md, icount, now, outcome);
        if (md.hit && cfg_.lazyTreeUpdate) {
            // The dirty cached node defers the rest of the path until
            // its own eviction.
            return;
        }
        if (md.bypassed) {
            // Uncached tree: the whole path is written through.
            node = layout_.treeParent(node);
            continue;
        }
        // Inserted dirty: the path above is deferred to eviction.
        if (cfg_.lazyTreeUpdate)
            return;
        node = layout_.treeParent(node);
    }
    ++stats_.rootUpdates; // reached the on-chip root
}

void
SecureMemoryController::settleEviction(const MetadataCacheOutcome &first,
                                       InstCount icount, Cycles now,
                                       RequestOutcome &outcome)
{
    panicIf(settlingEviction_, "settleEviction re-entered");
    settlingEviction_ = true;
    evictFifo_.clear();
    auto enqueue = [this](const MetadataCacheOutcome &md) {
        if (md.evictedValid) {
            evictFifo_.push_back({md.evictedAddr, md.evictedType,
                                  md.evictedDirty, md.evictedIncomplete});
        }
    };
    enqueue(first);

    unsigned steps = 0;
    std::size_t head = 0;
    while (head < evictFifo_.size()) {
        const EvictedMd ev = evictFifo_[head++];

        if (ev.incomplete) {
            // Incomplete partial hash block: read the missing hashes
            // before writing the block back (§IV-E).
            memAccess(MemCategory::Hash, ev.addr, false, now, outcome);
        }
        if (!ev.dirty)
            continue;

        memAccess(categoryOf(ev.type), ev.addr, true, now, outcome);

        // Lazy tree maintenance: a dirty counter (or tree node) leaving
        // the chip changes memory state the tree must re-authenticate.
        Addr parent = kInvalidAddr;
        if (ev.type == MetadataType::Counter) {
            parent = layout_.treeLeafForCounter(ev.addr);
        } else if (ev.type == MetadataType::TreeNode) {
            parent = layout_.treeParent(ev.addr);
            if (parent == kInvalidAddr) {
                ++stats_.rootUpdates;
                continue;
            }
        } else {
            continue; // hash blocks have no ancestors
        }

        if (++steps > kMaxCascade) {
            // Safeguard against pathological ping-pong in tiny caches:
            // finish the chain with direct memory writes.
            ++stats_.cascadeTruncations;
            Addr node = parent;
            while (node != kInvalidAddr) {
                const auto level = static_cast<std::uint8_t>(
                    MetadataLayout::levelOf(node));
                emitTap(node, MetadataType::TreeNode, true, level, icount);
                memAccess(MemCategory::Tree, node, true, now, outcome);
                node = layout_.treeParent(node);
            }
            ++stats_.rootUpdates;
            continue;
        }

        const auto md = treeNodeWrite(parent, icount, now, outcome);
        enqueue(md);
    }
    settlingEviction_ = false;
}

RequestOutcome
SecureMemoryController::handleWrite(const MemoryRequest &req, Cycles now)
{
    RequestOutcome outcome;

    // 1. Bump the encryption counter; a per-block overflow forces the
    //    whole page to be re-encrypted under the new page counter.
    const auto bump = counters_.onBlockWrite(req.addr);
    if (bump.pageOverflow) {
        ++stats_.pageOverflows;
        const Addr page_base = req.addr & ~(kPageSize - 1);
        for (std::uint32_t b = 0; b < bump.blocksToReencrypt; ++b) {
            const Addr blk = page_base + b * kBlockSize;
            memAccess(MemCategory::Reencrypt, blk, false, now, outcome);
            memAccess(MemCategory::Reencrypt, blk, true, now, outcome);
        }
    }

    // 2. Update the counter block.
    const Addr ctr_addr = layout_.counterBlockAddr(req.addr);
    emitTap(ctr_addr, MetadataType::Counter, true, 0, req.icount);
    const auto ctr_md =
        mdCache_->access(ctr_addr, MetadataType::Counter, true);
    settleEviction(ctr_md, req.icount, now, outcome);
    if (faultObs_) {
        faultObs_->onMetadataAccess(ctr_addr, MetadataType::Counter,
                                    true, ctr_md.hit, !ctr_md.hit);
    }
    outcome.counterHit = ctr_md.hit;
    if (ctr_md.bypassed) {
        // Uncached counters: read-modify-write, and the fetched value
        // must be verified before use.
        memAccess(MemCategory::Counter, ctr_addr, false, now, outcome);
        outcome.verifyLatency +=
            traverseTree(ctr_addr, req.icount, now, outcome);
        memAccess(MemCategory::Counter, ctr_addr, true, now, outcome);
    } else if (!ctr_md.hit) {
        // Fill before modify; the fetched counter block needs
        // verification just like a read miss.
        memAccess(MemCategory::Counter, ctr_addr, false, now, outcome);
        outcome.verifyLatency +=
            traverseTree(ctr_addr, req.icount, now, outcome);
    }
    if (check::enabled() && !ctr_md.hit) {
        check::countChecks();
        if (cfg_.hashLatency > 0 &&
            outcome.verifyLatency < cfg_.hashLatency) {
            check::fail("secmem.verify",
                        "counter fetched without tree verification"
                        " (write)");
        }
    }

    // 3. Tree path: immediate when updates cannot be deferred to a dirty
    //    counter eviction (uncached counters or lazy updates disabled).
    const bool deferred = cfg_.lazyTreeUpdate &&
                          mdCache_->typeCacheable(MetadataType::Counter);
    if (!deferred)
        writeTreePath(ctr_addr, req.icount, now, outcome);

    // 4. Update the data-hash block.
    const Addr hash_addr = layout_.hashBlockAddr(req.addr);
    const auto sub_index = static_cast<std::uint32_t>(
        blockIndex(req.addr) % cfg_.layout.treeArity);
    emitTap(hash_addr, MetadataType::Hash, true, 0, req.icount);
    const auto hash_md =
        mdCache_->access(hash_addr, MetadataType::Hash, true, sub_index);
    settleEviction(hash_md, req.icount, now, outcome);
    if (faultObs_) {
        const bool fetched =
            hash_md.bypassed ||
            (!hash_md.hit && !hash_md.placeholderInserted);
        faultObs_->onMetadataAccess(hash_addr, MetadataType::Hash, true,
                                    hash_md.hit, fetched);
    }
    outcome.hashHit = hash_md.hit;
    if (hash_md.bypassed) {
        memAccess(MemCategory::Hash, hash_addr, false, now, outcome);
        memAccess(MemCategory::Hash, hash_addr, true, now, outcome);
    } else if (!hash_md.hit && !hash_md.placeholderInserted) {
        memAccess(MemCategory::Hash, hash_addr, false, now, outcome);
    }

    // 5. The data block itself.
    memAccess(MemCategory::Data, req.addr, true, now, outcome);

    // The write is now functionally committed (counter, MAC, data).
    if (faultObs_)
        faultObs_->onWriteCommitted(req);

    // Writebacks are posted; they do not stall the core.
    stats_.totalVerifyLatency += outcome.verifyLatency;
    return outcome;
}

void
SecureMemoryController::attachMetrics(metrics::Registry &registry)
{
    registry.attach("secmem", stats_);
    mdCache_->attachMetrics(registry, "secmem");
    counters_.attachMetrics(registry, "secmem.counters");
    registry.histogram("secmem.latency.read", &readLatencyHist_);
}

} // namespace maps
