/**
 * @file
 * Tamper detection demo: exercises the *functional* side of the secure
 * memory model — counter-mode encryption counters and the Bonsai Merkle
 * Tree — against three classic physical attacks:
 *
 *   1. replaying a stale counter value (rollback attack),
 *   2. corrupting a stored tree node,
 *   3. consistently rewriting a whole tree path (defeated only by the
 *      on-chip root).
 *
 * Exits 1 if any demonstrated check fails.
 */
#include <cstdio>

#include "secmem/counter_store.hpp"
#include "secmem/integrity_tree.hpp"
#include "secmem/layout.hpp"

using namespace maps;

namespace {

/** Digest a counter block's content for the tree. */
std::uint64_t
digestOf(const CounterStore &counters, Addr data_addr)
{
    // Fold every (major, minor) pair the block holds; one page per
    // counter block under the PI layout.
    const Addr page = data_addr & ~(kPageSize - 1);
    std::uint64_t digest = IntegrityTree::kDefaultCounterDigest;
    for (Addr off = 0; off < kPageSize; off += kBlockSize) {
        const auto v = counters.read(page + off);
        digest = IntegrityTree::mix(digest,
                                    IntegrityTree::mix(v.major, v.minor));
    }
    return digest;
}

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("  %-58s %s\n", what, ok ? "[OK]" : "[FAILED]");
    if (!ok)
        ++failures;
}

} // namespace

int
main()
{
    LayoutConfig lcfg;
    lcfg.protectedBytes = 64_MiB;
    MetadataLayout layout(lcfg);
    CounterStore counters(layout);
    IntegrityTree tree(layout);

    std::printf("secure memory: %s, %llu counter blocks, %u tree "
                "levels + on-chip root\n\n",
                counterModeName(lcfg.counterMode),
                static_cast<unsigned long long>(
                    layout.numCounterBlocks()),
                layout.numTreeLevels());

    // --- Normal operation: write data, update tree, verify. ---------
    std::printf("normal operation:\n");
    const Addr victim_addr = 5 * kPageSize + 3 * kBlockSize;
    const Addr ctr_block = layout.counterBlockAddr(victim_addr);

    counters.onBlockWrite(victim_addr);
    std::uint64_t digest = digestOf(counters, victim_addr);
    tree.updateCounter(ctr_block, digest);
    check(tree.verifyCounter(ctr_block, digest),
          "freshly written counter verifies");

    // More writes; the tree follows.
    for (int i = 0; i < 100; ++i)
        counters.onBlockWrite(victim_addr);
    digest = digestOf(counters, victim_addr);
    tree.updateCounter(ctr_block, digest);
    check(tree.verifyCounter(ctr_block, digest),
          "counter verifies after 100 more writes");

    // --- Attack 1: counter replay (rollback). -----------------------
    std::printf("\nattack 1: replay a stale counter value\n");
    CounterStore stale(layout);
    stale.onBlockWrite(victim_addr); // the old, first-write state
    const std::uint64_t stale_digest =
        digestOf(stale, victim_addr);
    check(!tree.verifyCounter(ctr_block, stale_digest),
          "rolled-back counter value is rejected");

    // --- Attack 2: corrupt a stored tree node. -----------------------
    std::printf("\nattack 2: flip bits in a stored tree node\n");
    const Addr leaf = layout.treeLeafForCounter(ctr_block);
    const std::uint64_t good_leaf = tree.nodeDigest(leaf);
    tree.tamperNode(leaf, good_leaf ^ 0xDEAD);
    check(!tree.verifyCounter(ctr_block, digest),
          "corrupted leaf detected");
    tree.tamperNode(leaf, good_leaf); // restore
    check(tree.verifyCounter(ctr_block, digest),
          "restored leaf verifies again");

    // --- Attack 3: consistent path rewrite. --------------------------
    std::printf("\nattack 3: rewrite the whole path consistently\n");
    IntegrityTree forged(layout);
    forged.updateCounter(ctr_block, stale_digest);
    for (const Addr node : layout.treePathForCounter(ctr_block))
        tree.tamperNode(node, forged.nodeDigest(node));
    check(!tree.verifyCounter(ctr_block, stale_digest),
          "internally consistent forgery caught by the on-chip root");

    // --- Bonus: counter overflow / page re-encryption. ---------------
    std::printf("\nsplit-counter overflow:\n");
    const Addr other = 9 * kPageSize;
    CounterWriteResult r;
    int writes = 0;
    do {
        r = counters.onBlockWrite(other);
        ++writes;
    } while (!r.pageOverflow && writes < 1000);
    std::printf("  per-block counter overflowed after %d writes; %u "
                "blocks re-encrypted\n",
                writes, r.blocksToReencrypt);
    check(writes == 128, "7-bit minor counter wraps at the 128th write");

    if (failures) {
        std::printf("\n%d check(s) FAILED.\n", failures);
        return 1;
    }
    std::printf("\nall demonstrations complete.\n");
    return 0;
}
