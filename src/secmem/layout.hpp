/**
 * @file
 * Metadata address-space geometry for secure memory.
 *
 * Two organizations from the paper's Table II:
 *
 *  - PoisonIvy (PI) split counters: one 8B per-page counter plus 64 7-bit
 *    per-block counters per 64B counter block => a counter block covers a
 *    4KB page of data.
 *  - Intel SGX monolithic counters: eight 8B per-block counters per 64B
 *    counter block => a counter block covers 512B of data.
 *
 * In both, data-hash blocks hold eight 8B HMACs covering 512B of data,
 * and the Bonsai Merkle Tree is an arity-8 hash tree over the counter
 * blocks whose root stays on chip (never stored, never fetched).
 *
 * Metadata lives in a tagged 64-bit address space so one unified cache
 * can hold every type:  [type:4 | level:6 | blockIndex:48 | offset:6].
 */
#ifndef MAPS_SECMEM_LAYOUT_HPP
#define MAPS_SECMEM_LAYOUT_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"
#include "util/types.hpp"

namespace maps {

/** Counter organization (Table II). */
enum class CounterMode : std::uint8_t
{
    SplitPi = 0,      ///< 8B/page + 64 x 7b/block (PoisonIvy [12])
    MonolithicSgx = 1 ///< 8 x 8B per block (Intel SGX [1])
};

const char *counterModeName(CounterMode mode);

/** Configuration of the protected region. */
struct LayoutConfig
{
    /** Bytes of protected data memory (power of two, >= one page). */
    std::uint64_t protectedBytes = 4_GiB;
    CounterMode counterMode = CounterMode::SplitPi;
    /** Integrity-tree arity (hashes per 64B tree block). */
    std::uint32_t treeArity = 8;

    void validate() const;

    bool operator==(const LayoutConfig &) const = default;
};

/**
 * A counter block's verification path, leaf first, in a fixed-capacity
 * array: the per-request callers (the analytic profiler, fault
 * tracking) allocate nothing.
 */
class TreePath
{
  public:
    /** The address encoding's 6-bit level field bounds the depth. */
    static constexpr std::size_t kCapacity = 64;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Addr operator[](std::size_t i) const { return nodes_[i]; }
    Addr back() const { return nodes_[size_ - 1]; }
    const Addr *begin() const { return nodes_.data(); }
    const Addr *end() const { return nodes_.data() + size_; }

    void push_back(Addr node) { nodes_[size_++] = node; }

  private:
    std::array<Addr, kCapacity> nodes_{};
    std::size_t size_ = 0;
};

/**
 * Pure geometry: block counts, address mapping between data addresses and
 * metadata block addresses, and tree parent/child arithmetic. Stateless
 * after construction; shared by the controller, the functional tree, and
 * the analyzers.
 */
class MetadataLayout
{
  public:
    explicit MetadataLayout(LayoutConfig cfg = {});

    const LayoutConfig &config() const { return cfg_; }

    /// @name Block counts
    /// @{
    std::uint64_t numDataBlocks() const { return dataBlocks_; }
    std::uint64_t numCounterBlocks() const { return counterBlocks_; }
    std::uint64_t numHashBlocks() const { return hashBlocks_; }
    /** Stored tree levels (level 0 = leaves; the root is on chip). */
    std::uint32_t numTreeLevels() const
    {
        return static_cast<std::uint32_t>(treeLevelBlocks_.size());
    }
    /** Stored blocks at a tree level. */
    std::uint64_t treeLevelBlockCount(std::uint32_t level) const
    {
        return treeLevelBlocks_[level];
    }
    /** Total metadata blocks of every type. */
    std::uint64_t totalMetadataBlocks() const;
    /// @}

    /// @name Coverage (Table II's "data protected")
    /// @{
    /** Data bytes covered by one 64B counter block (4KB PI / 512B SGX). */
    std::uint64_t counterBlockCoverage() const { return counterCoverage_; }
    /** Data bytes covered by one 64B hash block (512B). */
    std::uint64_t hashBlockCoverage() const
    {
        return cfg_.treeArity * kBlockSize;
    }
    /** Data bytes covered by one tree block at a level. */
    std::uint64_t treeBlockCoverage(std::uint32_t level) const;
    /// @}

    /// @name Address mapping (data address -> metadata block address)
    /// @{
    Addr counterBlockAddr(Addr data_addr) const;
    Addr hashBlockAddr(Addr data_addr) const;
    Addr treeNodeAddr(std::uint32_t level, std::uint64_t index) const;

    /** Tree leaf (level 0) protecting a counter block. */
    Addr treeLeafForCounter(Addr counter_block_addr) const;
    /** Parent tree node of a tree node; kInvalidAddr when parent = root. */
    Addr treeParent(Addr tree_node_addr) const;

    /** Full verification path for a counter block: leaf up to (not
     * including) the on-chip root, bottom-up. */
    TreePath treePathForCounter(Addr counter_block_addr) const;
    /// @}

    /// @name Metadata address encoding
    /// @{
    static MetadataType typeOf(Addr metadata_addr);
    static std::uint32_t levelOf(Addr metadata_addr);
    static std::uint64_t indexOf(Addr metadata_addr);
    static bool isMetadataAddr(Addr addr);
    static Addr encode(MetadataType type, std::uint32_t level,
                       std::uint64_t index);
    /// @}

    /** Index helpers (block index within its type/level). */
    std::uint64_t counterBlockIndex(Addr data_addr) const;
    std::uint64_t hashBlockIndex(Addr data_addr) const;

  private:
    LayoutConfig cfg_;
    std::uint64_t dataBlocks_;
    std::uint64_t counterBlocks_;
    std::uint64_t hashBlocks_;
    std::uint64_t counterCoverage_;
    std::vector<std::uint64_t> treeLevelBlocks_;
};

} // namespace maps

#endif // MAPS_SECMEM_LAYOUT_HPP
