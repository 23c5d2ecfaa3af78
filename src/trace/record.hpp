/**
 * @file
 * Record vocabulary for every trace level in MAPS:
 *
 *   MemRef         — CPU-level loads/stores emitted by workload generators.
 *   MemoryRequest  — LLC-level reads and dirty writebacks reaching the
 *                    memory controller.
 *   MetadataAccess — accesses to secure-memory metadata (counters, data
 *                    hashes, integrity-tree nodes) generated by the secure
 *                    memory controller. These are what MAPS characterizes.
 */
#ifndef MAPS_TRACE_RECORD_HPP
#define MAPS_TRACE_RECORD_HPP

#include <cstdint>

#include "util/types.hpp"

namespace maps {

/** CPU access direction. */
enum class AccessType : std::uint8_t { Read = 0, Write = 1 };

/** A CPU-level memory reference. */
struct MemRef
{
    Addr addr = 0;
    AccessType type = AccessType::Read;
    /** Instructions retired since the previous reference (>= 1). */
    std::uint32_t instGap = 1;

    bool isWrite() const { return type == AccessType::Write; }
};

/** Kind of request arriving at the memory controller. */
enum class RequestKind : std::uint8_t
{
    Read = 0,      ///< LLC load/store miss fill
    Writeback = 1, ///< dirty line evicted from the LLC
};

/** An LLC-level memory request (block granularity). */
struct MemoryRequest
{
    Addr addr = 0;
    RequestKind kind = RequestKind::Read;
    /** Cumulative retired instructions when the request was issued. */
    InstCount icount = 0;

    bool isWrite() const { return kind == RequestKind::Writeback; }
};

/** The three metadata types of secure memory, plus Data for unified views. */
enum class MetadataType : std::uint8_t
{
    Counter = 0,  ///< encryption counter blocks
    TreeNode = 1, ///< Bonsai Merkle Tree (counter-integrity) nodes
    Hash = 2,     ///< per-data-block integrity hashes
    Data = 3,     ///< plain data (not metadata; used by unified analyses)
};

inline constexpr unsigned kNumMetadataTypes = 3;

/** Human-readable metadata type name. */
const char *metadataTypeName(MetadataType t);

/**
 * One access to the metadata address space, as seen *before* the metadata
 * cache (workload-driven stream for counters/hashes; miss-driven for tree
 * nodes).
 */
struct MetadataAccess
{
    /** Address in the unified metadata address space (block aligned). */
    Addr addr = 0;
    MetadataType type = MetadataType::Counter;
    AccessType access = AccessType::Read;
    /** Tree level (0 = leaves) for TreeNode; 0 otherwise. */
    std::uint8_t level = 0;
    /** Cumulative retired instructions at the triggering request. */
    InstCount icount = 0;

    bool isWrite() const { return access == AccessType::Write; }
};

/**
 * Request-transition classes from the paper's Figure 5: the previous access
 * and the current access to the *same metadata block*, by direction.
 */
enum class ReuseTransition : std::uint8_t
{
    ReadAfterRead = 0,
    ReadAfterWrite = 1,
    WriteAfterRead = 2,
    WriteAfterWrite = 3,
};

const char *reuseTransitionName(ReuseTransition t);

/** Classify a transition from previous to current access direction. */
inline ReuseTransition
classifyTransition(AccessType prev, AccessType curr)
{
    const unsigned idx = (curr == AccessType::Write ? 2u : 0u) |
                         (prev == AccessType::Write ? 1u : 0u);
    return static_cast<ReuseTransition>(idx);
}

} // namespace maps

#endif // MAPS_TRACE_RECORD_HPP
