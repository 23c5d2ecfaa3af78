/**
 * @file
 * The stream pass's product (docs/ARCHITECTURE.md "Two passes"): one
 * reference stream's L2-side log — every access L2 sends to the LLC,
 * with the instruction gap since the previous one — plus the L1/L2
 * counters at the warmup/measure boundary and at the end. The simulator
 * writes it once per stream and replays it through each configuration's
 * LLC, secure-memory controller and DRAM; the estimator's stream memo
 * keeps it. Internal to src/core.
 *
 * Encoding: one LEB128 varint per access holding, from the low bits, a
 * 4-bit instruction gap (15 = escape: the gap minus 15 follows as a
 * second varint), the write bit, and the zigzagged block-number delta
 * from the previous access of the same kind. canneal's stream takes
 * 2.5 B per access, streaming ones under 2 B; a delta spanning a
 * 256 MiB footprint takes 4 B.
 */
#ifndef MAPS_CORE_STREAM_CAPTURE_HPP
#define MAPS_CORE_STREAM_CAPTURE_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "hierarchy/hierarchy.hpp"

namespace maps {

struct SimConfig;

struct StreamCapture
{
    /** Encoded LLC accesses: warmup window, then measure window. */
    std::vector<std::uint8_t> log;
    std::uint64_t warmupAccesses = 0;
    std::uint64_t measureAccesses = 0;
    /** L1/L2 counters at the warmup/measure boundary and at the end. */
    UpperLevelStats atMeasure;
    UpperLevelStats atEnd;

    /** Heap bytes held (what the stream memo charges). */
    std::size_t bytes() const { return sizeof(*this) + log.capacity(); }
};

/** Gap field value that escapes to a second varint. */
inline constexpr std::uint64_t kStreamGapEscape = 15;

/** Appends LLC accesses to a capture's log. */
class StreamWriter
{
  public:
    explicit StreamWriter(std::vector<std::uint8_t> &log) : log_(log) {}

    void append(Addr addr, bool write, InstCount inst_delta)
    {
        const std::uint64_t block = addr >> kBlockShift;
        const std::uint64_t delta = block - prev_[write];
        prev_[write] = block;
        // Block numbers are below 2^58, so the zigzagged delta fits in
        // 59 bits and the packed word in 64.
        const auto sign = static_cast<std::int64_t>(delta) >> 63;
        const std::uint64_t zz =
            (delta << 1) ^ static_cast<std::uint64_t>(sign);
        const std::uint64_t gap = std::min(inst_delta, kStreamGapEscape);
        put((zz << 5) | (std::uint64_t{write} << 4) | gap);
        if (gap == kStreamGapEscape)
            put(inst_delta - kStreamGapEscape);
    }

  private:
    std::vector<std::uint8_t> &log_;
    std::uint64_t prev_[2] = {0, 0};

    void put(std::uint64_t v)
    {
        while (v >= 0x80) {
            log_.push_back(static_cast<std::uint8_t>(v | 0x80));
            v >>= 7;
        }
        log_.push_back(static_cast<std::uint8_t>(v));
    }
};

/** Decodes a capture's log in order (the inverse of StreamWriter). */
class StreamReader
{
  public:
    explicit StreamReader(const std::vector<std::uint8_t> &log)
        : p_(log.data())
    {
    }

    void next(LlcAccess *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t v = get();
            const bool write = (v >> 4) & 1;
            const std::uint64_t zz = v >> 5;
            prev_[write] += (zz >> 1) ^ (0 - (zz & 1));
            std::uint64_t gap = v & 15;
            if (gap == kStreamGapEscape)
                gap += get();
            out[i].addr = prev_[write] << kBlockShift;
            out[i].write = write;
            out[i].instDelta = gap;
        }
    }

  private:
    const std::uint8_t *p_;
    std::uint64_t prev_[2] = {0, 0};

    std::uint64_t get()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            const std::uint8_t b = *p_++;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
    }
};

/**
 * The stream pass: generator -> L1 -> L2 for the stream @p cfg names
 * (benchmark, seed, skip/warmup/measure windows, L1/L2 shape and
 * policy; every other field is ignored), logging what leaves L2. Under
 * maps::check the L1/L2 shadows and the hierarchy invariants audit it.
 */
std::shared_ptr<const StreamCapture> captureStream(const SimConfig &cfg);

namespace estimator {

/**
 * The stream memo (core/estimator.cpp): the capture of @p cfg's
 * reference stream, captured once per process under its entry's
 * once_flag and shared by every configuration that differs only in
 * what replay models (the LLC geometry, secure memory, DRAM, energy).
 * LRU-evicted under a byte bound; resetCacheForTests() drops it.
 */
std::shared_ptr<const StreamCapture> streamFor(const SimConfig &cfg);

} // namespace estimator

} // namespace maps

#endif // MAPS_CORE_STREAM_CAPTURE_HPP
