/**
 * @file
 * FNV-1a, the one non-cryptographic hash behind every stable identity
 * in MAPS: derived cell seeds, checkpoint file names and content
 * hashes, mapsd job ids, and CSOPT's state-table buckets. The persisted
 * ones name files on disk and jobs on the wire, so the constants and
 * fold order never change (tests pin them with known answers).
 */
#ifndef MAPS_UTIL_HASH_HPP
#define MAPS_UTIL_HASH_HPP

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace maps {

/**
 * Incremental 64-bit FNV-1a. The optional seed is XORed into the offset
 * basis: Fnv1a() is the textbook hash, Fnv1a(base) a seeded family.
 */
class Fnv1a
{
  public:
    explicit Fnv1a(std::uint64_t seed = 0)
        : h_(0xCBF29CE484222325ull ^ seed)
    {
    }

    /** Fold one unit: a byte, or a wider word taken whole. */
    Fnv1a &mix(std::uint64_t unit)
    {
        h_ = (h_ ^ unit) * 0x100000001B3ull;
        return *this;
    }

    Fnv1a &bytes(const void *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            mix(static_cast<const unsigned char *>(data)[i]);
        return *this;
    }

    Fnv1a &bytes(std::string_view text)
    {
        return bytes(text.data(), text.size());
    }

    std::uint64_t value() const { return h_; }

    /** value() as 16 lowercase hex digits. */
    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_;
};

} // namespace maps

#endif // MAPS_UTIL_HASH_HPP
