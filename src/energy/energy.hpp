/**
 * @file
 * Energy and delay models (McPAT/CACTI stand-in, DESIGN.md §1).
 *
 * Uses the paper's cited constants: DRAM 150 pJ/bit [14], SRAM
 * 0.3 pJ/bit [26]. SRAM per-access energy scales with sqrt(capacity)
 * (CACTI-like wordline/bitline growth); a small per-MB leakage power
 * term makes capacity itself cost energy over time.
 */
#ifndef MAPS_ENERGY_ENERGY_HPP
#define MAPS_ENERGY_ENERGY_HPP

#include <cstdint>

#include "util/types.hpp"

namespace maps {

/** Model constants. */
struct EnergyConfig
{
    double dramPjPerBit = 150.0;     ///< [14] per bit transferred
    double sramPjPerBitRef = 0.3;    ///< [26] at the reference capacity
    std::uint64_t sramRefBytes = 1_MiB;
    double sramSizeExponent = 0.5;   ///< access energy ~ size^exp
    double sramLeakMwPerMb = 20.0;   ///< static power
    double cpuFreqGhz = 3.0;         ///< Table I

    bool operator==(const EnergyConfig &) const = default;
};

/** Per-component dynamic + leakage energy, in picojoules. */
struct EnergyBreakdown
{
    double l1Pj = 0;
    double l2Pj = 0;
    double llcPj = 0;
    double mdCachePj = 0;
    double dramPj = 0;
    double leakagePj = 0;

    double totalPj() const
    {
        return l1Pj + l2Pj + llcPj + mdCachePj + dramPj + leakagePj;
    }
};

/** Evaluates the constants above. */
class EnergyModel
{
  public:
    explicit EnergyModel(EnergyConfig cfg = {});

    /** Energy of one 64B SRAM access in a cache of the given size. */
    double sramAccessPj(std::uint64_t size_bytes) const;

    /** Energy of one 64B DRAM block transfer. */
    double dramAccessPj() const;

    /** Dynamic energy of a cache given its access count. */
    double cacheDynamicPj(std::uint64_t size_bytes,
                          std::uint64_t accesses) const;

    /** Leakage of an SRAM array over a duration. */
    double leakagePj(std::uint64_t size_bytes, double seconds) const;

    /** Convert cycles to seconds at the configured clock. */
    double secondsOf(Cycles cycles) const;

    const EnergyConfig &config() const { return cfg_; }

  private:
    EnergyConfig cfg_;
};

/** Energy-delay-squared: energy (pJ) x time (s) squared. */
double energyDelaySquared(double energy_pj, double seconds);

} // namespace maps

#endif // MAPS_ENERGY_ENERGY_HPP
