/**
 * @file
 * Suite-level reducers.
 */
#ifndef MAPS_UTIL_STATS_HPP
#define MAPS_UTIL_STATS_HPP

#include <vector>

namespace maps {

/** Geometric mean of positive values; values <= 0 are clamped to epsilon. */
double geometricMean(const std::vector<double> &values);

} // namespace maps

#endif // MAPS_UTIL_STATS_HPP
