#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace maps {

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double acc = 0.0;
    for (double v : values)
        acc += std::log(std::max(v, 1e-12));
    return std::exp(acc / static_cast<double>(values.size()));
}

} // namespace maps
