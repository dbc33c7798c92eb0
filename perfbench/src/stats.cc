#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    auto r = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::size_t r = nearestRank(v.size(), p);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(r - 1),
                     v.end());
    return v[r - 1];
}

double
mean(std::span<const double> v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

double
highestSupportedPercentile(std::size_t n)
{
    double best = 0.0;
    for (double p : {50.0, 90.0, 99.0, 99.9})
        if (samplesBeyond(n, p) >= 10)
            best = p;
    return best;
}

double
littleQueueWait(std::span<const QueueSample> samples,
                std::size_t requests)
{
    if (requests == 0)
        return 0.0;
    double area = 0.0;
    for (std::size_t i = 1; i < samples.size(); ++i)
        area += static_cast<double>(samples[i].pending) *
                (samples[i].t - samples[i - 1].t);
    return area / static_cast<double>(requests);
}

} // namespace perfbench
