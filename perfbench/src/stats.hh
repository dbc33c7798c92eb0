/**
 * @file
 * Summary statistics the benchmark reports: nearest-rank percentiles,
 * the rule for how high a percentile a sample supports, and queue wait
 * by Little's law.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace perfbench {

/** Nearest-rank percentile @p p (0 < p <= 100) of @p v; 0 when @p v
 *  is empty. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double mean(std::span<const double> v);

/** Samples of @p n that lie beyond the nearest-rank percentile @p p. */
std::size_t samplesBeyond(std::size_t n, double p);

/** The highest of p50, p90, p99 and p99.9 that keeps at least ten of
 *  @p n samples beyond it; 0 when even p50 does not. */
double highestSupportedPercentile(std::size_t n);

/** pendingRequests() read at a step boundary. */
struct QueueSample
{
    double t = 0.0;  ///< seconds
    std::size_t pending = 0;
};

/**
 * Mean queue wait in seconds by Little's law, W = (integral of queue
 * length over time) / requests. @p samples are ordered step
 * boundaries; the count read at a boundary is charged to the whole
 * interval that ends there, since admission happens at the start of
 * a step and anything still pending at its end waited through it.
 */
double littleQueueWait(std::span<const QueueSample> samples,
                       std::size_t requests);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
