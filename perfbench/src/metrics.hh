/**
 * @file
 * The benchmark's metric table and its result line. The names and
 * units here are the ones BENCHMARK.json lists, which also gives each
 * metric's direction; perfbench/run.py checks every result line
 * against that file.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace perfbench {

struct MetricDef
{
    const char *name;
    const char *unit;
    /** Per-layer metrics: the end-to-end metric, and the workload,
     *  this layer figure should move (empty for end-to-end ones). */
    const char *moves;
};

/** Metrics of the untraced run (--trace 0). */
std::span<const MetricDef> endToEndMetrics();
/** Metrics of the traced run (--trace 1). */
std::span<const MetricDef> perLayerMetrics();

/** A metric name: starts with a letter or digit, then at most 63 more
 *  letters, digits, '_', '.' or '-'. */
bool validMetricName(std::string_view name);

using MetricValues = std::map<std::string, double>;

/**
 * The result line: one JSON object with keys correct, attempted,
 * failed and metrics, holding every metric of @p defs with its unit.
 * Throws std::logic_error when @p values lacks one of them or holds a
 * value that is not finite.
 */
std::string resultJson(bool correct, std::size_t attempted,
                       std::size_t failed,
                       std::span<const MetricDef> defs,
                       const MetricValues &values);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
