/**
 * @file
 * The benchmark's workloads and their seeded request generator. Every
 * load parameter (request shapes, batch size) is a constant here; none is derived from timing the host,
 * so the parent and a change see exactly the same load for a seed.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

/** SplitMix64: a tiny generator whose output is fixed by the seed
 *  alone on every platform and standard library. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n), n > 0. */
    std::uint64_t below(std::uint64_t n);

  private:
    std::uint64_t state_;
};

/** One workload: closed offline batches of a traffic mix. */
struct WorkloadSpec
{
    const char *name;
    std::size_t batchRequests;  ///< requests submitted together
    /** Nominal seconds one batch takes, a constant that turns
     *  --seconds into a fixed batch count (never re-measured). */
    double nominalBatchSec;
    std::size_t sharedPrefixTokens;  ///< system prompt every request opens with
    int uniqueMin, uniqueMax;   ///< per-request unique prompt tokens
    int genMin, genMax;         ///< generation budget
};

/** Every workload serving_bench runs, as listed in BENCHMARK.json. */
std::span<const WorkloadSpec> workloads();
/** The workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(std::string_view name);

/** One generated request: what the engine receives, plus when. */
struct GenRequest
{
    std::int64_t id = 0;
    std::vector<int> prompt;
    int maxNewTokens = 0;
    double dueSec = 0.0;  ///< send time from the run's start (batch t0)
};

/** Batches a run of @p seconds makes (at least one). */
std::size_t batchCount(const WorkloadSpec &w, double seconds);

/** Batch @p batchIndex of a run: batchRequests requests, all due at
 *  the batch's start. Ids are unique across the run's batches. */
std::vector<GenRequest> makeBatch(const WorkloadSpec &w,
                                        std::uint64_t seed,
                                        std::size_t batchIndex,
                                        std::size_t vocab);

/** @p k distinct indices of [0, n), chosen by @p seed, ascending. */
std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
