/**
 * @file
 * Drives PipelinedEngine through its request API only (submit() and
 * step()) with a workload's generated requests, and checks what comes
 * back against ReferenceEngine.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/engine.hh"
#include "stats.hh"
#include "trace.hh"
#include "workload.hh"

namespace perfbench {

/** The fixed mid-size model: fig9 shapes, F32 weights and KV. */
moelight::ModelConfig benchModel();

/** The one engine configuration every workload shares, with expert
 *  weights streamed over a link throttled to 0.6 GB/s. */
moelight::EngineConfig benchEngineConfig();

std::unique_ptr<moelight::ModelWeights> makeWeights();

/** Construct an engine and serve one fixed warm-up request through
 *  it, so thread pools and scratch buffers exist before timing. */
std::unique_ptr<moelight::PipelinedEngine>
makeEngine(const moelight::ModelWeights &weights);

/** One step() call as the driver saw it. */
struct StepRecord
{
    double startSec = 0.0;  ///< from the pass start
    double endSec = 0.0;
    std::size_t batch = 0;     ///< requests that decoded in the step
    std::size_t admitted = 0;  ///< requests the step admitted
};

/** Outputs of one batch, served together and timed as one. */
struct OutputGroup
{
    std::size_t begin = 0, end = 0;  ///< range of PassResult::outputs
    double wallSec = 0.0;
    std::size_t tokens = 0;
};

/** Everything one measured pass produced. */
struct PassResult
{
    std::vector<GenRequest> requests;  ///< all sent, in send order
    std::vector<moelight::RequestOutput> outputs;  ///< delivery order
    std::vector<double> latencySec;  ///< due time -> delivery, per output
    std::vector<double> lateSec;     ///< send time - due time, per request
    std::vector<StepRecord> steps;
    std::vector<QueueSample> queue;  ///< pendingRequests() per boundary
    std::vector<OutputGroup> groups;
    /** Time the driver spent recording spans while serving: the extra
     *  work a traced pass does over an untraced one. */
    double recordSec = 0.0;
    std::size_t generatedTokens = 0;
    // Engine counters, summed over the pass's engines (peak: max).
    moelight::TransferStats transfer;
    moelight::PrefixCacheStats prefix;
    std::size_t preemptions = 0;
    std::size_t kvPeakPages = 0;
    std::size_t kvUsedEnd = 0;
};

/**
 * Serve one pass of workload @p w: each batch on a fresh engine set up
 * outside the timed window. With @p rec, spans are recorded around
 * every submit() and step() and for each request from due time to
 * delivery, under @p parentSpan.
 */
PassResult runPass(const moelight::ModelWeights &weights,
                   const WorkloadSpec &w, std::uint64_t seed,
                   double seconds, SpanRecorder *rec = nullptr,
                   std::int64_t parentSpan = -1);

/** Outcome of the output check: each miss is one failed request. */
struct CheckReport
{
    std::size_t failed = 0;
    std::vector<std::string> problems;
};

/**
 * Every sent id came back exactly once, finished by Length with its
 * full budget of in-vocabulary tokens, and the KV pool drained; a
 * seeded sample of 8 requests matches ReferenceEngine (same weights,
 * same page size) token for token.
 */
CheckReport checkPass(const PassResult &pass,
                      const moelight::ModelWeights &weights,
                      std::uint64_t seed);

/** Requests whose tokens differ between two passes of the same
 *  requests (the traced and untraced runs). */
CheckReport compareTokens(const PassResult &a, const PassResult &b);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH
