/**
 * @file
 * Per-layer replays for the traced run: calls into the KV cache, the
 * paged weight store, the stream executor and the kernels at the
 * workload's shapes, each call timed under its own span. They stand
 * in for spans inside the program, which the engine does not emit.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstddef>
#include <cstdint>

#include "metrics.hh"
#include "runtime/weights.hh"
#include "trace.hh"

namespace perfbench {

struct ReplayShapes
{
    std::size_t decodeRows = 8;  ///< rows of one decode micro-batch
    std::size_t promptLen = 0;   ///< mean prompt length (prefill rows)
    std::size_t decodeCtx = 0;   ///< mean context at decode
    std::size_t kvPageTokens = 16;
    double throttleBw = 0.0;     ///< the engine's link throttle
};

/**
 * Run every replay and return its figures under their metric names:
 * kernels.* (ms per call, computed GFLOP and MB, the prefill MoE FFN's
 * rates), kv.append_us, kv.view_us, weights.load_layer_ms, exec.hop_us
 * and exec.sync_us. Kernels run single-threaded.
 */
MetricValues runReplays(const moelight::ModelWeights &weights,
                        const ReplayShapes &shapes, SpanRecorder &rec,
                        std::int64_t parentSpan);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
