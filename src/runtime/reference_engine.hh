/**
 * @file
 * Sequential reference engine: the straightforward single-threaded
 * MoE transformer forward pass, token by token, with plain contiguous
 * KV tensors. It is the correctness oracle for the pipelined CGOPipe
 * engine — both must emit identical tokens per request for identical
 * weights, whether driven through the batch generate() convenience or
 * the request-level submit()/step() serving API (the reference
 * admits every pending request unconditionally, advances each active
 * request one token per step, and frees a request's KV the moment it
 * finishes, so it is also the oracle for staggered admission and
 * mixed generation lengths).
 */

#ifndef MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH
#define MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strong_types.hh"
#include "runtime/kv_cache.hh"
#include "runtime/serving.hh"
#include "runtime/weights.hh"

namespace moelight {

/**
 * Single-threaded oracle. Not performance-oriented: prefill is
 * processed token by token through all layers. The compute itself is
 * sequential, but the request lifecycle is PipelinedEngine's: both
 * compose the same ContinuousBatcher front-end (here with micro-batch
 * 1 and no KV budget, admitting every queued request in FIFO order),
 * so submit / cancel / pendingRequests / activeRequests are callable
 * from any thread concurrently with one driver's step(), and the
 * front-end tests exercise one implementation through both engines.
 */
class ReferenceEngine : public Engine
{
  public:
    /**
     * @p weights must outlive the engine. When @p kvQuant is set, KV
     * is stored in a KvCacheManager with that codec and
     * @p kvPageTokens tokens per page, and attention runs through the
     * fused quant kernel — the single-threaded oracle for the
     * pipelined engine's quantized mode (page geometry must match for
     * token-exact comparison).
     */
    explicit ReferenceEngine(
        const ModelWeights &weights,
        std::optional<QuantKind> kvQuant = std::nullopt,
        std::size_t kvPageTokens = 16);

    // Request-level serving API (Engine).
    void submit(ServeRequest req) override;
    std::vector<RequestOutput> step() override;
    bool cancel(std::int64_t id) override;
    std::size_t pendingRequests() const override;
    std::size_t activeRequests() const override;

    /**
     * Forward one token of one sequence through the full stack and
     * return the output hidden state (pre-norm). Exposed for
     * fine-grained testing. @p seq indexes the internal KV caches,
     * which are created on first use; avoid mixing manual
     * forwardToken() streams with in-flight serving requests, which
     * allocate the same indices.
     */
    std::vector<float> forwardToken(SeqId seq, int token);

    /** Logits from a hidden state (final norm + LM head). */
    std::vector<float> logitsOf(const std::vector<float> &hidden) const;

    /** Drop all KV state; only valid when no requests are in flight. */
    void reset();

  private:
    struct SeqCache
    {
        /** Per layer: [len, nkv*headDim] grow-able K and V. */
        std::vector<std::vector<float>> k;
        std::vector<std::vector<float>> v;
        /** Quantized mode: one single-sequence cache per sequence
         *  (lazily created; k/v above stay empty). */
        std::unique_ptr<KvCacheManager> quant;
        std::size_t len = 0;
    };

    /** One admitted, still-generating request. */
    struct ActiveRequest
    {
        ServeRequest req;
        SeqId seq{0};               ///< index into seqs_
        std::vector<int> tokens;    ///< generated so far
        std::vector<float> hidden;  ///< last pre-norm hidden state
        ServeCarry carry;           ///< phase times for the output
    };

    SeqCache &cacheFor(SeqId seq);
    SeqId allocSeq();
    void freeSeq(SeqId seq);
    /** Free @p a's KV, drop its id from the front-end and emit its
     *  output with @p reason. */
    void retire(ActiveRequest a, FinishReason reason,
                std::vector<RequestOutput> &out,
                std::string errorMessage = {});
    /** Retire every active request @p reasonOf gives a reason for,
     *  keeping the rest in order. */
    void retireWhere(
        std::vector<RequestOutput> &out,
        const std::function<std::optional<FinishReason>(
            const ActiveRequest &)> &reasonOf);

    const ModelWeights &w_;
    std::optional<QuantKind> kvQuant_;
    std::size_t kvPageTokens_;
    std::vector<SeqCache> seqs_;
    std::vector<SeqId> freeSeqs_;
    std::vector<ActiveRequest> active_;  ///< driver-owned
    /** The thread-safe front-end shared with PipelinedEngine. */
    ContinuousBatcher batcher_{/*microBatch=*/1, /*kvBudgetTokens=*/0};
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_REFERENCE_ENGINE_HH
