/**
 * @file
 * The CGOPipe pipelined inference engine (paper §4.1 + Appendix A):
 * decode-stage work is decomposed into PreAttn (GPU), QKV offload
 * (DtoH), CPU attention, hidden-state load (HtoD) and PostAttn (GPU),
 * launched in Algorithm 1's order onto the four stream-executor
 * queues with weight pages interleaved into the HtoD stream. All
 * data movement goes through the paged weight store, the pinned
 * staging ring and the paged CPU KV cache — the real memory-
 * management code paths of the paper, executed with real kernels on
 * a synthetic model.
 *
 * The public surface is the request-level serving API (serving.hh):
 * the engine holds a fixed pool of sequence slots, and every step()
 * is one continuous-batching round with one layer sweep and one
 * weight stream. The request lifecycle — the admission queue,
 * cancellation, deadlines of queued requests, the active-id set and
 * preempted requests' carry — lives in the composed ContinuousBatcher,
 * the same front-end ReferenceEngine uses; this engine adds the KV
 * budget check at submit() and owns only its slots. Algorithm 2
 * (inside the batcher) admits queued requests into free slots;
 * as each layer's weights arrive they serve both the Algorithm 1
 * decode chains of the already-active sequences (one token each) and
 * the prefill of the admitted prompts, whose first token is sampled
 * after the last layer — they start decoding in the next step.
 * Finished sequences retire immediately, releasing their KV pages
 * back to the pool mid-flight while the rest keep generating.
 *
 * Functional contract: identical greedy tokens to ReferenceEngine
 * per request for identical weights and KV geometry, regardless of
 * admission schedule or co-batching (tested in tests/runtime).
 */

#ifndef MOELIGHT_RUNTIME_ENGINE_HH
#define MOELIGHT_RUNTIME_ENGINE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strong_types.hh"
#include "common/sync.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "kernels/router.hh"  // TokenRouting (prefill scratch)
#include "runtime/kv_cache.hh"
#include "runtime/paged_weights.hh"
#include "runtime/prefix_cache.hh"
#include "runtime/serving.hh"
#include "runtime/stream_executor.hh"
#include "runtime/transfer_engine.hh"
#include "runtime/weights.hh"

namespace moelight {

/** Runtime knobs for the pipelined engine. */
struct EngineConfig
{
    std::size_t microBatch = 4;       ///< sequences per micro-batch
    std::size_t kvPageTokens = 16;    ///< tokens per KV page
    std::size_t kvCapacityTokens = 1u << 16;  ///< KV pool (tokens)
    std::size_t lookahead = 2;        ///< Algorithm 1's CPU-attn lead
    Bandwidth throttleBw = 0.0;       ///< simulated link bw; 0 = off
    /** Sequence slots: the maximum number of requests generating
     *  concurrently. Submissions beyond it queue in the continuous
     *  batcher and are admitted as slots free up. */
    std::size_t maxConcurrency = 16;
    /** Worker threads for the CPU attention kernel (the paper's
     *  24-core MKL kernel); 0 = run attention on the CPU queue
     *  thread alone. */
    std::size_t cpuAttnThreads = 0;
    /** Rounds the admission queue's head may be passed over before
     *  younger requests are held back for it — and, with active
     *  sequences pinning the KV pool, before the engine preempts the
     *  youngest of them (recompute-on-resume) to unblock the head.
     *  Lower = stronger FIFO fairness, more preemption recompute;
     *  higher = more throughput-friendly reordering. Must be >= 1. */
    std::size_t headAgeLimit = ContinuousBatcher::kHeadAgeLimit;
    /** The KV cache's page codec: int8/int4 quantize each page as it
     *  closes and attention reads it through the fused quant kernels
     *  — the Fig. 4 lever that raises attention's operational
     *  intensity. nullopt (the default) stores float pages,
     *  bit-identical to ReferenceEngine; with a codec tokens instead
     *  match a ReferenceEngine constructed with the same kvQuant and
     *  kvPageTokens. */
    std::optional<QuantKind> kvQuant{};
    /** Share closed KV pages across requests with a common prompt
     *  prefix (radix-tree prefix cache over the page table): a hit
     *  attaches the cached pages read-only and prefills only the
     *  novel tail, admission budgets only that tail, and refcount-0
     *  cached pages are LRU-evicted under pool pressure. Greedy
     *  tokens stay bit-identical to a cold cache (and to
     *  ReferenceEngine) — the cached pages hold exactly the floats
     *  (or deterministically quantized pages) a cold prefill would
     *  recompute. */
    bool prefixCache = false;

    /** Fatal with a field-by-field diagnosis on an unusable config
     *  (zero micro-batch, zero-token KV pages, ...); called by the
     *  engine constructor so bad configs fail at build time with a
     *  clear message, not deep inside the pipeline. */
    void validate() const;
};

/**
 * CGOPipe engine. The model's layer count must be a multiple of the
 * weight-slot count (2) so the double-buffer rotation is conflict-
 * free.
 */
class PipelinedEngine : public Engine
{
  public:
    /** @p weights must outlive the engine. */
    PipelinedEngine(const ModelWeights &weights, EngineConfig cfg);
    ~PipelinedEngine() override;

    // Request-level serving API (Engine).
    void submit(ServeRequest req) override;
    std::vector<RequestOutput> step() override;
    bool cancel(std::int64_t id) override;
    std::size_t pendingRequests() const override;
    std::size_t activeRequests() const override;

    /** Times the engine preempted an active sequence under KV
     *  pressure (freed its pages and requeued it for prefill
     *  recompute) over the engine's life. */
    std::size_t preemptions() const { return preemptions_; }

    /** Transfer byte counters since construction or the last
     *  generate() call (generate resets them). */
    TransferStats transferStats() const { return te_.stats(); }

    /** Current KV usage in pages referenced by live sequences: one K
     *  and one V page per block, whatever the codec. Shrinks
     *  mid-flight as requests retire; 0 once the engine drains. */
    std::size_t kvUsedPages() const;

    /** High-water mark of kvUsedPages() over the engine's life. */
    std::size_t kvPeakPages() const { return kvPeakPages_; }

    /** Resident pages held only by the prefix cache (pinned, no live
     *  sequence): reusable capacity, evicted under pressure. 0 with
     *  the prefix cache off. */
    std::size_t kvCachedPages() const;

    /** Prefix-cache effectiveness counters over the engine's life
     *  (all zero when cfg.prefixCache is off). */
    PrefixCacheStats prefixCacheStats() const
    {
        return prefix_ ? prefix_->stats() : PrefixCacheStats{};
    }

  protected:
    void resetBatchStats() override { te_.resetStats(); }

  private:
    /** One admitted, still-generating request in a sequence slot. */
    struct ActiveSeq
    {
        ServeRequest req;
        std::vector<int> tokens;  ///< generated since (re)admission
        /** Pre-preemption tokens, preemption count and phase times;
         *  the output reports carry.saved + tokens. */
        ServeCarry carry;
        int next = 0;             ///< token to embed next round
        /** Monotonic admission stamp; the preemption victim is the
         *  slot with the highest one (youngest loses least work). */
        std::uint64_t admitStamp = 0;
        /** Prompt tokens attached from the prefix cache at admission
         *  (0 = cold): prefill starts at this position. */
        std::size_t prefixLen = 0;
        /** This request's private KV reservation (net of the shared
         *  prefix) — what kvTokensInUse() reports per slot, frozen at
         *  admission so later cache eviction can't skew the
         *  accounting. */
        std::size_t reservedTokens = 0;
    };

    /** Per-round plumbing (buffers reused across rounds). */
    struct StepState;

    /** Place admitted requests into free slots; returns them. */
    std::vector<SlotIdx> admitPending();
    /** One step's round: prefill @p fresh and decode every other
     *  active slot in one layer sweep, then retire. */
    void runRound(std::vector<SlotIdx> fresh,
                  std::vector<RequestOutput> &finished);
    /** Submit the round's tasks: the weight stream, the decode
     *  chains and the per-layer prefill. */
    void launchRound(StepState &st);
    /** Embed the admitted prompts and size the prefill buffers;
     *  returns the longest prompt. */
    std::size_t preparePrefill(const std::vector<SlotIdx> &slots);
    /** Task body: run every admitted prompt through layer @p li. */
    void prefillLayer(LayerIdx li, const std::vector<SlotIdx> &slots,
                      ThreadPool *pool);
    /** Task body: sample each admitted request's first token. */
    void samplePrefilled(const std::vector<SlotIdx> &slots,
                         ThreadPool *pool);
    /** Free @p slot's KV, clear its fault mark and return it to the
     *  free list; returns the request state it held. */
    ActiveSeq releaseSlot(SlotIdx slot);
    /** Retire @p slot's request with @p reason: release the slot,
     *  drop the id from the front-end and emit its output. */
    void retire(SlotIdx slot, FinishReason reason,
                std::vector<RequestOutput> &finished,
                std::string errorMessage = {});
    void preemptYoungest();
    /** The slot->sequence identity map: slot i owns KV sequence i.
     *  The ONLY place a SlotIdx becomes a
     *  SeqId (see docs/index_domains.md). */
    static SeqId seqOf(SlotIdx slot) { return SeqId(slot.value()); }
    /** Record a request-scope fault for @p slot (from any queue
     *  thread); first message wins. */
    void noteSlotFault(SlotIdx slot, const char *what);
    bool slotFaulted(SlotIdx slot) const;
    std::size_t kvContextLen(SlotIdx slot) const;
    std::size_t kvTokensInUse() const;
    void ensureAttnScratch(std::size_t ctx);
    void noteKvUsage();

    const ModelWeights &w_;
    EngineConfig cfg_;
    PageArena pinned_;
    TransferEngine te_;
    PagedWeightStore store_;
    std::unique_ptr<ThreadPool> attnPool_;
    /** The KV cache, in cfg_.kvQuant's page format. Declared before
     *  batcher_, which is constructed from its allocation quantum. */
    std::unique_ptr<KvCacheManager> kv_;
    /** Prefix tree over the cache's page table (when
     *  cfg_.prefixCache); declared after the cache it borrows. */
    std::unique_ptr<PrefixCache> prefix_;
    /** Total admission budget in request tokens (kvCapacityTokens /
     *  layers); submit() rejects requests that can never fit it.
     *  Declared before batcher_ for the same reason. */
    std::size_t kvBudgetTokens_ = 0;
    /** The thread-safe front-end (admission queue, cancel set,
     *  active ids, preempted requests' carry): the only state
     *  submit(), cancel(), pendingRequests() and activeRequests()
     *  touch from other threads. Every other member is driver-owned. */
    ContinuousBatcher batcher_;

    // Model shapes hoisted from cfg (set once in the constructor).
    std::size_t h1_, qDim_, kvDim_, qkvDim_, vocab_;
    float scale_ = 1.0f;

    // Sequence slots.
    std::vector<std::optional<ActiveSeq>> slots_;
    std::vector<std::size_t> freeSlots_;  ///< descending; back = min
    std::size_t kvPeakPages_ = 0;

    // Preemption / fault containment.
    std::uint64_t admitCounter_ = 0;
    std::size_t preemptions_ = 0;
    /** Per-slot fault messages recorded by pipeline tasks mid-round
     *  (empty = healthy); guarded because the DtoH and Gpu queue
     *  threads record concurrently. Lock-ordering leaf. */
    mutable Mutex faultMu_;
    std::vector<std::string> slotError_ GUARDED_BY(faultMu_);

    // Persistent scratch (grow-only; see ensureAttnScratch).
    std::vector<float> gpuNormB_, gpuProjB_, gpuRlB_, gpuFfnB_;
    std::vector<float> gpuQB_, gpuKB_, gpuVB_;
    /** Micro-batch lmHead logits: the last layer samples every row
     *  of the micro-batch from ONE pooled GEMM instead of per-row
     *  m=1 GEMVs (bit-identical per row — see linalg.hh). */
    std::vector<float> gpuLogitsB_;
    /** Prefill-bootstrap pooled lmHead buffers (admitted-batch-
     *  sized, which may exceed microBatch). */
    std::vector<float> bootNorm_, bootLogits_;
    std::vector<float> cpuBatchScratch_, cpuPrefillScratch_;
    std::size_t scratchCtx_ = 0;
    std::size_t prefillScratchLen_ = 0;
    std::vector<std::vector<float>> prefillHidden_;
    // Prefill per-layer working buffers (reserved once per admission
    // round to the longest prompt; only the Gpu queue's serialized
    // prefill tasks touch them).
    std::vector<float> pfNorm_, pfQ_, pfK_, pfV_;
    std::vector<float> pfAttn_, pfProj_, pfRl_, pfFfn_;
    std::vector<TokenRouting> pfRouting_;

    std::unique_ptr<StepState> st_;
    std::unique_ptr<StreamExecutor> exec_;  ///< last: destroyed first
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_ENGINE_HH
