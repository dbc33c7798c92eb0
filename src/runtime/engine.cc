#include "runtime/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/logging.hh"
#include "kernels/linalg.hh"
#include "kernels/moe_ffn.hh"
#include "kernels/ops.hh"
#include "kernels/router.hh"

namespace moelight {

namespace {

/** Pinned staging ring geometry: pages big enough for the largest
 *  weight tensor, a few of them for overlap. */
std::size_t
maxTensorFloats(const ModelConfig &cfg)
{
    std::size_t mx = cfg.h1 * cfg.h2;             // expert matrices
    mx = std::max(mx, cfg.h1 * cfg.nq * cfg.headDim);
    mx = std::max(mx, cfg.vocab * cfg.h1);        // not staged, safety
    return mx;
}

} // namespace

void
EngineConfig::validate() const
{
    fatalIf(microBatch == 0,
            "EngineConfig.microBatch must be positive");
    fatalIf(kvPageTokens == 0,
            "EngineConfig.kvPageTokens must be positive "
            "(tokens per KV page)");
    fatalIf(kvCapacityTokens == 0,
            "EngineConfig.kvCapacityTokens must be positive "
            "(total KV token budget)");
    fatalIf(lookahead == 0, "EngineConfig.lookahead must be >= 1");
    fatalIf(maxConcurrency == 0,
            "EngineConfig.maxConcurrency must be positive "
            "(concurrent sequence slots)");
    fatalIf(headAgeLimit == 0,
            "EngineConfig.headAgeLimit must be >= 1 (rounds the "
            "admission-queue head may be passed over before younger "
            "requests are held back / actives preempted for it)");
}

/** Per-round plumbing; buffers are reused across rounds. */
struct PipelinedEngine::StepState
{
    /** Active slots this round, flattened micro-batch-major; the
     *  micro-batch partition is [ubStart[j], ubStart[j+1]). */
    std::vector<SlotIdx> rowSlot;
    std::vector<SeqId> rowSeq;  ///< seqOf(rowSlot[r])
    std::vector<std::size_t> ubStart;
    std::size_t numUbs = 0;  ///< 0 in a prefill-only round
    /** Slots admitted this step: prefilled in the round, decoding
     *  from the next one. */
    std::vector<SlotIdx> fresh;

    // "GPU" side buffers, one per micro-batch.
    std::vector<std::vector<float>> xGpu;      ///< [ubSize * h1]
    std::vector<std::vector<float>> qkvGpu;    ///< [ubSize * qkvDim]
    std::vector<std::vector<float>> attnGpu;   ///< [ubSize * qDim]
    // Host side.
    std::vector<std::vector<float>> qkvCpu;
    std::vector<std::vector<float>> attnCpu;

    // Pipeline events (fresh every round; rounds are synced).
    std::vector<EventPtr> weightsReady;  ///< per layer
    std::vector<EventPtr> postPerUb;     ///< last Post event per ub
    std::vector<EventPtr> slotBusy;      ///< per weight slot
    std::vector<std::vector<EventPtr>> cattn;  ///< [layer][ub]

    std::size_t
    ubSize(std::size_t j) const
    {
        return ubStart[j + 1] - ubStart[j];
    }
};

PipelinedEngine::PipelinedEngine(const ModelWeights &weights,
                                 EngineConfig cfg)
    // validate() runs before any member that consumes the config, so
    // a bad config fails here with its own message instead of a
    // deep-in-pipeline assert.
    : w_((cfg.validate(), weights.cfg.validate(), weights)),
      cfg_(cfg),
      pinned_("pinned", maxTensorFloats(weights.cfg), 4),
      te_(pinned_, cfg.throttleBw),
      store_(weights, pinned_, 2),
      kv_(std::make_unique<KvCacheManager>(
          weights.cfg, cfg.maxConcurrency, cfg.kvPageTokens,
          cfg.kvCapacityTokens, cfg.kvQuant)),
      // Algorithm 2 budgets in request tokens (prompt + generated);
      // the engine's kvCapacityTokens counts token-layer entries, so
      // divide by the layer count. The batcher is constructed from
      // these same two members — the budget check and the engine's
      // reserved-usage report must round identically.
      kvBudgetTokens_(std::max<std::size_t>(
          1, cfg.kvCapacityTokens / weights.cfg.l)),
      batcher_(cfg.microBatch, kvBudgetTokens_, kv_->allocQuantum(),
               cfg.headAgeLimit)
{
    const ModelConfig &c = w_.cfg;
    fatalIf(c.l % store_.numSlots() != 0,
            "layer count (", c.l, ") must be a multiple of the weight "
            "slot count (", store_.numSlots(),
            ") for conflict-free double buffering");
    if (cfg_.cpuAttnThreads > 0)
        attnPool_ = std::make_unique<ThreadPool>(cfg_.cpuAttnThreads);

    h1_ = c.h1;
    qDim_ = c.nq * c.headDim;
    kvDim_ = c.nkv * c.headDim;
    qkvDim_ = qDim_ + 2 * kvDim_;
    vocab_ = c.vocab;
    scale_ = 1.0f / std::sqrt(static_cast<float>(c.headDim));

    slots_.resize(cfg_.maxConcurrency);
    slotError_.resize(cfg_.maxConcurrency);
    freeSlots_.resize(cfg_.maxConcurrency);
    for (std::size_t i = 0; i < cfg_.maxConcurrency; ++i)
        freeSlots_[i] = cfg_.maxConcurrency - 1 - i;  // back = slot 0

    if (cfg_.prefixCache) {
        PageTable &table = kv_->pageTable();
        // Stats report float-equivalent bytes: K+V rows for one token
        // across every layer.
        prefix_ = std::make_unique<PrefixCache>(
            table, c.l * 2 * kvDim_ * sizeof(float));
        // Under pool pressure an append first evicts LRU unreferenced
        // cached pages; only when nothing is evictable does it throw
        // KvExhausted.
        table.setReclaimHook([this] { return prefix_->evictOne(); });
        // Admission budgets only the novel tail of a cached prompt
        // (the shared pages are budgeted once, globally, via
        // pinnedTokens in kvTokensInUse()).
        batcher_.setDemandOracle([this](const ServeRequest &r) {
            return servingKvDemandNet(r, prefix_->peekMatch(r.prompt),
                                      kv_->allocQuantum());
        });
    }

    std::size_t mb = cfg_.microBatch;
    gpuNormB_.assign(mb * h1_, 0.0f);
    gpuProjB_.assign(mb * h1_, 0.0f);
    gpuRlB_.assign(mb * c.ne, 0.0f);
    gpuFfnB_.assign(mb * h1_, 0.0f);
    gpuQB_.assign(mb * qDim_, 0.0f);
    gpuKB_.assign(mb * kvDim_, 0.0f);
    gpuVB_.assign(mb * kvDim_, 0.0f);
    gpuLogitsB_.assign(mb * vocab_, 0.0f);

    st_ = std::make_unique<StepState>();
    exec_ = std::make_unique<StreamExecutor>();
}

PipelinedEngine::~PipelinedEngine() = default;

void
PipelinedEngine::submit(ServeRequest req)
{
    servingValidateRequest(req, w_.cfg.vocab);
    // A request that can never fit the whole KV budget must fail
    // here with a diagnosis, not later from inside a pipeline worker
    // once the queue drains to it — by then the slot is occupied and
    // the fault aborts the serving round. Every request accepted
    // here is eventually admittable (aged head-of-line included).
    std::size_t quantum = kv_->allocQuantum();
    std::size_t demand = servingKvDemand(req, quantum);
    fatalIf(demand > kvBudgetTokens_,
            "request ", req.id, " needs ", demand,
            " KV tokens (prompt ", req.prompt.size(),
            " + generation budget ", req.maxNewTokens,
            ", rounded to ", quantum, "-token pages) but the "
            "engine's KV capacity is ", kvBudgetTokens_,
            " request tokens (kvCapacityTokens / layer count)");
    batcher_.enqueue(std::move(req));
}

bool
PipelinedEngine::cancel(std::int64_t id)
{
    return batcher_.cancel(id);
}

std::size_t
PipelinedEngine::pendingRequests() const
{
    return batcher_.pending();
}

std::size_t
PipelinedEngine::activeRequests() const
{
    return batcher_.active();
}

std::size_t
PipelinedEngine::kvUsedPages() const
{
    return kv_->usedPages();
}

std::size_t
PipelinedEngine::kvContextLen(SlotIdx slot) const
{
    return kv_->contextLen(seqOf(slot), LayerIdx(0));
}

std::size_t
PipelinedEngine::kvTokensInUse() const
{
    // Reserved demand of every active request, in the request-token
    // units Algorithm 2 budgets with (see the batcher_ construction).
    // Budgeting *current* usage instead would over-admit — an
    // admitted sequence keeps growing toward its budget, and the
    // later appends would overflow the pool mid-flight, killing
    // every in-flight request. Early (stop-token) retirement just
    // hands reserved capacity back sooner.
    //
    // With the prefix cache on, each slot reserves only its private
    // (novel-tail) demand and the shared cached pages are charged
    // once, globally: pinnedTokens counts every prefix page exactly
    // once however many sequences attach to it. Together they bound
    // physical residency — private streams never outgrow their net
    // reservation, so sum(net) + pinned covers the pool. Counting the
    // pinned-but-unreferenced pages too is deliberately conservative:
    // admission defers instead of relying on eviction, and the
    // reclaim hook frees them if an append does hit the wall.
    std::size_t reserved = 0;
    for (const auto &s : slots_)
        if (s)
            reserved += s->reservedTokens;
    if (prefix_)
        reserved += kv_->pageTable().pinnedTokens() / w_.cfg.l;
    return reserved;
}

std::size_t
PipelinedEngine::kvCachedPages() const
{
    return kv_->cachedPages();
}

void
PipelinedEngine::noteKvUsage()
{
    kvPeakPages_ = std::max(kvPeakPages_, kvUsedPages());
}

void
PipelinedEngine::ensureAttnScratch(std::size_t ctx)
{
    if (ctx <= scratchCtx_)
        return;
    // Grow geometrically so steadily lengthening contexts don't
    // reallocate every decode round.
    std::size_t target = std::max(ctx, scratchCtx_ * 2);
    scratchCtx_ = target;
    std::size_t attn_slots =
        attnPool_ ? attnPool_->maxParallelism() : 1;
    cpuBatchScratch_.assign(
        attn_slots * kv_->decodeScratchFloats(w_.cfg.nq, target), 0.0f);
}

std::vector<RequestOutput>
PipelinedEngine::step()
{
    auto driver = batcher_.driverScope();
    std::vector<RequestOutput> finished;
    // Lifecycle first: cancellations and expired deadlines retire
    // (and release pages) before admission, so freed capacity is
    // available to this very round's admission decision. The sweep
    // retires queued requests; the cancelled ids it hands back that
    // are not queued occupy slots.
    std::unordered_set<std::int64_t> cancelled = batcher_.sweep(finished);
    for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
        if (!slots_[slot])
            continue;
        if (std::optional<FinishReason> why =
                servingLifecycleEnd(slots_[slot]->req, cancelled))
            retire(SlotIdx(slot), *why, finished);
    }
    runRound(admitPending(), finished);
    return finished;
}

void
PipelinedEngine::noteSlotFault(SlotIdx slot, const char *what)
{
    MutexLock lk(faultMu_);
    if (slotError_[slot.value()].empty())
        slotError_[slot.value()] = what;
}

bool
PipelinedEngine::slotFaulted(SlotIdx slot) const
{
    MutexLock lk(faultMu_);
    return !slotError_[slot.value()].empty();
}

PipelinedEngine::ActiveSeq
PipelinedEngine::releaseSlot(SlotIdx slot)
{
    // A request that faulted before its first append holds no KV
    // state; freeing it anyway would (rightly) trip the cache's
    // double-free detection.
    SeqId seq = seqOf(slot);
    if (kv_->sequenceLive(seq))
        kv_->freeSequence(seq);
    {
        MutexLock lk(faultMu_);
        slotError_[slot.value()].clear();
    }
    ActiveSeq a = std::move(*slots_[slot.value()]);
    slots_[slot.value()].reset();
    freeSlots_.insert(
        std::lower_bound(freeSlots_.begin(), freeSlots_.end(),
                         slot.value(), std::greater<std::size_t>()),
        slot.value());
    return a;
}

void
PipelinedEngine::retire(SlotIdx slot, FinishReason reason,
                        std::vector<RequestOutput> &finished,
                        std::string errorMessage)
{
    // The pages go back to the pool *now*, while the co-batch keeps
    // decoding, so a freed slot can take the next queued request at
    // the following round's admission.
    ActiveSeq a = releaseSlot(slot);
    batcher_.retire(a.req.id);
    finished.push_back(servingMakeOutput(a.req, reason, std::move(a.carry),
                                         a.tokens,
                                         std::move(errorMessage)));
}

void
PipelinedEngine::preemptYoungest()
{
    // Victim: the youngest admission (highest stamp) — it has the
    // least decode progress to recompute.
    std::size_t victim = slots_.size();
    std::uint64_t best = 0;
    for (std::size_t slot = 0; slot < slots_.size(); ++slot)
        if (slots_[slot] &&
            (victim == slots_.size() ||
             slots_[slot]->admitStamp > best)) {
            victim = slot;
            best = slots_[slot]->admitStamp;
        }
    panicIf(victim == slots_.size(),
            "preemption requested with no active sequences");

    ActiveSeq a = releaseSlot(SlotIdx(victim));
    a.carry.saved.insert(a.carry.saved.end(), a.tokens.begin(),
                         a.tokens.end());
    ++a.carry.preemptions;

    // Rebuild the request for prefill-recompute: the prompt absorbs
    // every token generated so far and the budget shrinks by the same
    // count, so total KV demand (and the admission accounting) is
    // unchanged. Re-prefilling prompt+generated replays the exact
    // per-position arithmetic of the interrupted decode — the prefill
    // bootstrap then re-samples the next token from the same hidden
    // state the decode round would have used, which is what makes the
    // resumed token stream bit-identical to an uncontended run.
    ServeRequest req = std::move(a.req);
    req.prompt.insert(req.prompt.end(), a.tokens.begin(),
                      a.tokens.end());
    req.maxNewTokens -= static_cast<int>(a.tokens.size());
    panicIf(req.maxNewTokens <= 0,
            "preempting a request that should have retired");
    ++preemptions_;
    // The active→queued hand-off is one front-end call, so a
    // concurrent cancel() finds the id on one side or the other.
    batcher_.requeue(std::move(req), std::move(a.carry));
}

std::vector<SlotIdx>
PipelinedEngine::admitPending()
{
    if (batcher_.pending() == 0)
        return {};
    // Admitted ids are already active in the front-end: a cancel()
    // racing this admission retires them at the next step's sweep.
    std::vector<QueuedRequest> admitted =
        batcher_.admit(freeSlots_.size(), kvTokensInUse());
    // The planner deferred everything. With sequences still
    // generating that's usually back-pressure — retry next round. But
    // once the queue head has aged past the limit, waiting on natural
    // retirement alone can starve it indefinitely behind long-budget
    // actives: preempt the youngest active sequences (graceful
    // degradation — their work is recomputed, not lost) until the
    // head fits. With the engine idle, deferral would be permanent
    // starvation (a lone request bigger than the whole planner
    // budget): force the oldest through and let the KV pool itself
    // diagnose a true overflow.
    while (admitted.empty() && batcher_.headAged() &&
           batcher_.active() > 0) {
        preemptYoungest();
        admitted = batcher_.admit(freeSlots_.size(), kvTokensInUse());
    }
    if (admitted.empty()) {
        if (batcher_.active() > 0)
            return {};
        admitted.push_back(batcher_.admitOne());
    }
    std::vector<SlotIdx> fresh;
    fresh.reserve(admitted.size());
    for (QueuedRequest &q : admitted) {
        panicIf(freeSlots_.empty(),
                "admission exceeded free sequence slots");
        std::size_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        // A preempted request re-entering brings back what it had
        // already produced and the wall time it had accumulated.
        ActiveSeq a;
        a.req = std::move(q.req);
        a.carry = std::move(q.carry);
        a.admitStamp = ++admitCounter_;
        slots_[slot].emplace(std::move(a));
        ActiveSeq &as = *slots_[slot];
        // Prefix-cache hit: attach the cached pages read-only (one
        // refcount bump per page per layer) so prefill starts at the
        // matched position. The reservation freezes the private
        // (novel-tail) demand now — a preempted or retired sharer
        // later releases exactly this, never the shared pages.
        if (prefix_)
            as.prefixLen = prefix_->attach(seqOf(SlotIdx(slot)),
                                           as.req.prompt);
        as.reservedTokens =
            servingKvDemandNet(as.req, as.prefixLen, kv_->allocQuantum());
        fresh.push_back(SlotIdx(slot));
    }
    return fresh;
}

std::size_t
PipelinedEngine::preparePrefill(const std::vector<SlotIdx> &slots)
{
    const ModelConfig &cfg = w_.cfg;
    std::size_t n = slots.size();

    // Initialize per-sequence hidden states with embeddings — only
    // the novel tail beyond any attached prefix: the cached pages
    // already hold those positions' K/V, and no later position's
    // output depends on a prefix position's hidden state except
    // through them. The tail is never empty (the prefix cache matches
    // at most prompt-1 tokens), so the bootstrap always has the last
    // prompt position's hidden state to sample from.
    prefillHidden_.assign(n, {});
    std::size_t max_prompt = 0;
    for (std::size_t a = 0; a < n; ++a) {
        const ActiveSeq &as = *slots_[slots[a].value()];
        const std::vector<int> &prompt = as.req.prompt;
        // Scratch must still cover the full context: attention at
        // tail position p spans prefix + p + 1 positions.
        max_prompt = std::max(max_prompt, prompt.size());
        std::size_t tail = prompt.size() - as.prefixLen;
        prefillHidden_[a].resize(tail * h1_);
        for (std::size_t t = 0; t < tail; ++t)
            std::memcpy(
                prefillHidden_[a].data() + t * h1_,
                w_.embedding.row(static_cast<std::size_t>(
                    prompt[as.prefixLen + t])),
                h1_ * sizeof(float));
    }
    if (max_prompt > prefillScratchLen_) {
        prefillScratchLen_ = max_prompt;
        // One slot per attention-pool worker: the quantized prefill
        // kernel fans KV heads across the pool when it may borrow it.
        std::size_t worker_slots =
            attnPool_ ? attnPool_->maxParallelism() : 1;
        cpuPrefillScratch_.assign(
            worker_slots * kv_->prefillScratchFloats(cfg.nq, max_prompt),
            0.0f);
    }
    // Reserve the per-layer working buffers once to the longest
    // prompt: the per-seq resizes inside the prefill tasks then never
    // reallocate, and the buffers persist across layers and rounds.
    pfNorm_.reserve(max_prompt * h1_);
    pfQ_.reserve(max_prompt * qDim_);
    pfK_.reserve(max_prompt * kvDim_);
    pfV_.reserve(max_prompt * kvDim_);
    pfAttn_.reserve(max_prompt * qDim_);
    pfProj_.reserve(max_prompt * h1_);
    pfRl_.reserve(max_prompt * cfg.ne);
    pfFfn_.reserve(max_prompt * h1_);
    pfRouting_.reserve(max_prompt);
    return max_prompt;
}

void
PipelinedEngine::prefillLayer(LayerIdx li,
                              const std::vector<SlotIdx> &slots,
                              ThreadPool *pool)
{
    const ModelConfig &c = w_.cfg;
    // Whole-sequence batched projections instead of per-token GEMV
    // chains; the KV cache runs the attention/KV-append walk in causal
    // order. Per-token arithmetic is independent of @p pool, so tokens
    // stay bit-identical to the reference engine.
    // Working buffers are engine members, reserved to the longest
    // prompt in preparePrefill(); only the Gpu queue's serialized
    // tasks touch them, so the per-seq resizes below never
    // reallocate.
    std::vector<float> &norm_all = pfNorm_;
    std::vector<float> &q_all = pfQ_;
    std::vector<float> &k_all = pfK_;
    std::vector<float> &v_all = pfV_;
    std::vector<float> &attn_all = pfAttn_;
    std::vector<float> &proj_all = pfProj_;
    std::vector<float> &rl_all = pfRl_;
    std::vector<float> &ffn_all = pfFfn_;
    std::vector<TokenRouting> &routing = pfRouting_;
    auto runSeq = [&](std::size_t a, SlotIdx slot) {
        // len counts only the novel tail; an attached prefix
        // (prefixLen > 0) already sits in the KV cache, so this walk
        // starts mid-context.
        std::size_t len = prefillHidden_[a].size() / h1_;
        float *xs = prefillHidden_[a].data();
        norm_all.resize(len * h1_);
        q_all.resize(len * qDim_);
        k_all.resize(len * kvDim_);
        v_all.resize(len * kvDim_);
        attn_all.resize(len * qDim_);
        proj_all.resize(len * h1_);
        rl_all.resize(len * c.ne);
        ffn_all.resize(len * h1_);
        for (std::size_t t = 0; t < len; ++t)
            rmsNorm(xs + t * h1_, store_.tensor(li, "attn_norm"),
                    norm_all.data() + t * h1_, h1_);
        matmulTransposedB(norm_all.data(), store_.tensor(li, "wq"),
                          q_all.data(), len, h1_, qDim_, pool);
        matmulTransposedB(norm_all.data(), store_.tensor(li, "wk"),
                          k_all.data(), len, h1_, kvDim_, pool);
        matmulTransposedB(norm_all.data(), store_.tensor(li, "wv"),
                          v_all.data(), len, h1_, kvDim_, pool);
        // Append the tail and attend; a hit's walk starts mid-context
        // over the attached prefix.
        kv_->prefillAttention(seqOf(slot), li, q_all.data(), k_all.data(),
                              v_all.data(), len, c.nq, attn_all.data(),
                              scale_, cpuPrefillScratch_, pool);
        matmulTransposedB(attn_all.data(), store_.tensor(li, "wo"),
                          proj_all.data(), len, qDim_, h1_, pool);
        for (std::size_t t = 0; t < len; ++t) {
            accumulate(xs + t * h1_, proj_all.data() + t * h1_, h1_);
            rmsNorm(xs + t * h1_, store_.tensor(li, "ffn_norm"),
                    norm_all.data() + t * h1_, h1_);
        }
        matmulTransposedB(norm_all.data(), store_.tensor(li, "router"),
                          rl_all.data(), len, h1_, c.ne, pool);
        routing.resize(len);
        for (std::size_t t = 0; t < len; ++t)
            routing[t] =
                routeTopK({rl_all.data() + t * c.ne, c.ne}, c.k);
        moeFfnForward(norm_all.data(), routing, store_.resolver(li),
                      len, h1_, c.h2, ffn_all.data(), pool);
        for (std::size_t t = 0; t < len; ++t)
            accumulate(xs + t * h1_, ffn_all.data() + t * h1_, h1_);
    };
    for (std::size_t a = 0; a < slots.size(); ++a) {
        SlotIdx slot = slots[a];
        // Request-scope fault containment: a fault in one sequence's
        // prefill (KV append, kernel) marks only that slot; co-
        // admitted neighbours are untouched because every
        // per-sequence walk is independent. A slot that faulted in an
        // earlier layer is skipped outright — its KV stream is
        // already short, and attention over it would read garbage.
        if (slotFaulted(slot))
            continue;
        try {
            runSeq(a, slot);
        } catch (const FatalError &e) {
            noteSlotFault(slot, e.what());
        }
    }
}

void
PipelinedEngine::samplePrefilled(const std::vector<SlotIdx> &slots,
                                 ThreadPool *pool)
{
    // Sample each admitted request's first generated token from its
    // prompt's last hidden state. The normed rows pool into ONE
    // lmHead GEMM (bit-identical per row to m=1 GEMVs).
    std::size_t n = slots.size();
    bootNorm_.resize(n * h1_);
    bootLogits_.resize(n * vocab_);
    for (std::size_t a = 0; a < n; ++a) {
        std::size_t len = prefillHidden_[a].size() / h1_;
        rmsNorm(prefillHidden_[a].data() + (len - 1) * h1_,
                w_.finalNorm.data(), bootNorm_.data() + a * h1_, h1_);
    }
    matmulTransposedB(bootNorm_.data(), w_.lmHead.data(),
                      bootLogits_.data(), n, h1_, vocab_, pool);
    for (std::size_t a = 0; a < n; ++a) {
        // A faulted sequence's hidden state is garbage (its prefill
        // was cut short); it retires with Error after sync, so don't
        // sample a token for it.
        if (slotFaulted(slots[a]))
            continue;
        int next = static_cast<int>(
            argmax({bootLogits_.data() + a * vocab_, vocab_}));
        ActiveSeq &as = *slots_[slots[a].value()];
        as.tokens.push_back(next);
        as.next = next;
    }
}

void
PipelinedEngine::runRound(std::vector<SlotIdx> fresh,
                          std::vector<RequestOutput> &finished)
{
    StepState &st = *st_;
    st.fresh = std::move(fresh);
    // Decode rows: every occupied slot except this step's
    // admissions. An admitted request's first decode embeds the token
    // its last-layer prefill samples, so it cannot ride the same
    // sweep; it starts decoding next step.
    std::vector<bool> isFresh(slots_.size(), false);
    for (SlotIdx slot : st.fresh)
        isFresh[slot.value()] = true;
    st.rowSlot.clear();
    st.rowSeq.clear();
    for (std::size_t slot = 0; slot < slots_.size(); ++slot)
        if (slots_[slot] && !isFresh[slot]) {
            st.rowSlot.push_back(SlotIdx(slot));
            st.rowSeq.push_back(seqOf(SlotIdx(slot)));
        }
    if (st.rowSlot.empty() && st.fresh.empty())
        return;

    auto t0 = std::chrono::steady_clock::now();
    std::size_t n_act = st.rowSlot.size();
    st.numUbs = (n_act + cfg_.microBatch - 1) / cfg_.microBatch;
    st.ubStart.assign(st.numUbs + 1, 0);
    for (std::size_t j = 0; j <= st.numUbs; ++j)
        st.ubStart[j] = std::min(j * cfg_.microBatch, n_act);

    st.xGpu.resize(st.numUbs);
    st.qkvGpu.resize(st.numUbs);
    st.attnGpu.resize(st.numUbs);
    st.qkvCpu.resize(st.numUbs);
    st.attnCpu.resize(st.numUbs);
    for (std::size_t j = 0; j < st.numUbs; ++j) {
        std::size_t nj = st.ubSize(j);
        st.xGpu[j].resize(nj * h1_);
        st.qkvGpu[j].resize(nj * qkvDim_);
        st.attnGpu[j].resize(nj * qDim_);
        st.qkvCpu[j].resize(nj * qkvDim_);
        st.attnCpu[j].resize(nj * qDim_);
        // Each row's x is the embedding of that sequence's last
        // sampled token — the same bytes the legacy lockstep loop
        // carried forward in place.
        for (std::size_t r = 0; r < nj; ++r) {
            SlotIdx slot = st.rowSlot[st.ubStart[j] + r];
            std::memcpy(st.xGpu[j].data() + r * h1_,
                        w_.embedding.row(static_cast<std::size_t>(
                            slots_[slot.value()]->next)),
                        h1_ * sizeof(float));
        }
    }

    std::size_t max_ctx = preparePrefill(st.fresh) + 1;
    for (SlotIdx slot : st.rowSlot)
        max_ctx = std::max(max_ctx, kvContextLen(slot) + 1);
    ensureAttnScratch(max_ctx);

    // Everyone in the round, admissions first. Per-slot token counts
    // before the round: a slot retired on a mid-round fault must not
    // report a token the round's sampler may still have pushed.
    std::vector<SlotIdx> members(st.fresh);
    members.insert(members.end(), st.rowSlot.begin(), st.rowSlot.end());
    std::vector<std::size_t> tokBefore(slots_.size(), 0);
    for (SlotIdx slot : members)
        tokBefore[slot.value()] = slots_[slot.value()]->tokens.size();

    // Round-scope fault capture: weight-stream and task-body faults
    // reach sync() via the executor's firstError_. Such a fault
    // leaves this round's pipeline state (hidden buffers, weight
    // slots) unreliable for every participant, so the whole round —
    // decoding and newly admitted requests alike — retires with
    // Error; the engine itself stays serviceable (the next round
    // preloads weights afresh). Per-slot KV and prefill faults stay
    // request-scope.
    std::string roundError;
    try {
        launchRound(st);
        exec_->sync();
    } catch (const std::exception &e) {
        roundError = e.what();
    }
    prefillHidden_.clear();
    double secs = servingSecondsSince(t0);
    noteKvUsage();
    for (SlotIdx slot : members) {
        ActiveSeq &a = *slots_[slot.value()];
        (isFresh[slot.value()] ? a.carry.prefillSeconds
                               : a.carry.decodeSeconds) += secs;
        std::string slotMsg;
        {
            MutexLock lk(faultMu_);
            slotMsg = slotError_[slot.value()];
        }
        if (!slotMsg.empty() || !roundError.empty()) {
            a.tokens.resize(tokBefore[slot.value()]);
            retire(slot, FinishReason::Error, finished,
                   slotMsg.empty() ? roundError : slotMsg);
            continue;
        }
        // Cache the prompt's closed pages (pin; idempotent for pages
        // already in the tree) before retirement can free the slot —
        // pinned pages survive their inserting sequence.
        if (prefix_ && isFresh[slot.value()])
            prefix_->insert(seqOf(slot), a.req.prompt);
        // The finish reason is judged against the (possibly resumed)
        // request's own budget; the output spans the whole original
        // request, pre-preemption tokens first.
        if (servingReachedEnd(a.req, a.tokens))
            retire(slot, servingFinishReason(a.req, a.tokens), finished);
    }
}

void
PipelinedEngine::launchRound(StepState &st)
{
    const ModelConfig &cfg = w_.cfg;
    std::size_t layers = cfg.l;
    std::size_t ubs = st.numUbs;
    std::size_t total = layers * ubs;
    std::size_t la = std::min<std::size_t>(cfg_.lookahead, ubs);
    // The weight stream splits each layer into one chunk per decode
    // micro-batch; a round with no decoding slots streams a layer as
    // a single chunk.
    std::size_t chunks = std::max<std::size_t>(ubs, 1);
    bool prefill = !st.fresh.empty();
    // The CPU queue's attention owns attnPool_ whenever the round has
    // decode micro-batches (ThreadPool forbids concurrent dispatch),
    // so the prefill borrows it only in a prefill-only round.
    ThreadPool *pf_pool = ubs == 0 ? attnPool_.get() : nullptr;

    st.weightsReady.assign(layers, nullptr);
    st.postPerUb.assign(ubs, nullptr);
    st.slotBusy.assign(store_.numSlots(), nullptr);
    st.cattn.assign(layers, std::vector<EventPtr>(ubs));

    // Preload layers 0 and 1; the prior round synced, so the weight
    // slots are free. Readiness is the task's own completion event —
    // the worker signals it on every path, error and injected-fault
    // included, so a failed load can never leave dependents waiting
    // (a hand-signaled event inside the body would: an exec.task
    // fault kills the body before its first statement). The error
    // itself surfaces at sync().
    for (std::size_t t = 0; t < std::min<std::size_t>(2, layers);
         ++t)
        st.weightsReady[t] = exec_->submit(
            ResourceKind::HtoD, {},
            [this, t] { store_.loadLayer(LayerIdx(t), te_); });

    // Prefill(i) runs every admitted prompt through layer i on the
    // Gpu queue, appending its KV. Page-table mutations must stay
    // serial: prefill(i) waits on every OffloadQKV(i, ·) (the DtoH
    // worker's decode appends), and the Gpu FIFO runs it before every
    // PreAttn(i+1, ·), hence before every OffloadQKV(i+1, ·). It
    // also precedes PostAttn(i, last) in that FIFO, so that task's
    // slot-reuse event covers it; without decode chains the prefill's
    // own event guards the weight slot.
    auto submit_prefill = [&](std::size_t i,
                              std::vector<EventPtr> deps) {
        deps.push_back(st.weightsReady[i]);
        EventPtr done = exec_->submit(
            ResourceKind::Gpu, std::move(deps),
            [this, &st, i, pf_pool] {
                prefillLayer(LayerIdx(i), st.fresh, pf_pool);
            });
        if (ubs == 0)
            st.slotBusy[i % store_.numSlots()] = done;
    };

    std::size_t next_chain = 0;
    std::vector<EventPtr> layer_offs;
    // Launch the Pre -> OffloadQKV -> CPUAttn chain for linear index
    // m (layer-major). Dependencies: this layer's weights and this
    // micro-batch's hidden state from the previous layer (layer 0's
    // x was filled synchronously before launch).
    auto launch_chain = [&](std::size_t m) {
        std::size_t i = m / ubs, j = m % ubs;
        std::vector<EventPtr> deps;
        if (st.weightsReady[i])
            deps.push_back(st.weightsReady[i]);
        if (i > 0 && st.postPerUb[j])
            deps.push_back(st.postPerUb[j]);

        EventPtr pre = exec_->submit(
            ResourceKind::Gpu, std::move(deps), [this, &st, i, j] {
                std::size_t n = st.ubSize(j);
                // Batched QKV projection across the micro-batch (one
                // GEMM per weight instead of one GEMV per sequence),
                // then interleave rows into the [q|k|v] offload
                // layout. No pool here: the GPU queue may run
                // concurrently with the CPU queue's attention, which
                // owns attnPool_.
                for (std::size_t r = 0; r < n; ++r)
                    rmsNorm(st.xGpu[j].data() + r * h1_,
                            store_.tensor(LayerIdx(i), "attn_norm"),
                            gpuNormB_.data() + r * h1_, h1_);
                matmulTransposedB(gpuNormB_.data(),
                                  store_.tensor(LayerIdx(i), "wq"),
                                  gpuQB_.data(), n, h1_, qDim_);
                matmulTransposedB(gpuNormB_.data(),
                                  store_.tensor(LayerIdx(i), "wk"),
                                  gpuKB_.data(), n, h1_, kvDim_);
                matmulTransposedB(gpuNormB_.data(),
                                  store_.tensor(LayerIdx(i), "wv"),
                                  gpuVB_.data(), n, h1_, kvDim_);
                for (std::size_t r = 0; r < n; ++r) {
                    float *qkv = st.qkvGpu[j].data() + r * qkvDim_;
                    std::memcpy(qkv, gpuQB_.data() + r * qDim_,
                                qDim_ * sizeof(float));
                    std::memcpy(qkv + qDim_,
                                gpuKB_.data() + r * kvDim_,
                                kvDim_ * sizeof(float));
                    std::memcpy(qkv + qDim_ + kvDim_,
                                gpuVB_.data() + r * kvDim_,
                                kvDim_ * sizeof(float));
                }
            });

        EventPtr off = exec_->submit(
            ResourceKind::DtoH, {pre}, [this, &st, i, j] {
                std::size_t n = st.ubSize(j);
                te_.copyToHost(st.qkvGpu[j].data(),
                               st.qkvCpu[j].data(), n * qkvDim_);
                for (std::size_t r = 0; r < n; ++r) {
                    SlotIdx slot =
                        st.rowSlot[st.ubStart[j] + r];
                    // Request-scope containment: a KV append failing
                    // (pool exhausted, injected kv.alloc fault) dooms
                    // only this sequence. Later layers skip the
                    // faulted slot — its KV stream is already
                    // inconsistent — and it retires with Error after
                    // sync. PanicError (a bug, not a fault) still
                    // escapes to the executor and aborts the round.
                    if (slotFaulted(slot))
                        continue;
                    const float *qkv =
                        st.qkvCpu[j].data() + r * qkvDim_;
                    try {
                        kv_->append(seqOf(slot), LayerIdx(i),
                                    qkv + qDim_, qkv + qDim_ + kvDim_);
                    } catch (const FatalError &e) {
                        noteSlotFault(slot, e.what());
                    }
                }
            });

        st.cattn[i][j] = exec_->submit(
            ResourceKind::Cpu, {off}, [this, &st, i, j] {
                std::size_t n = st.ubSize(j);
                kv_->decodeAttention(
                    std::span<const SeqId>(st.rowSeq).subspan(
                        st.ubStart[j], n),
                    LayerIdx(i), st.qkvCpu[j].data(), qkvDim_, w_.cfg.nq,
                    st.attnCpu[j].data(), qDim_, scale_, attnPool_.get(),
                    cpuBatchScratch_);
            });

        if (prefill) {
            layer_offs.push_back(off);
            if (j + 1 == ubs)
                submit_prefill(i, std::move(layer_offs));
            layer_offs.clear();
        }
    };
    auto pump = [&](std::size_t up_to) {
        while (next_chain < total && next_chain <= up_to)
            launch_chain(next_chain++);
    };

    // Prologue (Algorithm 1 lines 2-7): the first 'la' chains, all in
    // layer 0, plus the weight stream for the next layers (emitted in
    // the main loop below).
    pump(la - 1);

    for (std::size_t i = 0; i < layers; ++i) {
        if (prefill && ubs == 0)
            submit_prefill(i, {});
        for (std::size_t j = 0; j < chunks; ++j) {
            std::size_t m = i * ubs + j;
            EventPtr loadh;
            if (ubs > 0) {
                pump(m);  // ensure this chain exists
                // LoadH(i, j): attention output back to the GPU.
                loadh = exec_->submit(
                    ResourceKind::HtoD, {st.cattn[i][j]},
                    [this, &st, j] {
                        std::size_t n = st.ubSize(j);
                        te_.copyToGpu(st.attnCpu[j].data(),
                                      st.attnGpu[j].data(),
                                      n * qDim_);
                    });
            }

            // Interleaved weight pages for the next layer. Chunk j
            // covers an equal share of the layer's pages. Layers 0
            // and 1 were preloaded for this round, and the round ends
            // after the last layer (admission may change the batch
            // before the next one), so the wrap-around tail is
            // skipped.
            std::size_t target = (i + 1) % layers;
            bool preloaded = i == 0;
            bool skip_tail = i == layers - 1;
            if (!preloaded && !skip_tail) {
                std::size_t pages = store_.pagesPerLayer();
                std::size_t lo = pages * j / chunks;
                std::size_t hi = pages * (j + 1) / chunks;
                if (j == 0) {
                    // Fresh readiness event for the incoming layer;
                    // it must exist NOW — the pump's lookahead can
                    // launch layer `target` chains (which depend on
                    // it) before the last chunk task below is
                    // submitted. The slot it overwrites must have
                    // retired.
                    st.weightsReady[target] =
                        std::make_shared<TaskEvent>();
                }
                std::vector<EventPtr> wdeps;
                std::size_t slot = target % store_.numSlots();
                // The slot-retired dependency belongs to the *first
                // non-empty* chunk (lo == 0 && hi > 0): with more
                // micro-batches than weight pages, chunk j == 0 is
                // empty and pinning the dependency to it would let
                // the first real load overwrite the slot while the
                // previous occupant's Gpu tasks still read it. Later
                // chunks are ordered behind the first one by the HtoD
                // FIFO.
                if (lo == 0 && hi > 0 && st.slotBusy[slot])
                    wdeps.push_back(st.slotBusy[slot]);
                // The last chunk publishes layer readiness via the
                // executor's alsoSignal guarantee (signaled on every
                // path): the HtoD FIFO ensures the earlier chunks
                // retired first, and a failed or fault-injected load
                // surfaces at sync() instead of leaving dependents
                // waiting forever — signaling from inside the task
                // body would deadlock whenever the body dies before
                // reaching the signal.
                std::vector<EventPtr> publish;
                if (j + 1 == chunks)
                    publish.push_back(st.weightsReady[target]);
                exec_->submit(
                    ResourceKind::HtoD, std::move(wdeps),
                    [this, target, lo, hi] {
                        for (std::size_t p = lo; p < hi; ++p)
                            store_.loadPage(LayerIdx(target), p, te_);
                    },
                    std::move(publish));
            }
            if (ubs == 0)
                continue;

            // PostAttn(i, j): O projection + residual + router + MoE
            // FFN; on the last layer also sample the round's token
            // per row.
            std::vector<EventPtr> post_deps{loadh};
            if (st.weightsReady[i])
                post_deps.push_back(st.weightsReady[i]);
            bool last_layer = i == layers - 1;
            EventPtr post = exec_->submit(
                ResourceKind::Gpu, std::move(post_deps),
                [this, &st, i, j, last_layer] {
                    const ModelConfig &c = w_.cfg;
                    std::size_t n = st.ubSize(j);
                    // Batched O projection, router and MoE FFN across
                    // the micro-batch; per-token arithmetic matches
                    // the reference engine's m=1 calls bit-for-bit.
                    matmulTransposedB(st.attnGpu[j].data(),
                                      store_.tensor(LayerIdx(i), "wo"),
                                      gpuProjB_.data(), n, qDim_, h1_);
                    for (std::size_t r = 0; r < n; ++r) {
                        float *x = st.xGpu[j].data() + r * h1_;
                        accumulate(x, gpuProjB_.data() + r * h1_, h1_);
                        rmsNorm(x,
                                store_.tensor(LayerIdx(i), "ffn_norm"),
                                gpuNormB_.data() + r * h1_, h1_);
                    }
                    matmulTransposedB(
                        gpuNormB_.data(),
                        store_.tensor(LayerIdx(i), "router"),
                        gpuRlB_.data(), n, h1_, c.ne);
                    std::vector<TokenRouting> routing(n);
                    for (std::size_t r = 0; r < n; ++r)
                        routing[r] = routeTopK(
                            {gpuRlB_.data() + r * c.ne, c.ne}, c.k);
                    moeFfnForward(gpuNormB_.data(), routing,
                                  store_.resolver(LayerIdx(i)), n, h1_,
                                  c.h2, gpuFfnB_.data());
                    for (std::size_t r = 0; r < n; ++r)
                        accumulate(st.xGpu[j].data() + r * h1_,
                                   gpuFfnB_.data() + r * h1_, h1_);
                    if (!last_layer)
                        return;
                    // Batched lmHead sampling: one micro-batch-wide
                    // GEMM instead of per-row m=1 GEMVs — the GEMM's
                    // per-row arithmetic is m-independent, so every
                    // row's logits (and its argmax token) are
                    // bit-identical to the per-row calls this
                    // replaces. No pool: the GPU queue may run
                    // concurrently with CPU attention, which owns
                    // attnPool_.
                    for (std::size_t r = 0; r < n; ++r)
                        rmsNorm(st.xGpu[j].data() + r * h1_,
                                w_.finalNorm.data(),
                                gpuNormB_.data() + r * h1_, h1_);
                    matmulTransposedB(gpuNormB_.data(),
                                      w_.lmHead.data(),
                                      gpuLogitsB_.data(), n, h1_,
                                      vocab_);
                    for (std::size_t r = 0; r < n; ++r) {
                        SlotIdx slot = st.rowSlot[st.ubStart[j] + r];
                        int next = static_cast<int>(argmax(
                            {gpuLogitsB_.data() + r * vocab_,
                             vocab_}));
                        ActiveSeq &a = *slots_[slot.value()];
                        a.tokens.push_back(next);
                        a.next = next;
                    }
                });

            st.postPerUb[j] = post;
            if (j + 1 == ubs)
                st.slotBusy[i % store_.numSlots()] = post;

            pump(m + la);
        }
    }

    // Bootstrap: after the last layer's prefill (Gpu FIFO), sample
    // each admitted request's first generated token.
    if (prefill)
        exec_->submit(ResourceKind::Gpu, {},
                      [this, &st, pf_pool] {
                          samplePrefilled(st.fresh, pf_pool);
                      });
}

} // namespace moelight
