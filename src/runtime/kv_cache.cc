#include "runtime/kv_cache.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace moelight {

namespace {

/** The page table's budget: float pages meter blocks (each one K and
 *  one V arena page) covering capacityTokens rounded up, plus one;
 *  quant codecs meter exact tokens (0 = unlimited). */
std::size_t
tableCapacity(std::size_t capacityTokens, std::size_t pageTokens,
              bool quant)
{
    fatalIf(pageTokens == 0, "KV page must hold at least one token");
    return quant ? capacityTokens
                 : (capacityTokens + pageTokens - 1) / pageTokens + 1;
}

} // namespace

KvCacheManager::KvCacheManager(const ModelConfig &cfg,
                               std::size_t numSeqs,
                               std::size_t pageTokens,
                               std::size_t capacityTokens,
                               std::optional<QuantKind> codec)
    : cfg_(cfg),
      numSeqs_(numSeqs),
      pageTokens_(pageTokens),
      tokenFloats_(cfg.nkv * cfg.headDim),
      codec_(codec),
      viewK_(codec ? numSeqs * cfg.l : 0),
      viewV_(codec ? numSeqs * cfg.l : 0),
      table_(numSeqs, cfg.l, pageTokens,
             codec ? PageCapacityModel::Tokens : PageCapacityModel::Blocks,
             tableCapacity(capacityTokens, pageTokens, codec.has_value()),
             makeHooks())
{
    if (!codec)
        // K and V pages share one arena: two pages per block.
        pool_.emplace("kv-cache", pageTokens * tokenFloats_,
                      2 * tableCapacity(capacityTokens, pageTokens,
                                        false));
    // Quantization groups are one token-head vector each (group ==
    // headDim), so only int4's two-nibbles-per-byte packing needs an
    // even headDim; int8 stores one byte per element and works for
    // any headDim.
    fatalIf(codec == QuantKind::Int4 && cfg.headDim % 2 != 0,
            "headDim must be even for int4 packing");
}

PageTableHooks
KvCacheManager::makeHooks()
{
    return PageTableHooks{
        [this] {
            // Append-side workers allocate while the attention worker
            // views other sequences; mu_ covers the stores' growth. It
            // is held across the arena calls — arena's lock is a leaf,
            // so the order mu_ → pool_.mu_ is safe and fixed.
            MutexLock lk(mu_);
            BlockId id;
            if (!freeIds_.empty()) {
                id = freeIds_.back();
                freeIds_.pop_back();
            } else if (!codec_) {
                id = narrowIndex<BlockId>(pairs_.size());
                pairs_.emplace_back();
            } else {
                id = narrowIndex<BlockId>(qblocks_.size());
                qblocks_.emplace_back();
            }
            if (!codec_) {
                // K and V together so a block is all-or-nothing (the
                // table checked capacity, so the arena cannot run dry
                // here).
                pairs_[id.value()].k = pool_->allocate();
                pairs_[id.value()].v = pool_->allocate();
            }
            return id;
        },
        [this](BlockId dst, BlockId src, std::size_t tokens) {
            // Copy outside mu_: the blocks themselves belong to the two
            // streams involved in the copy-on-write.
            std::size_t n = tokens * tokenFloats_;
            if (!codec_) {
                PagePair d = pagesAt(dst), s = pagesAt(src);
                std::memcpy(pool_->page(d.k), pool_->page(s.k),
                            n * sizeof(float));
                std::memcpy(pool_->page(d.v), pool_->page(s.v),
                            n * sizeof(float));
                return;
            }
            // Copy-on-write fires only on open (partial) blocks, whose
            // tokens still sit in float.
            QBlock &d = qblockAt(dst);
            const QBlock &s = qblockAt(src);
            panicIf(s.qk.has_value(),
                    "copy-on-write of a closed quant block");
            d.fk.assign(s.fk.begin(), s.fk.begin() + n);
            d.fv.assign(s.fv.begin(), s.fv.begin() + n);
        },
        [this](BlockId id) {
            MutexLock lk(mu_);
            if (!codec_) {
                pool_->release(pairs_[id.value()].k);
                pool_->release(pairs_[id.value()].v);
                pairs_[id.value()] = PagePair{};
            } else {
                // Drops the quantized buffers and open floats.
                qblocks_[id.value()] = QBlock{};
            }
            freeIds_.push_back(id);
        },
    };
}

KvCacheManager::PagePair
KvCacheManager::pagesAt(BlockId b) const
{
    // Copied out under the lock: pairs_ may reallocate when another
    // worker allocates a block.
    MutexLock lk(mu_);
    return pairs_[b.value()];
}

const KvCacheManager::QBlock &
KvCacheManager::qblockAt(BlockId b) const
{
    // Index under the container lock; the returned reference stays
    // valid after it (deque, stable addresses) and the block's
    // contents have one writer — the owning sequence's stream.
    MutexLock lk(mu_);
    panicIf(static_cast<std::size_t>(b.value()) >= qblocks_.size(),
            "unknown quantized KV block ", b);
    return qblocks_[b.value()];
}

void
KvCacheManager::append(SeqId seq, LayerIdx layer,
                       const float *k, const float *v)
{
    AppendSlot slot = table_.appendToken(seq, layer);
    if (!codec_) {
        PagePair pair = pagesAt(slot.block);
        float *kp = pool_->page(pair.k) + slot.offset * tokenFloats_;
        float *vp = pool_->page(pair.v) + slot.offset * tokenFloats_;
        std::memcpy(kp, k, tokenFloats_ * sizeof(float));
        std::memcpy(vp, v, tokenFloats_ * sizeof(float));
        return;
    }
    QBlock &b = qblockAt(slot.block);
    b.fk.insert(b.fk.end(), k, k + tokenFloats_);
    b.fv.insert(b.fv.end(), v, v + tokenFloats_);
    if (b.fk.size() == pageTokens_ * tokenFloats_) {
        // Page full: quantize (group = one head vector) and drop the
        // floats. The block is closed — and from here on shareable.
        b.qk.emplace(std::span<const float>(b.fk), *codec_,
                     cfg_.headDim);
        b.qv.emplace(std::span<const float>(b.fv), *codec_,
                     cfg_.headDim);
        b.fk = std::vector<float>();
        b.fv = std::vector<float>();
    }
}

std::size_t
KvCacheManager::contextLen(SeqId seq, LayerIdx layer) const
{
    return table_.streamLen(seq, layer);
}

void
KvCacheManager::makeView(SeqId seq, LayerIdx layer,
                         KvViewStorage &storage) const
{
    std::span<const BlockId> blocks = table_.streamBlocks(seq, layer);
    storage.k.clear();
    storage.v.clear();
    if (!codec_) {
        for (BlockId id : blocks) {
            PagePair pair = pagesAt(id);
            storage.k.push_back(pool_->page(pair.k));
            storage.v.push_back(pool_->page(pair.v));
        }
    } else {
        std::size_t page_floats = pageTokens_ * tokenFloats_;
        storage.kPages.assign(blocks.size(), {});
        storage.vPages.assign(blocks.size(), {});
        for (std::size_t p = 0; p < blocks.size(); ++p) {
            const QBlock &b = qblockAt(blocks[p]);
            std::vector<float> &kp = storage.kPages[p];
            std::vector<float> &vp = storage.vPages[p];
            if (b.qk.has_value()) {
                kp.resize(page_floats);
                vp.resize(page_floats);
                b.qk->dequantize(kp);
                b.qv->dequantize(vp);
            } else {
                // Open page: copy floats, pad to page size (unread
                // tail).
                kp.assign(page_floats, 0.0f);
                vp.assign(page_floats, 0.0f);
                std::copy(b.fk.begin(), b.fk.end(), kp.begin());
                std::copy(b.fv.begin(), b.fv.end(), vp.begin());
            }
            storage.k.push_back(kp.data());
            storage.v.push_back(vp.data());
        }
    }
    storage.view.kPages = storage.k;
    storage.view.vPages = storage.v;
    storage.view.pageTokens = pageTokens_;
    storage.view.contextLen = table_.streamLen(seq, layer);
    storage.view.nKv = cfg_.nkv;
    storage.view.headDim = cfg_.headDim;
}

QuantKvView
KvCacheManager::makeQuantView(SeqId seq, LayerIdx layer) const
{
    panicIf(!codec_, "quantized view of a float KV cache");
    std::span<const BlockId> blocks = table_.streamBlocks(seq, layer);
    auto &kp = viewK_[seq.value() * cfg_.l + layer.value()];
    auto &vp = viewV_[seq.value() * cfg_.l + layer.value()];
    kp.clear();
    vp.clear();
    QuantKvView v;
    for (BlockId id : blocks) {
        const QBlock &b = qblockAt(id);
        if (b.qk.has_value()) {
            kp.push_back(&*b.qk);
            vp.push_back(&*b.qv);
        } else {
            // Only the tail block may be open (float).
            v.openK = b.fk.data();
            v.openV = b.fv.data();
            v.openTokens = b.fk.size() / tokenFloats_;
        }
    }
    v.kPages = kp;
    v.vPages = vp;
    v.pageTokens = pageTokens_;
    v.contextLen = table_.streamLen(seq, layer);
    v.nKv = cfg_.nkv;
    v.headDim = cfg_.headDim;
    return v;
}

void
KvCacheManager::decodeAttention(std::span<const SeqId> seqs,
                                LayerIdx layer, const float *qBatch,
                                std::size_t qStride, std::size_t nQ,
                                float *outBatch, std::size_t outStride,
                                float scale, ThreadPool *pool,
                                std::span<float> scratch) const
{
    std::size_t n = seqs.size();
    if (codec_) {
        // The fused kernel dequantizes rows in-register, so no float
        // pages are ever materialized.
        std::vector<QuantKvView> views(n);
        for (std::size_t r = 0; r < n; ++r)
            views[r] = makeQuantView(seqs[r], layer);
        gqaDecodeAttentionQuantBatch(qBatch, qStride, nQ, views,
                                     outBatch, outStride, scale, pool,
                                     scratch);
        return;
    }
    // Materialize all views first, then fan the rows out across the
    // pool (multi-core kernel).
    std::vector<KvViewStorage> storage(n);
    std::vector<KvView> views(n);
    for (std::size_t r = 0; r < n; ++r) {
        makeView(seqs[r], layer, storage[r]);
        views[r] = storage[r].view;
    }
    gqaDecodeAttentionBatch(qBatch, qStride, nQ, views, outBatch,
                            outStride, scale, pool, scratch);
}

void
KvCacheManager::prefillAttention(SeqId seq, LayerIdx layer,
                                 const float *q, const float *k,
                                 const float *v, std::size_t len,
                                 std::size_t nQ, float *out,
                                 float scale, std::span<float> scratch,
                                 ThreadPool *pool)
{
    std::size_t q_dim = nQ * cfg_.headDim;
    if (codec_ && contextLen(seq, layer) == 0) {
        // Cold: append the whole tail, then run the fused causal
        // prefill kernel once — each closed page dequantizes once per
        // KV head instead of once per later position, and the kernel
        // replays the per-token walk below bit-for-bit.
        for (std::size_t t = 0; t < len; ++t)
            append(seq, layer, k + t * tokenFloats_,
                   v + t * tokenFloats_);
        gqaPrefillAttentionQuantFused(q, k, v, len, nQ,
                                      makeQuantView(seq, layer), out,
                                      scale, scratch, pool);
        return;
    }
    // Per-token walk: append one position, attend over the grown
    // context. The fused prefill kernel assumes it replays the stream
    // from empty, so a quantized stream with an attached prefix takes
    // this walk too.
    KvViewStorage view;
    for (std::size_t t = 0; t < len; ++t) {
        append(seq, layer, k + t * tokenFloats_, v + t * tokenFloats_);
        if (codec_) {
            gqaDecodeAttentionQuantFused(q + t * q_dim, nQ,
                                         makeQuantView(seq, layer),
                                         out + t * q_dim, scale,
                                         scratch);
            continue;
        }
        // The page-pointer list only changes when an append opens a
        // new page; between boundaries just advance the context length
        // instead of rebuilding the view. Keyed off the stream's length
        // (not t) so a walk over an attached prefix stays correct.
        std::size_t ctx_len = contextLen(seq, layer);
        if (t == 0 || (ctx_len - 1) % pageTokens_ == 0)
            makeView(seq, layer, view);
        else
            view.view.contextLen = ctx_len;
        gqaDecodeAttention(q + t * q_dim, nQ, view.view,
                           out + t * q_dim, scale, scratch);
    }
}

std::size_t
KvCacheManager::decodeScratchFloats(std::size_t nQ,
                                    std::size_t ctx) const
{
    if (!codec_)
        return gqaAttnScratchFloats(nQ, cfg_.nkv, ctx);
    return gqaQuantAttnScratchFloats(nQ, cfg_.nkv, ctx, cfg_.headDim,
                                     pageTokens_);
}

std::size_t
KvCacheManager::prefillScratchFloats(std::size_t nQ,
                                     std::size_t ctx) const
{
    // A quantized stream may take either walk: the fused prefill
    // kernel (cold) or per-token decode (after an attached prefix).
    if (!codec_)
        return decodeScratchFloats(nQ, ctx);
    return std::max(decodeScratchFloats(nQ, ctx),
                    gqaQuantPrefillAttnScratchFloats(
                        nQ, cfg_.nkv, ctx, cfg_.headDim, pageTokens_));
}

bool
KvCacheManager::sequenceLive(SeqId seq) const
{
    return table_.sequenceLive(seq);
}

void
KvCacheManager::freeSequence(SeqId seq)
{
    table_.freeSequence(seq);
}

std::size_t
KvCacheManager::storedBytes() const
{
    if (!codec_)
        return 2 * table_.residentBlocks() * pool_->pageBytes();
    // Freed blocks hold no buffers, so summing the whole store counts
    // exactly the resident blocks, shared ones once.
    MutexLock lk(mu_);
    std::size_t bytes = 0;
    for (const QBlock &b : qblocks_) {
        if (b.qk.has_value())
            bytes += b.qk->storageBytes() + b.qv->storageBytes();
        bytes += (b.fk.size() + b.fv.size()) * sizeof(float);
    }
    return bytes;
}

std::size_t
KvCacheManager::equivalentFloatBytes() const
{
    std::size_t tokens = 0;
    for (SeqId s : IndexRange(SeqId(numSeqs_)))
        for (LayerIdx l : IndexRange(LayerIdx(cfg_.l)))
            tokens += table_.streamLen(s, l);
    return tokens * 2 * tokenFloats_ * sizeof(float);
}

} // namespace moelight
