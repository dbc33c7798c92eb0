/**
 * @file
 * CPU-resident paged KV cache. Sequences append one token's K/V per
 * layer per decode step; storage is page-granular (pageTokens tokens
 * per page) so memory is allocated lazily and freed per sequence —
 * the same structure vLLM-style paged attention uses, kept host-side
 * because MoE-Lightning performs attention on the CPU.
 *
 * Ownership (refcounts, sharing, capacity, typed errors) lives in the
 * shared PageTable (page_table.hh); this class owns the page *format*
 * behind it, chosen by a codec at construction. One table block = one
 * K page + one V page, stored as:
 *  - float (no codec): two arena pages, allocated and freed together;
 *    capacity is metered in blocks (the arena's page count);
 *  - int8 / int4: float while the block is open, quantized in place
 *    when it fills (the paper's Fig. 4 lever — quantized KV raises
 *    attention's operational intensity and cuts host memory);
 *    capacity is metered in exact tokens.
 *
 * Attention runs behind the cache (decodeAttention / prefillAttention)
 * so callers never branch on the codec: each entry picks the kernel
 * that reads the codec's pages in place.
 */

#ifndef MOELIGHT_RUNTIME_KV_CACHE_HH
#define MOELIGHT_RUNTIME_KV_CACHE_HH

#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/sync.hh"
#include "kernels/attention.hh"
#include "kernels/quant.hh"
#include "model/model_config.hh"
#include "runtime/arena.hh"
#include "runtime/page_table.hh"

namespace moelight {

class ThreadPool;

/** Page-pointer lists backing a KvView. Float pages are referenced in
 *  place; quantized pages are dequantized into kPages / vPages. */
struct KvViewStorage
{
    std::vector<const float *> k;
    std::vector<const float *> v;
    std::vector<std::vector<float>> kPages;  ///< quant codecs only
    std::vector<std::vector<float>> vPages;  ///< quant codecs only
    KvView view;
};

/**
 * Paged KV cache for a fixed set of sequences across all layers.
 * Not thread-safe for concurrent append to the *same* (seq, layer);
 * the pipeline appends from a single queue thread per stream.
 */
class KvCacheManager
{
  public:
    /**
     * @param cfg        Model shapes (nkv, headDim, l).
     * @param numSeqs    Sequences tracked.
     * @param pageTokens Tokens per KV page.
     * @param capacityTokens Total token capacity across sequences and
     *                   layers; exhausting it throws KvExhausted. With
     *                   a quant codec 0 means unlimited.
     * @param codec      Page format: nullopt stores float pages;
     *                   int8/int4 quantize each page as it closes.
     */
    // NOLINTBEGIN(bugprone-easily-swappable-parameters): capacity
    // tuple, not indices; test_kv_cache pins the argument order.
    KvCacheManager(const ModelConfig &cfg, std::size_t numSeqs,
                   std::size_t pageTokens, std::size_t capacityTokens,
                   std::optional<QuantKind> codec = std::nullopt);
    // NOLINTEND(bugprone-easily-swappable-parameters)

    /** Append one token's K and V ([nkv * headDim] each) for
     *  (@p seq, @p layer). Throws EngineError(KvExhausted) — before
     *  any mutation — when the budget cannot hold it: the typed fault
     *  the serving engines contain at request scope. FaultInjector
     *  site: "kv.alloc". */
    void append(SeqId seq, LayerIdx layer, const float *k,
                const float *v);

    /** Current context length of (@p seq, @p layer). */
    std::size_t contextLen(SeqId seq, LayerIdx layer) const;

    /** Build a float attention view over (@p seq, @p layer); @p
     *  storage owns the page-pointer arrays and must outlive the use.
     *  Float pages are referenced in place; quantized pages are
     *  dequantized into @p storage (the golden cross-check for the
     *  fused quant kernels, not a production path). */
    void makeView(SeqId seq, LayerIdx layer,
                  KvViewStorage &storage) const;

    /** Zero-copy quantized view over (@p seq, @p layer) for the fused
     *  quant kernels (quant codecs only): references the closed
     *  QuantizedBuffers and the open float page in place. Invalidated
     *  by the next append() to the same (seq, layer). */
    QuantKvView makeQuantView(SeqId seq, LayerIdx layer) const;

    /**
     * Decode attention for one layer of a batch: row r attends with
     * query qBatch + r*qStride over (@p seqs[r], @p layer) and writes
     * outBatch + r*outStride. Pages are read in place (float views or
     * the fused quant kernel); @p pool fans rows across workers.
     * @p scratch: decodeScratchFloats() per worker slot, or empty to
     * allocate per call.
     */
    void decodeAttention(std::span<const SeqId> seqs, LayerIdx layer,
                         const float *qBatch, std::size_t qStride,
                         std::size_t nQ, float *outBatch,
                         std::size_t outStride, float scale,
                         ThreadPool *pool,
                         std::span<float> scratch) const;

    /**
     * Prefill one prompt tail on (@p seq, @p layer): append its @p len
     * tokens' K/V ([len, nkv * headDim] each) and compute causal
     * attention for every appended position over the grown context
     * (any attached prefix included) into @p out ([len, nQ*headDim]).
     * Each position matches a decode step over the cache as it stood
     * right after that position's append, bit for bit. A quantized
     * stream starting empty runs the fused prefill kernel (each closed
     * page dequantized once); any other stream walks per token.
     * @p scratch: prefillScratchFloats(nQ, context) floats per
     * worker slot of @p pool (one without a pool).
     */
    void prefillAttention(SeqId seq, LayerIdx layer, const float *q,
                          const float *k, const float *v,
                          std::size_t len, std::size_t nQ, float *out,
                          float scale, std::span<float> scratch,
                          ThreadPool *pool = nullptr);

    /** Scratch floats per worker slot decodeAttention() needs for
     *  contexts up to @p ctx tokens. */
    std::size_t decodeScratchFloats(std::size_t nQ,
                                    std::size_t ctx) const;
    /** Scratch floats per worker slot prefillAttention() needs for a
     *  stream that ends at most @p ctx tokens long. */
    std::size_t prefillScratchFloats(std::size_t nQ,
                                     std::size_t ctx) const;

    /** Token granularity the capacity model allocates in, for
     *  admission accounting: pageTokens for float pages (block
     *  metered), 1 for quant codecs (token metered). */
    std::size_t allocQuantum() const { return codec_ ? 1 : pageTokens_; }

    /** Release all pages of @p seq (it finished generating): a
     *  refcount drop per block, so pages shared with other sequences
     *  or pinned by the prefix cache survive — only the private tail
     *  frees physically. Throws EngineError(KvInvalidSequence) for an
     *  unknown sequence id and EngineError(KvDoubleFree) when @p seq
     *  holds no state (already freed, or never appended) — silently
     *  accepting either would let an engine bug corrupt the free list
     *  unnoticed. */
    void freeSequence(SeqId seq);

    /** True when @p seq currently holds any KV state — the guard an
     *  engine checks before freeSequence() for a request that may
     *  have faulted before its first append. */
    bool sequenceLive(SeqId seq) const;

    /** Pages referenced by live sequences (shared pages counted
     *  once): one K + one V page per referenced block, whatever the
     *  codec. Returns to 0 when every sequence frees, even while the
     *  prefix cache keeps pages pinned. */
    std::size_t usedPages() const
    {
        return 2 * table_.referencedBlocks();
    }

    /** K + V pages held by pinned-but-unreferenced prefix-cache
     *  blocks (resident beyond live-sequence usage). */
    std::size_t cachedPages() const
    {
        return 2 * (table_.residentBlocks() -
                    table_.referencedBlocks());
    }

    /** Token-layer entries physically stored (shared blocks count
     *  once). */
    std::size_t usedTokens() const { return table_.residentTokens(); }

    /** Bytes currently stored (float pages, or quantized payload +
     *  scales + open float pages; shared blocks count once). */
    std::size_t storedBytes() const;
    /** Bytes an all-float cache of the same *logical* contents would
     *  use (shared prefixes counted per referencing stream). */
    std::size_t equivalentFloatBytes() const;

    /** The shared ownership layer (prefix-cache attach/pin surface). */
    PageTable &pageTable() { return table_; }
    const PageTable &pageTable() const { return table_; }

  private:
    /** A float block's storage: the K and V arena pages. */
    struct PagePair
    {
        PageId k = kInvalidPage;
        PageId v = kInvalidPage;
    };

    /** A quantized block's storage: float while open, one quantized
     *  K + V buffer once closed. */
    struct QBlock
    {
        std::optional<QuantizedBuffer> qk;
        std::optional<QuantizedBuffer> qv;
        std::vector<float> fk;  ///< open floats (empty once closed)
        std::vector<float> fv;
    };

    PageTableHooks makeHooks();
    PagePair pagesAt(BlockId b) const;
    const QBlock &qblockAt(BlockId b) const;
    QBlock &qblockAt(BlockId b)
    {
        return const_cast<QBlock &>(std::as_const(*this).qblockAt(b));
    }

    ModelConfig cfg_;
    std::size_t numSeqs_;
    std::size_t pageTokens_;
    std::size_t tokenFloats_;  ///< nkv * headDim
    std::optional<QuantKind> codec_;
    /** The float codec's page pool (empty under a quant codec). */
    std::optional<PageArena> pool_;
    /** Guards the block stores' CONTAINER structure (growth,
     *  indexing) and the freeIds_ recycle list: a KV append on one
     *  executor worker allocates blocks while the attention worker
     *  builds views of other sequences. Block *contents* are
     *  unguarded: one writer per sequence stream, ordered before
     *  readers by the engine's chain events. Lock order: mu_ may be
     *  held while taking PageArena's internal lock (a leaf); never
     *  the reverse. */
    mutable Mutex mu_;
    /** Float codec's blocks, by BlockId (may reallocate: read it
     *  only under mu_). */
    std::vector<PagePair> pairs_ GUARDED_BY(mu_);
    /** Quant codecs' blocks, by BlockId. deque: stable addresses —
     *  views hold pointers into blocks while new blocks are
     *  allocated, after mu_ is dropped. */
    std::deque<QBlock> qblocks_ GUARDED_BY(mu_);
    std::vector<BlockId> freeIds_ GUARDED_BY(mu_);  ///< recycled ids
    /** Per-stream page-pointer lists backing makeQuantView()'s spans,
     *  rebuilt per call (quant codecs only). */
    mutable std::vector<std::vector<const QuantizedBuffer *>> viewK_;
    mutable std::vector<std::vector<const QuantizedBuffer *>> viewV_;
    PageTable table_;  ///< last: its hooks capture this
};

} // namespace moelight

#endif // MOELIGHT_RUNTIME_KV_CACHE_HH
