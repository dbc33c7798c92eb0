#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "runtime/kv_cache.hh"
#include "runtime/status.hh"

namespace moelight {
namespace {

ModelConfig
cfg()
{
    return tinyMixtral();  // nkv=2, headDim=8, l=4
}

std::vector<float>
randFloats(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1, 1));
    return v;
}

TEST(KvCache, ViewReturnsAppendedValues)
{
    KvCacheManager kv(cfg(), 1, 2, 64);
    std::vector<float> k(16), v(16);
    Rng rng(3);
    std::vector<std::vector<float>> ks, vs;
    for (int t = 0; t < 5; ++t) {  // crosses page boundary (2/page)
        for (std::size_t i = 0; i < 16; ++i) {
            k[i] = static_cast<float>(rng.uniform(-1, 1));
            v[i] = static_cast<float>(rng.uniform(-1, 1));
        }
        ks.push_back(k);
        vs.push_back(v);
        kv.append(SeqId(0), LayerIdx(2), k.data(), v.data());
    }
    KvViewStorage storage;
    kv.makeView(SeqId(0), LayerIdx(2), storage);
    EXPECT_EQ(storage.view.contextLen, 5u);
    for (std::size_t t = 0; t < 5; ++t)
        for (std::size_t h = 0; h < 2; ++h)
            for (std::size_t d = 0; d < 8; ++d) {
                EXPECT_EQ(storage.view.kAt(t, h)[d],
                          ks[t][h * 8 + d]);
                EXPECT_EQ(storage.view.vAt(t, h)[d],
                          vs[t][h * 8 + d]);
            }
}

TEST(KvCache, AllocQuantumFollowsCapacityModel)
{
    // Float pages are metered in blocks, so admission rounds demand
    // to whole pages; quant codecs meter exact tokens.
    EXPECT_EQ(KvCacheManager(cfg(), 1, 4, 64).allocQuantum(), 4u);
    EXPECT_EQ(KvCacheManager(cfg(), 1, 4, 64, QuantKind::Int8)
                  .allocQuantum(),
              1u);
}

/** Every behaviour below holds for each page codec: nullopt = float
 *  pages, else int8 / int4. */
class KvCacheCodec
    : public ::testing::TestWithParam<std::optional<QuantKind>>
{
  protected:
    std::optional<QuantKind> codec() const { return GetParam(); }
};

TEST_P(KvCacheCodec, ContextAccounting)
{
    KvCacheManager kv(cfg(), 2, 4, 256, codec());
    Rng rng(1);
    auto k = randFloats(rng, 16), v = randFloats(rng, 16);
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(1)), 0u);
    for (int t = 0; t < 9; ++t)  // two closed pages + one open
        kv.append(SeqId(0), LayerIdx(1), k.data(), v.data());
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(1)), 9u);
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(0)), 0u);
    EXPECT_EQ(kv.contextLen(SeqId(1), LayerIdx(1)), 0u);
}

TEST_P(KvCacheCodec, PagesAllocatedLazily)
{
    KvCacheManager kv(cfg(), 4, 4, 256, codec());
    EXPECT_EQ(kv.usedPages(), 0u);
    std::vector<float> k(16), v(16);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedPages(), 2u);  // one K page + one V page
    // 3 more tokens fit the same page.
    for (int t = 0; t < 3; ++t)
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedPages(), 2u);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedPages(), 4u);
}

TEST_P(KvCacheCodec, FreeSequenceReturnsPages)
{
    KvCacheManager kv(cfg(), 2, 2, 64, codec());
    std::vector<float> k(16), v(16);
    for (std::size_t layer = 0; layer < 4; ++layer)
        for (int t = 0; t < 3; ++t)
            kv.append(SeqId(1), LayerIdx(layer), k.data(), v.data());
    EXPECT_GT(kv.usedPages(), 0u);
    kv.freeSequence(SeqId(1));
    EXPECT_EQ(kv.usedPages(), 0u);
    EXPECT_EQ(kv.usedTokens(), 0u);
    EXPECT_EQ(kv.contextLen(SeqId(1), LayerIdx(0)), 0u);
}

TEST_P(KvCacheCodec, CapacityExhaustionIsFatal)
{
    KvCacheManager kv(cfg(), 1, 2, 4, codec());  // tiny pool
    std::vector<float> k(16), v(16);
    EXPECT_THROW(
        {
            for (int t = 0; t < 64; ++t)
                kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
        },
        FatalError);
}

TEST_P(KvCacheCodec, OutOfRangePanics)
{
    KvCacheManager kv(cfg(), 1, 2, 16, codec());
    std::vector<float> k(16), v(16);
    // First index past each end: numSeqs and cfg.l themselves.
    EXPECT_THROW(kv.append(SeqId(1), LayerIdx(0), k.data(), v.data()), PanicError);
    EXPECT_THROW(kv.append(SeqId(0), LayerIdx(cfg().l), k.data(), v.data()),
                 PanicError);
    EXPECT_THROW(kv.append(SeqId(0), LayerIdx(9), k.data(), v.data()), PanicError);
    EXPECT_EQ(kv.usedTokens(), 0u);
}

TEST_P(KvCacheCodec, ExhaustionIsTypedAndLeavesStateConsistent)
{
    KvCacheManager kv(cfg(), 1, 2, 4, codec());  // tiny pool
    std::vector<float> k(16, 0.5f), v(16, 0.5f);
    try {
        for (int t = 0; t < 64; ++t)
            kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
        FAIL() << "pool should have run dry";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvExhausted);
        EXPECT_EQ(e.site(), "kv.alloc");
    }
    // All-or-nothing: the capacity check runs before any mutation, so
    // the failed append left no half-written token. The sequence
    // frees to exactly empty and the same number of tokens fits
    // again.
    std::size_t len = kv.contextLen(SeqId(0), LayerIdx(0));
    EXPECT_GT(len, 0u);
    EXPECT_EQ(kv.usedTokens(), len);
    kv.freeSequence(SeqId(0));
    EXPECT_EQ(kv.usedPages(), 0u);
    EXPECT_EQ(kv.usedTokens(), 0u);
    for (std::size_t t = 0; t < len; ++t)
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    EXPECT_EQ(kv.usedTokens(), len);
}

TEST_P(KvCacheCodec, ExhaustionMidPageLeavesCounterConsistent)
{
    // A 5-token budget over 4-token pages, filled alternately on two
    // layers. The quant codecs meter exact tokens, so the 6th append
    // is rejected inside layer 1's open page; float pages meter
    // blocks (ceil(5/4) + 1 = 3), so the 10th append is rejected when
    // layer 1 needs a fourth block.
    KvCacheManager kv(cfg(), 1, 4, 5, codec());
    std::vector<float> k(16, 0.5f), v(16, 0.5f);
    auto appendAlternating = [&](std::size_t t) {
        kv.append(SeqId(0), LayerIdx(t % 2), k.data(), v.data());
    };
    std::size_t fit = 0;
    try {
        for (; fit < 64; ++fit)
            appendAlternating(fit);
        FAIL() << "over budget";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvExhausted);
        EXPECT_EQ(e.site(), "kv.alloc");
    }
    EXPECT_EQ(fit, codec() ? 5u : 9u);
    std::size_t rejected_len = kv.contextLen(SeqId(0), LayerIdx(fit % 2));
    if (codec())
        EXPECT_NE(rejected_len % 4, 0u) << "rejected mid-page";
    else
        EXPECT_EQ(rejected_len % 4, 0u) << "rejected at a page boundary";
    // The capacity check runs before any mutation, so the rejected
    // append did not bump the token counter: freeing returns the cache
    // to exactly empty, the same tokens fit again and the next append
    // is rejected again.
    EXPECT_EQ(kv.usedTokens(), fit);
    kv.freeSequence(SeqId(0));
    EXPECT_EQ(kv.usedTokens(), 0u);
    EXPECT_EQ(kv.usedPages(), 0u);
    for (std::size_t t = 0; t < fit; ++t)
        appendAlternating(t);
    EXPECT_EQ(kv.usedTokens(), fit);
    EXPECT_THROW(appendAlternating(fit), EngineError);
    EXPECT_EQ(kv.usedTokens(), fit);
}

TEST_P(KvCacheCodec, FreeSequenceErrorsAreTyped)
{
    KvCacheManager kv(cfg(), 2, 2, 64, codec());
    std::vector<float> k(16, 0.25f), v(16, 0.25f);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());

    // Unknown sequence index.
    try {
        kv.freeSequence(SeqId(7));
        FAIL() << "out-of-range seq should throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvInvalidSequence);
        EXPECT_EQ(e.site(), "kv.free");
    }

    // Double free.
    kv.freeSequence(SeqId(0));
    EXPECT_EQ(kv.usedPages(), 0u);
    try {
        kv.freeSequence(SeqId(0));
        FAIL() << "second free should throw";
    } catch (const EngineError &e) {
        EXPECT_EQ(e.code(), ErrorCode::KvDoubleFree);
        EXPECT_EQ(e.site(), "kv.free");
    }
    // Freeing a never-used sequence is a double free too.
    EXPECT_THROW(kv.freeSequence(SeqId(1)), EngineError);
}

TEST_P(KvCacheCodec, DecodeAttentionMatchesKernels)
{
    // The cache's decode entry must be exactly the kernel a caller
    // would pick for the codec, run over the cache's own views.
    ModelConfig c = cfg();
    std::size_t q_dim = c.nq * c.headDim;
    KvCacheManager kv(c, 3, 4, 256, codec());
    Rng rng(17);
    const std::size_t lens[] = {11, 4, 1};  // open tail, full, single
    for (std::size_t s = 0; s < 3; ++s)
        for (std::size_t t = 0; t < lens[s]; ++t) {
            auto k = randFloats(rng, 16), v = randFloats(rng, 16);
            kv.append(SeqId(s), LayerIdx(1), k.data(), v.data());
        }
    std::vector<SeqId> seqs{SeqId(0), SeqId(1), SeqId(2)};
    auto q = randFloats(rng, seqs.size() * q_dim);
    float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));

    std::vector<float> expect(q.size());
    for (std::size_t r = 0; r < seqs.size(); ++r) {
        float *out = expect.data() + r * q_dim;
        if (codec()) {
            gqaDecodeAttentionQuantFused(
                q.data() + r * q_dim, c.nq,
                kv.makeQuantView(seqs[r], LayerIdx(1)), out, scale);
        } else {
            KvViewStorage s;
            kv.makeView(seqs[r], LayerIdx(1), s);
            gqaDecodeAttention(q.data() + r * q_dim, c.nq, s.view, out,
                               scale);
        }
    }
    ThreadPool pool(2);
    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
        std::vector<float> got(q.size());
        kv.decodeAttention(seqs, LayerIdx(1), q.data(), q_dim, c.nq,
                           got.data(), q_dim, scale, p, {});
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], expect[i]) << i;
    }
}

/** Causal attention of every position of a @p total-token prompt,
 *  computed by the codec's whole-prompt kernel on a fresh stream:
 *  the non-paged float kernel, or the fused quantized prefill. */
std::vector<float>
coldPrefillByKernel(std::optional<QuantKind> codec, const float *q,
                    const float *k, const float *v, std::size_t total,
                    float scale)
{
    ModelConfig c = cfg();
    std::vector<float> out(total * c.nq * c.headDim);
    if (!codec) {
        gqaPrefillAttention(q, k, v, total, c.nq, c.nkv, c.headDim,
                            out.data(), scale);
        return out;
    }
    KvCacheManager kv(c, 1, 4, 0, codec);
    for (std::size_t t = 0; t < total; ++t)
        kv.append(SeqId(0), LayerIdx(0), k + t * 16, v + t * 16);
    gqaPrefillAttentionQuantFused(q, k, v, total, c.nq,
                                  kv.makeQuantView(SeqId(0), LayerIdx(0)),
                                  out.data(), scale);
    return out;
}

TEST_P(KvCacheCodec, PrefillAttentionMatchesKernelsColdAndHot)
{
    // Cold: the whole prompt prefills into an empty stream. Hot: a
    // second sequence attaches the first one's two closed pages (the
    // prefix-cache hit path) and prefills only the tail. Both must
    // reproduce the whole-prompt kernel's rows bit for bit — the
    // property that keeps prefix-cache hits token-identical to cold
    // prefills.
    ModelConfig c = cfg();
    std::size_t q_dim = c.nq * c.headDim, kv_dim = 16;
    const std::size_t total = 13, prefix = 8, tail = total - prefix;
    Rng rng(23);
    auto q = randFloats(rng, total * q_dim);
    auto k = randFloats(rng, total * kv_dim);
    auto v = randFloats(rng, total * kv_dim);
    float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    std::vector<float> expect =
        coldPrefillByKernel(codec(), q.data(), k.data(), v.data(), total,
                            scale);

    KvCacheManager kv(c, 2, 4, 256, codec());
    std::vector<float> cold(total * q_dim);
    std::vector<float> scratch(kv.prefillScratchFloats(c.nq, total));
    kv.prefillAttention(SeqId(0), LayerIdx(3), q.data(), k.data(),
                        v.data(), total, c.nq, cold.data(), scale,
                        scratch);
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(3)), total);
    for (std::size_t i = 0; i < cold.size(); ++i)
        ASSERT_EQ(cold[i], expect[i]) << "cold " << i;

    std::span<const BlockId> blocks =
        kv.pageTable().streamBlocks(SeqId(0), LayerIdx(3));
    std::vector<BlockId> shared(blocks.begin(), blocks.begin() + 2);
    kv.pageTable().attachShared(SeqId(1), LayerIdx(3), shared);
    std::vector<float> hot(tail * q_dim);
    kv.prefillAttention(SeqId(1), LayerIdx(3), q.data() + prefix * q_dim,
                        k.data() + prefix * kv_dim,
                        v.data() + prefix * kv_dim, tail, c.nq,
                        hot.data(), scale, scratch);
    EXPECT_EQ(kv.contextLen(SeqId(1), LayerIdx(3)), total);
    for (std::size_t i = 0; i < hot.size(); ++i)
        ASSERT_EQ(hot[i], expect[prefix * q_dim + i]) << "hot " << i;
}

std::string
codecName(const ::testing::TestParamInfo<std::optional<QuantKind>> &p)
{
    if (!p.param)
        return "Float";
    return *p.param == QuantKind::Int8 ? "Int8" : "Int4";
}

INSTANTIATE_TEST_SUITE_P(Codecs, KvCacheCodec,
                         ::testing::Values(std::nullopt, QuantKind::Int8,
                                           QuantKind::Int4),
                         codecName);

} // namespace
} // namespace moelight
