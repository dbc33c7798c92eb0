#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "runtime/kv_cache.hh"

namespace moelight {
namespace {

ModelConfig
cfg()
{
    return tinyMixtral();  // nkv=2, headDim=8, l=4
}

std::vector<float>
randTokenKv(Rng &rng)
{
    std::vector<float> v(16);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-1, 1));
    return v;
}

class QuantKvKind : public ::testing::TestWithParam<QuantKind>
{
};

TEST_P(QuantKvKind, AttentionCloseToFloatCache)
{
    ModelConfig c = cfg();
    KvCacheManager qkv(c, 1, 4, 0, GetParam());
    KvCacheManager fkv(c, 1, 4, 256);
    Rng rng(7);

    for (int t = 0; t < 11; ++t) {  // 2 closed pages + open page
        auto k = randTokenKv(rng);
        auto v = randTokenKv(rng);
        qkv.append(SeqId(0), LayerIdx(2), k.data(), v.data());
        fkv.append(SeqId(0), LayerIdx(2), k.data(), v.data());
    }
    std::vector<float> q(c.nq * c.headDim);
    for (auto &x : q)
        x = static_cast<float>(rng.uniform(-1, 1));

    KvViewStorage qs;
    KvViewStorage fs;
    qkv.makeView(SeqId(0), LayerIdx(2), qs);
    fkv.makeView(SeqId(0), LayerIdx(2), fs);
    ASSERT_EQ(qs.view.contextLen, fs.view.contextLen);

    std::vector<float> out_q(q.size()), out_f(q.size());
    float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    gqaDecodeAttention(q.data(), c.nq, qs.view, out_q.data(), scale);
    gqaDecodeAttention(q.data(), c.nq, fs.view, out_f.data(), scale);
    float tol = GetParam() == QuantKind::Int8 ? 0.02f : 0.2f;
    for (std::size_t i = 0; i < out_q.size(); ++i)
        EXPECT_NEAR(out_q[i], out_f[i], tol) << i;
}

INSTANTIATE_TEST_SUITE_P(Kinds, QuantKvKind,
                         ::testing::Values(QuantKind::Int8,
                                           QuantKind::Int4));

TEST(QuantKvCache, CompressionApproachesNominalRatio)
{
    ModelConfig c = cfg();
    KvCacheManager kv8(c, 1, 4, 0, QuantKind::Int8);
    KvCacheManager kv4(c, 1, 4, 0, QuantKind::Int4);
    Rng rng(9);
    for (int t = 0; t < 64; ++t) {  // all pages closed
        auto k = randTokenKv(rng);
        auto v = randTokenKv(rng);
        kv8.append(SeqId(0), LayerIdx(0), k.data(), v.data());
        kv4.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    }
    double r8 = static_cast<double>(kv8.storedBytes()) /
                static_cast<double>(kv8.equivalentFloatBytes());
    double r4 = static_cast<double>(kv4.storedBytes()) /
                static_cast<double>(kv4.equivalentFloatBytes());
    // int8: 1 byte payload + scale overhead vs 4 bytes.
    EXPECT_LT(r8, 0.40);
    EXPECT_GT(r8, 0.24);
    // int4: half a byte + scale overhead.
    EXPECT_LT(r4, 0.30);
    EXPECT_GT(r4, 0.12);
    EXPECT_LT(r4, r8);
}

TEST(QuantKvCache, OpenPageExactUntilClosed)
{
    // Tokens still in the open (float) page must be exact.
    ModelConfig c = cfg();
    KvCacheManager kv(c, 1, 8, 0, QuantKind::Int4);
    Rng rng(11);
    auto k = randTokenKv(rng);
    auto v = randTokenKv(rng);
    kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    KvViewStorage s;
    kv.makeView(SeqId(0), LayerIdx(0), s);
    for (std::size_t h = 0; h < c.nkv; ++h)
        for (std::size_t d = 0; d < c.headDim; ++d) {
            EXPECT_EQ(s.view.kAt(0, h)[d], k[h * c.headDim + d]);
            EXPECT_EQ(s.view.vAt(0, h)[d], v[h * c.headDim + d]);
        }
}

TEST(QuantKvCache, OddHeadDimInt8Constructs)
{
    // Regression: the constructor used to reject odd headDim for
    // *both* kinds; only int4's nibble packing needs it even.
    ModelConfig c = cfg();
    c.headDim = 7;
    KvCacheManager kv(c, 1, 4, 0, QuantKind::Int8);
    Rng rng(13);
    std::size_t tok_floats = c.nkv * c.headDim;
    std::vector<float> k(tok_floats), v(tok_floats);
    for (int t = 0; t < 6; ++t) {  // one closed page + open tokens
        for (auto &x : k)
            x = static_cast<float>(rng.uniform(-1, 1));
        for (auto &x : v)
            x = static_cast<float>(rng.uniform(-1, 1));
        kv.append(SeqId(0), LayerIdx(0), k.data(), v.data());
    }
    EXPECT_EQ(kv.contextLen(SeqId(0), LayerIdx(0)), 6u);

    std::vector<float> q(c.nq * c.headDim);
    for (auto &x : q)
        x = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> out_fused(q.size()), out_mat(q.size());
    gqaDecodeAttentionQuantFused(q.data(), c.nq,
                                 kv.makeQuantView(SeqId(0), LayerIdx(0)),
                                 out_fused.data(), 0.35f);
    KvViewStorage s;
    kv.makeView(SeqId(0), LayerIdx(0), s);
    gqaDecodeAttention(q.data(), c.nq, s.view, out_mat.data(), 0.35f);
    for (std::size_t i = 0; i < out_fused.size(); ++i)
        EXPECT_EQ(out_fused[i], out_mat[i]) << i;

    // int4 still rejects an odd headDim (two nibbles per byte).
    EXPECT_THROW(KvCacheManager(c, 1, 4, 0, QuantKind::Int4),
                 FatalError);
}

TEST_P(QuantKvKind, FusedOverQuantViewMatchesMaterializedView)
{
    // The zero-copy quantized view through the fused kernel must be
    // bit-identical to the materializing makeView + float kernel —
    // the golden cross-check pairing the runtime relies on.
    ModelConfig c = cfg();
    KvCacheManager kv(c, 1, 4, 0, GetParam());
    Rng rng(29);
    for (int t = 0; t < 11; ++t) {  // 2 closed pages + 3 open tokens
        auto k = randTokenKv(rng);
        auto v = randTokenKv(rng);
        kv.append(SeqId(0), LayerIdx(1), k.data(), v.data());
    }
    QuantKvView qv = kv.makeQuantView(SeqId(0), LayerIdx(1));
    EXPECT_EQ(qv.kPages.size(), 2u);
    EXPECT_EQ(qv.openTokens, 3u);
    EXPECT_EQ(qv.contextLen, 11u);

    std::vector<float> q(c.nq * c.headDim);
    for (auto &x : q)
        x = static_cast<float>(rng.uniform(-1, 1));
    std::vector<float> out_fused(q.size()), out_mat(q.size());
    float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    gqaDecodeAttentionQuantFused(q.data(), c.nq, qv, out_fused.data(),
                                 scale);
    KvViewStorage s;
    kv.makeView(SeqId(0), LayerIdx(1), s);
    gqaDecodeAttention(q.data(), c.nq, s.view, out_mat.data(), scale);
    for (std::size_t i = 0; i < out_fused.size(); ++i)
        EXPECT_EQ(out_fused[i], out_mat[i]) << i;
}

TEST(QuantKvCache, EnforcesTokenCapacity)
{
    // The engine's kvCapacityTokens budget must keep meaning
    // something in quantized mode: exceeding it is fatal, like the
    // float pool's exhaustion, instead of growing without bound.
    KvCacheManager kv(cfg(), 1, 4, 5, QuantKind::Int8);
    std::vector<float> k(16, 0.5f), v(16, 0.5f);
    for (int t = 0; t < 5; ++t)
        kv.append(SeqId(0), LayerIdx(t % 2), k.data(), v.data());
    EXPECT_THROW(kv.append(SeqId(0), LayerIdx(0), k.data(), v.data()), FatalError);
}

} // namespace
} // namespace moelight
