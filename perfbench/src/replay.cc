#include "replay.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "kernels/attention.hh"
#include "kernels/linalg.hh"
#include "kernels/moe_ffn.hh"
#include "kernels/router.hh"
#include "runtime/kv_cache.hh"
#include "runtime/paged_weights.hh"
#include "runtime/stream_executor.hh"
#include "runtime/transfer_engine.hh"
#include "stats.hh"
#include "workload.hh"

namespace perfbench {

using moelight::LayerIdx;
using moelight::SeqId;

namespace {

constexpr double kF = sizeof(float);

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
    return v;
}

/** Median milliseconds per call of @p fn over @p reps calls, each
 *  recorded as a span. */
template <typename F>
double
timeCalls(SpanRecorder &rec, std::int64_t parent, const std::string &name,
          int reps, F &&fn)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        fn();
        Clock::time_point t1 = Clock::now();
        rec.add(name, Lane::Replay, t0, t1, parent);
        ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0)
                         .count());
    }
    return median(ms);
}

void
putKernel(MetricValues &m, const std::string &k, double ms, double flops,
          double bytes)
{
    m["kernels." + k + "_ms"] = ms;
    m["kernels." + k + "_gflop"] = flops / 1e9;
    m["kernels." + k + "_mb"] = bytes / 1e6;
}

/** The MoE FFN of layer 0 over @p m random rows, routed by the
 *  layer's own router. */
void
replayMoe(const moelight::ModelWeights &w, std::size_t m, int reps,
          const std::string &name, SpanRecorder &rec, std::int64_t parent,
          MetricValues &out)
{
    const moelight::ModelConfig &c = w.cfg;
    const moelight::LayerWeights &L = w.layers[0];
    std::vector<float> x = randomFloats(m * c.h1, 0x6d6f65 + m);
    std::vector<float> logits(m * c.ne), y(m * c.h1);
    moelight::matmulTransposedB(x.data(), L.router.data(), logits.data(),
                                m, c.h1, c.ne);
    std::vector<moelight::TokenRouting> routing =
        moelight::routeBatchTopK(logits.data(), m, c.ne, c.k);
    moelight::ExpertResolver resolve = [&L](int e) {
        auto i = static_cast<std::size_t>(e);
        return moelight::ExpertWeights{L.w1[i].data(), L.w3[i].data(),
                                       L.w2[i].data()};
    };
    double ms = timeCalls(rec, parent, "kernels." + name, reps, [&] {
        moelight::moeFfnForward(x.data(), routing, resolve, m, c.h1, c.h2,
                                y.data());
    });
    std::set<int> experts;
    for (const moelight::TokenRouting &r : routing)
        experts.insert(r.experts.begin(), r.experts.end());
    double expertBytes =
        static_cast<double>(experts.size()) * 3.0 * c.h1 * c.h2 * kF;
    double flops = static_cast<double>(m * c.k) * 6.0 * c.h1 * c.h2;
    putKernel(out, name, ms, flops, expertBytes + 2.0 * m * c.h1 * kF);
    if (name == "moe_ffn_prefill") {
        out["kernels.moe_ffn_prefill_gflops"] = flops / 1e9 / (ms / 1e3);
        out["kernels.moe_ffn_prefill_weight_gbs"] =
            expertBytes / 1e9 / (ms / 1e3);
    }
}

void
replayDenseKernels(const moelight::ModelWeights &w, std::size_t m,
                   SpanRecorder &rec, std::int64_t parent,
                   MetricValues &out)
{
    const moelight::ModelConfig &c = w.cfg;
    const moelight::LayerWeights &L = w.layers[0];
    const std::size_t qDim = c.nq * c.headDim, kvDim = c.nkv * c.headDim;
    const int reps = 50;
    std::vector<float> x = randomFloats(m * c.h1, 0x70726f6a);
    std::vector<float> q(m * qDim), k(m * kvDim), v(m * kvDim);
    std::vector<float> o(m * c.h1), logits(m * c.ne),
        vocabOut(m * c.vocab);

    double ms = timeCalls(rec, parent, "kernels.proj", reps, [&] {
        moelight::matmulTransposedB(x.data(), L.wq.data(), q.data(), m,
                                    c.h1, qDim);
        moelight::matmulTransposedB(x.data(), L.wk.data(), k.data(), m,
                                    c.h1, kvDim);
        moelight::matmulTransposedB(x.data(), L.wv.data(), v.data(), m,
                                    c.h1, kvDim);
        moelight::matmulTransposedB(q.data(), L.wo.data(), o.data(), m,
                                    qDim, c.h1);
    });
    double projW = static_cast<double>(c.h1) * (2.0 * qDim + 2.0 * kvDim);
    putKernel(out, "proj", ms, 2.0 * m * projW,
              projW * kF +
                  m * kF * (2.0 * c.h1 + 2.0 * qDim + 2.0 * kvDim));

    ms = timeCalls(rec, parent, "kernels.router", reps, [&] {
        moelight::matmulTransposedB(x.data(), L.router.data(),
                                    logits.data(), m, c.h1, c.ne);
        moelight::routeBatchTopK(logits.data(), m, c.ne, c.k);
    });
    putKernel(out, "router", ms, 2.0 * m * c.h1 * c.ne,
              kF * (c.ne * c.h1 + m * (c.h1 + c.ne)));

    ms = timeCalls(rec, parent, "kernels.lm_head", reps, [&] {
        moelight::matmulTransposedB(x.data(), w.lmHead.data(),
                                    vocabOut.data(), m, c.h1, c.vocab);
    });
    putKernel(out, "lm_head", ms, 2.0 * m * c.h1 * c.vocab,
              kF * (c.vocab * c.h1 + m * (c.h1 + c.vocab)));
}

/** KV appends and views for @p m sequences of @p ctx tokens, then
 *  batched decode attention over them. */
void
replayKvAndDecodeAttention(const moelight::ModelConfig &c, std::size_t m,
                           std::size_t ctx, std::size_t pageTokens,
                           SpanRecorder &rec, std::int64_t parent,
                           MetricValues &out)
{
    const std::size_t qDim = c.nq * c.headDim, kvDim = c.nkv * c.headDim;
    const std::size_t pages = (ctx + pageTokens - 1) / pageTokens;
    moelight::KvCacheManager kv(c, m, pageTokens,
                                m * pages * pageTokens);
    std::vector<float> kRow = randomFloats(kvDim, 0x6b), vRow =
                                                        randomFloats(kvDim, 0x76);
    Clock::time_point t0 = Clock::now();
    for (std::size_t s = 0; s < m; ++s)
        for (std::size_t t = 0; t < ctx; ++t)
            kv.append(SeqId(s), LayerIdx(0), kRow.data(), vRow.data());
    Clock::time_point t1 = Clock::now();
    rec.add("kv.append", Lane::Replay, t0, t1, parent);
    out["kv.append_us"] =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(m * ctx);

    std::vector<moelight::KvViewStorage> storage(m);
    out["kv.view_us"] =
        1e3 * timeCalls(rec, parent, "kv.view", 200, [&] {
            kv.makeView(SeqId(0), LayerIdx(0), storage[0]);
        });
    std::vector<moelight::KvView> views(m);
    for (std::size_t s = 0; s < m; ++s) {
        kv.makeView(SeqId(s), LayerIdx(0), storage[s]);
        views[s] = storage[s].view;
    }
    std::vector<float> q = randomFloats(m * qDim, 0x71), o(m * qDim);
    std::vector<float> scratch(
        m * moelight::gqaAttnScratchFloats(c.nq, c.nkv, ctx));
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    double ms = timeCalls(rec, parent, "kernels.decode_attn", 50, [&] {
        moelight::gqaDecodeAttentionBatch(q.data(), qDim, c.nq, views,
                                          o.data(), qDim, scale, nullptr,
                                          scratch);
    });
    putKernel(out, "decode_attn", ms,
              4.0 * m * c.nq * ctx * c.headDim,
              kF * m * (2.0 * ctx * kvDim + 2.0 * qDim));
}

void
replayPrefillAttention(const moelight::ModelConfig &c, std::size_t len,
                       SpanRecorder &rec, std::int64_t parent,
                       MetricValues &out)
{
    const std::size_t qDim = c.nq * c.headDim, kvDim = c.nkv * c.headDim;
    std::vector<float> q = randomFloats(len * qDim, 0x7071),
                       k = randomFloats(len * kvDim, 0x706b),
                       v = randomFloats(len * kvDim, 0x7076),
                       o(len * qDim);
    const float scale = 1.0f / std::sqrt(static_cast<float>(c.headDim));
    double ms = timeCalls(rec, parent, "kernels.prefill_attn", 5, [&] {
        moelight::gqaPrefillAttention(q.data(), k.data(), v.data(), len,
                                      c.nq, c.nkv, c.headDim, o.data(),
                                      scale);
    });
    double pairs = static_cast<double>(len) * (len + 1) / 2.0;
    putKernel(out, "prefill_attn", ms, 4.0 * c.nq * c.headDim * pairs,
              kF * len * (2.0 * qDim + 2.0 * kvDim));
}

void
replayWeightLoad(const moelight::ModelWeights &w, double throttleBw,
                 SpanRecorder &rec, std::int64_t parent, MetricValues &out)
{
    std::size_t maxFloats = 0;
    const moelight::LayerWeights &L = w.layers[0];
    for (const moelight::Tensor *t :
         {&L.attnNorm, &L.wq, &L.wk, &L.wv, &L.wo, &L.ffnNorm, &L.router,
          &L.w1[0], &L.w3[0], &L.w2[0]})
        maxFloats = std::max(maxFloats, t->numel());
    moelight::PageArena pinned("pinned", maxFloats, 4);
    moelight::TransferEngine te(pinned, throttleBw);
    moelight::PagedWeightStore store(w, pinned, 2);
    std::size_t layer = 0;
    out["weights.load_layer_ms"] =
        timeCalls(rec, parent, "weights.load_layer", 8, [&] {
            store.loadLayer(LayerIdx(layer++ % w.cfg.l), te);
        });
}

void
replayExecutor(SpanRecorder &rec, std::int64_t parent, MetricValues &out)
{
    using moelight::ResourceKind;
    moelight::StreamExecutor ex;
    out["exec.hop_us"] = 1e3 * timeCalls(rec, parent, "exec.hop", 200, [&] {
        moelight::EventPtr a = ex.submit(ResourceKind::Gpu, {}, [] {});
        ex.submit(ResourceKind::HtoD, {a}, [] {})->wait();
    });
    out["exec.sync_us"] =
        1e3 * timeCalls(rec, parent, "exec.sync", 200, [&] {
            for (ResourceKind q : {ResourceKind::Gpu, ResourceKind::Cpu,
                                   ResourceKind::HtoD, ResourceKind::DtoH})
                ex.submit(q, {}, [] {});
            ex.sync();
        });
}

} // namespace

MetricValues
runReplays(const moelight::ModelWeights &weights, const ReplayShapes &s,
           SpanRecorder &rec, std::int64_t parent)
{
    MetricValues out;
    replayMoe(weights, s.decodeRows, 50, "moe_ffn_decode", rec, parent,
              out);
    replayMoe(weights, s.promptLen, 5, "moe_ffn_prefill", rec, parent,
              out);
    replayDenseKernels(weights, s.decodeRows, rec, parent, out);
    replayKvAndDecodeAttention(weights.cfg, s.decodeRows, s.decodeCtx,
                               s.kvPageTokens, rec, parent, out);
    replayPrefillAttention(weights.cfg, s.promptLen, rec, parent, out);
    replayWeightLoad(weights, s.throttleBw, rec, parent, out);
    replayExecutor(rec, parent, out);
    return out;
}

} // namespace perfbench
