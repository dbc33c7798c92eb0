#include "driver.hh"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "runtime/reference_engine.hh"

namespace perfbench {

namespace {

/** Requests of each run checked against ReferenceEngine. */
constexpr std::size_t kReferenceSample = 8;

} // namespace

using moelight::PipelinedEngine;
using moelight::RequestOutput;
using moelight::ServeRequest;

moelight::ModelConfig
benchModel()
{
    moelight::ModelConfig m;
    m.name = "perfbench-mid";
    m.l = 4;
    m.h1 = 256;
    m.h2 = 896;
    m.nq = 8;
    m.nkv = 2;
    m.headDim = 32;
    m.ne = 8;
    m.k = 2;
    m.vocab = 1024;
    m.dtWeight = moelight::DataType::F32;
    m.dtKv = moelight::DataType::F32;
    m.validate();
    return m;
}

moelight::EngineConfig
benchEngineConfig()
{
    moelight::EngineConfig ec;
    ec.microBatch = 8;
    ec.maxConcurrency = 32;
    ec.kvPageTokens = 16;
    ec.cpuAttnThreads = 2;
    ec.prefixCache = true;
    // The paper's regime: expert weights stream over a slow link.
    ec.throttleBw = 0.6e9;
    return ec;
}

std::unique_ptr<moelight::ModelWeights>
makeWeights()
{
    return std::make_unique<moelight::ModelWeights>(
        moelight::ModelWeights::random(benchModel()));
}

std::unique_ptr<PipelinedEngine>
makeEngine(const moelight::ModelWeights &weights)
{
    auto eng = std::make_unique<PipelinedEngine>(weights,
                                                 benchEngineConfig());
    ServeRequest warm;
    warm.id = -1;
    for (int t = 0; t < 16; ++t)
        warm.prompt.push_back(t);
    warm.maxNewTokens = 2;
    eng->submit(warm);
    std::vector<RequestOutput> outs = eng->drain();
    if (outs.size() != 1 ||
        outs[0].finishReason != moelight::FinishReason::Length)
        throw std::runtime_error("warm-up request did not finish");
    return eng;
}

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

ServeRequest
toServe(const GenRequest &g)
{
    ServeRequest r;
    r.id = g.id;
    r.prompt = g.prompt;
    r.maxNewTokens = g.maxNewTokens;
    return r;
}

/** State of one pass. */
struct PassRun
{
    const moelight::ModelWeights &weights;
    const WorkloadSpec &w;
    PipelinedEngine *eng = nullptr;  ///< the engine being served
    PassResult &res;
    SpanRecorder *rec;
    std::int64_t parent;
    Clock::time_point origin;
    std::unordered_map<std::int64_t, double> dueById;

    double
    at(Clock::time_point t) const
    {
        return secondsBetween(origin, t);
    }

    /** Serve @p body on a fresh engine, set up (with its warm-up)
     *  before the timed window starts, and add the engine's counters
     *  to the pass. Every batch starts from an empty prefix cache. */
    template <typename F>
    void
    onFreshEngine(F &&body)
    {
        std::unique_ptr<PipelinedEngine> e = makeEngine(weights);
        const moelight::PrefixCacheStats p0 = e->prefixCacheStats();
        const moelight::TransferStats x0 = e->transferStats();
        const std::size_t preempt0 = e->preemptions();
        eng = e.get();
        body();
        eng = nullptr;
        const moelight::PrefixCacheStats p = e->prefixCacheStats();
        res.prefix.lookups += p.lookups - p0.lookups;
        res.prefix.hits += p.hits - p0.hits;
        res.prefix.pagesReused += p.pagesReused - p0.pagesReused;
        res.prefix.pagesEvicted += p.pagesEvicted - p0.pagesEvicted;
        res.prefix.bytesPrefillSkipped +=
            p.bytesPrefillSkipped - p0.bytesPrefillSkipped;
        const moelight::TransferStats x = e->transferStats();
        res.transfer.hostToPinned += x.hostToPinned - x0.hostToPinned;
        res.transfer.pinnedToGpu += x.pinnedToGpu - x0.pinnedToGpu;
        res.transfer.gpuToHost += x.gpuToHost - x0.gpuToHost;
        res.transfer.hostToGpu += x.hostToGpu - x0.hostToGpu;
        res.preemptions += e->preemptions() - preempt0;
        res.kvPeakPages = std::max(res.kvPeakPages, e->kvPeakPages());
        res.kvUsedEnd += e->kvUsedPages();
    }

    void
    sampleQueue(Clock::time_point t, std::size_t pending)
    {
        res.queue.push_back(QueueSample{at(t), pending});
    }

    /** Record a span when tracing, and charge the recording to the
     *  pass. */
    void
    record(const char *name, Lane lane, Clock::time_point start,
           Clock::time_point end, std::int64_t requestId = -1)
    {
        if (!rec)
            return;
        Clock::time_point r0 = Clock::now();
        rec->add(name, lane, start, end, parent, requestId);
        res.recordSec += secondsBetween(r0, Clock::now());
    }

    /** One step(): time it, account its batch and deliveries. Returns
     *  the number of requests it delivered. */
    std::size_t
    step()
    {
        std::size_t activeBefore = eng->activeRequests();
        Clock::time_point t0 = Clock::now();
        std::vector<RequestOutput> outs = eng->step();
        Clock::time_point t1 = Clock::now();
        std::size_t pending = eng->pendingRequests();
        std::size_t batch = eng->activeRequests() + outs.size();
        res.steps.push_back(StepRecord{
            at(t0), at(t1), batch,
            batch > activeBefore ? batch - activeBefore : 0});
        sampleQueue(t1, pending);
        record("engine.step", Lane::Engine, t0, t1);
        for (RequestOutput &o : outs) {
            auto it = dueById.find(o.id);
            if (it == dueById.end())
                throw std::runtime_error("engine returned an unknown id");
            double due = it->second;
            res.latencySec.push_back(at(t1) - due);
            record("request", Lane::Request,
                   origin + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due)),
                   t1, o.id);
            res.generatedTokens += o.tokens.size();
            res.outputs.push_back(std::move(o));
        }
        return outs.size();
    }
};

void
serveBatches(PassRun &run, std::uint64_t seed, double seconds)
{
    PassResult &res = run.res;
    const std::size_t batches = batchCount(run.w, seconds);
    for (std::size_t b = 0; b < batches; ++b) {
        std::vector<GenRequest> batch =
            makeBatch(run.w, seed, b, run.weights.cfg.vocab);
        run.onFreshEngine([&] {
            Clock::time_point t0 = Clock::now();
            // Latency and due times of this batch count from its t0.
            double base = run.at(t0);
            run.sampleQueue(t0, 0);  // the queue is empty between batches
            const std::size_t first = res.requests.size(), n = batch.size();
            for (GenRequest &g : batch) {
                g.dueSec = base;
                run.dueById[g.id] = base;
                res.requests.push_back(std::move(g));
            }
            for (std::size_t i = first; i < res.requests.size(); ++i) {
                const GenRequest &g = res.requests[i];
                Clock::time_point s0 = Clock::now();
                run.eng->submit(toServe(g));
                Clock::time_point s1 = Clock::now();
                res.lateSec.push_back(run.at(s0) - g.dueSec);
                run.record("serving.submit", Lane::Loadgen, s0, s1, g.id);
            }
            // The whole batch waits in the queue until the first step
            // admits it.
            run.sampleQueue(Clock::now(), run.eng->pendingRequests());
            const std::size_t firstOut = res.outputs.size(),
                              tokens0 = res.generatedTokens;
            std::size_t delivered = 0;
            while (delivered < n)
                delivered += run.step();
            res.groups.push_back(OutputGroup{
                firstOut, res.outputs.size(),
                secondsBetween(t0, Clock::now()),
                res.generatedTokens - tokens0});
        });
    }
}

} // namespace

PassResult
runPass(const moelight::ModelWeights &weights, const WorkloadSpec &w,
        std::uint64_t seed, double seconds, SpanRecorder *rec,
        std::int64_t parentSpan)
{
    PassResult res;
    PassRun run{weights, w, nullptr, res, rec, parentSpan, Clock::now(), {}};
    serveBatches(run, seed, seconds);
    return res;
}

CheckReport
checkPass(const PassResult &pass, const moelight::ModelWeights &weights,
          std::uint64_t seed)
{
    CheckReport rep;
    auto miss = [&rep](std::string what) {
        ++rep.failed;
        rep.problems.push_back(std::move(what));
    };
    std::unordered_map<std::int64_t, const RequestOutput *> got;
    for (const RequestOutput &o : pass.outputs)
        if (!got.emplace(o.id, &o).second)
            miss("request " + std::to_string(o.id) + " delivered twice");
    const int vocab = static_cast<int>(weights.cfg.vocab);
    for (const GenRequest &g : pass.requests) {
        auto it = got.find(g.id);
        if (it == got.end()) {
            miss("request " + std::to_string(g.id) + " never delivered");
            continue;
        }
        const RequestOutput &o = *it->second;
        bool inVocab = std::all_of(o.tokens.begin(), o.tokens.end(),
                                   [vocab](int t) {
                                       return t >= 0 && t < vocab;
                                   });
        if (o.finishReason != moelight::FinishReason::Length ||
            o.tokens.size() != static_cast<std::size_t>(g.maxNewTokens) ||
            !inVocab)
            miss("request " + std::to_string(g.id) + " finished " +
                 moelight::finishReasonName(o.finishReason) + " with " +
                 std::to_string(o.tokens.size()) + " tokens");
    }
    if (got.size() != pass.outputs.size() ||
        pass.outputs.size() != pass.requests.size())
        miss("delivered " + std::to_string(pass.outputs.size()) +
             " outputs for " + std::to_string(pass.requests.size()) +
             " requests");
    if (pass.kvUsedEnd != 0)
        miss("KV pool holds " + std::to_string(pass.kvUsedEnd) +
             " pages after drain");

    moelight::ReferenceEngine ref(weights, std::nullopt,
                                  benchEngineConfig().kvPageTokens);
    for (std::size_t i : sampleIndices(pass.requests.size(),
                                       kReferenceSample, seed))
        ref.submit(toServe(pass.requests[i]));
    for (const RequestOutput &r : ref.drain()) {
        auto it = got.find(r.id);
        if (it != got.end() && it->second->tokens != r.tokens)
            miss("request " + std::to_string(r.id) +
                 " differs from ReferenceEngine");
    }
    return rep;
}

CheckReport
compareTokens(const PassResult &a, const PassResult &b)
{
    CheckReport rep;
    std::unordered_map<std::int64_t, const RequestOutput *> byId;
    for (const RequestOutput &o : a.outputs)
        byId.emplace(o.id, &o);
    for (const RequestOutput &o : b.outputs) {
        auto it = byId.find(o.id);
        if (it == byId.end() || it->second->tokens != o.tokens) {
            ++rep.failed;
            rep.problems.push_back("request " + std::to_string(o.id) +
                                   " differs between traced and "
                                   "untraced runs");
        }
    }
    return rep;
}

} // namespace perfbench
