/**
 * Concurrency stress suite — the workload the TSan CI leg exists for.
 *
 * The Engine front-end contract (docs/concurrency.md) says submit(),
 * cancel(), pendingRequests() and activeRequests() are callable from
 * any thread concurrently with one driver's step(). These tests
 * hammer exactly that seam on both engines: several producer threads
 * submitting, a canceller thread firing cancel() at random in-flight
 * ids, and the main thread driving step() — every submitted request
 * must retire with exactly one terminal output and the engine must
 * end empty. A KV-starved variant forces the preemption/requeue path
 * (an active request crossing back to the queue) under the same
 * cancel storm.
 *
 * The executor test stresses the alsoSignal publication path: many
 * threads submitting chains to the four shared queues, every task
 * alsoSignal-ing both its own event and one shared event (signal is
 * idempotent and must tolerate concurrent signalers). All seeds are
 * fixed — failures reproduce.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/rng.hh"
#include "runtime/engine.hh"
#include "runtime/reference_engine.hh"
#include "runtime/serving.hh"
#include "runtime/stream_executor.hh"

namespace moelight {
namespace {

std::vector<int>
makePrompt(const ModelConfig &cfg, std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> p;
    for (std::size_t t = 0; t < len; ++t)
        p.push_back(static_cast<int>(rng.uniformInt(
            0, static_cast<std::int64_t>(cfg.vocab) - 1)));
    return p;
}

/**
 * Producers submit, a canceller storms cancel(), the calling thread
 * drives step() until every id has retired. Asserts exactly one
 * terminal output per submitted request and an empty engine at the
 * end. Cancelled / completed is a race by design — both are legal
 * outcomes per id; losing an id or retiring it twice is the bug.
 */
void
hammerFrontEnd(Engine &eng, const ModelConfig &cfg, int producers,
               int perProducer)
{
    const std::int64_t total =
        static_cast<std::int64_t>(producers) * perProducer;
    std::atomic<bool> stormCancels{true};
    std::vector<std::thread> threads;

    for (int p = 0; p < producers; ++p)
        threads.emplace_back([&eng, &cfg, p, perProducer] {
            Rng rng(1000 + static_cast<std::uint64_t>(p));
            for (int i = 0; i < perProducer; ++i) {
                ServeRequest r;
                r.id = static_cast<std::int64_t>(p) * perProducer + i;
                r.prompt = makePrompt(cfg, 2 + i % 3,
                                      rng.uniformInt(1, 1 << 20));
                r.maxNewTokens = 1 + i % 3;
                eng.submit(std::move(r));
                if (i % 4 == 0)
                    std::this_thread::yield();
            }
        });

    threads.emplace_back([&eng, &stormCancels, total] {
        Rng rng(77);
        while (stormCancels.load(std::memory_order_relaxed)) {
            eng.cancel(rng.uniformInt(0, total - 1));
            std::this_thread::yield();
        }
    });

    std::map<std::int64_t, int> retired;
    std::int64_t done = 0;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(2);
    while (done < total) {
        std::vector<RequestOutput> outs = eng.step();
        for (const RequestOutput &o : outs) {
            ++retired[o.id];
            ++done;
        }
        if (outs.empty()) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "engine stalled with " << (total - done)
                << " of " << total << " requests unretired";
            std::this_thread::yield();
        }
    }
    stormCancels.store(false, std::memory_order_relaxed);
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(retired.size(), static_cast<std::size_t>(total));
    for (const auto &[id, count] : retired)
        EXPECT_EQ(count, 1) << "request " << id
                            << " retired more than once";
    EXPECT_EQ(eng.pendingRequests(), 0u);
    EXPECT_EQ(eng.activeRequests(), 0u);
}

TEST(ConcurrencyStress, PipelinedSubmitStepCancel)
{
    ModelWeights w = ModelWeights::random(tinyMixtral(), 42);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.maxConcurrency = 4;
    PipelinedEngine eng(w, ec);
    hammerFrontEnd(eng, w.cfg, /*producers=*/3, /*perProducer=*/12);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
}

TEST(ConcurrencyStress, PipelinedUnderKvPressureWithPreemption)
{
    // A KV pool this small forces admission to preempt the youngest
    // active request (recompute-on-resume) while the canceller races
    // it — the active→queued hand-off must stay atomic with respect
    // to cancel()'s id probe.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 43);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.kvCapacityTokens = 96;
    ec.maxConcurrency = 4;
    ec.headAgeLimit = 1;
    PipelinedEngine eng(w, ec);
    hammerFrontEnd(eng, w.cfg, /*producers=*/2, /*perProducer=*/10);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
}

TEST(ConcurrencyStress, PipelinedStaggeredSubmitMixedRounds)
{
    // A producer trickles requests in while this thread steps, so most
    // admissions land in mixed rounds: the admitted prompts' prefill
    // appends KV on the Gpu worker in the same round as the decode
    // appends on the DtoH worker and the pooled CPU attention. With a
    // shared prompt prefix, prefill also attaches cached pages and
    // inserts new ones. Tokens must still match the reference.
    ModelWeights w = ModelWeights::random(tinyMixtral(), 45);
    EngineConfig ec;
    ec.microBatch = 2;
    ec.kvPageTokens = 4;
    ec.maxConcurrency = 4;
    ec.cpuAttnThreads = 2;
    ec.prefixCache = true;
    PipelinedEngine eng(w, ec);

    constexpr int kRequests = 12;
    std::vector<int> shared = makePrompt(w.cfg, 8, 500);
    std::vector<ServeRequest> reqs;
    for (int i = 0; i < kRequests; ++i) {
        ServeRequest r;
        r.id = i;
        r.prompt = shared;
        std::vector<int> tail =
            makePrompt(w.cfg, 1 + static_cast<std::size_t>(i % 4),
                       static_cast<std::uint64_t>(i) + 501);
        r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
        r.maxNewTokens = 6 + i % 5;
        reqs.push_back(std::move(r));
    }

    std::atomic<bool> stop{false};
    std::thread producer([&] {
        for (const ServeRequest &r : reqs) {
            // After the first, submit only while something decodes.
            while (r.id > 0 && eng.activeRequests() == 0 &&
                   !stop.load())
                std::this_thread::yield();
            eng.submit(r);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    std::map<std::int64_t, std::vector<int>> got;
    int mixed_rounds = 0;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(2);
    while (got.size() < static_cast<std::size_t>(kRequests)) {
        if (std::chrono::steady_clock::now() >= deadline) {
            ADD_FAILURE() << "engine stalled";
            break;
        }
        // Only step() changes the active set, so this count is exact.
        std::size_t active_before = eng.activeRequests();
        std::vector<RequestOutput> outs = eng.step();
        std::size_t admitted =
            eng.activeRequests() + outs.size() - active_before;
        if (admitted > 0 && active_before > 0)
            ++mixed_rounds;
        for (RequestOutput &o : outs) {
            EXPECT_EQ(o.finishReason, FinishReason::Length);
            got[o.id] = std::move(o.tokens);
        }
        if (outs.empty())
            std::this_thread::yield();
    }
    stop.store(true);
    producer.join();

    EXPECT_GT(mixed_rounds, 0);
    EXPECT_EQ(eng.pendingRequests(), 0u);
    EXPECT_EQ(eng.kvUsedPages(), 0u);
    for (const ServeRequest &r : reqs) {
        ReferenceEngine ref(w, std::nullopt, ec.kvPageTokens);
        ref.submit(r);
        std::vector<RequestOutput> want = ref.drain();
        ASSERT_EQ(want.size(), 1u);
        EXPECT_EQ(got[r.id], want[0].tokens) << "request " << r.id;
    }
}

TEST(ConcurrencyStress, ReferenceSubmitStepCancel)
{
    // The oracle engine carries the same front-end contract, so the
    // same storm must hold there (and TSan checks both lock splits).
    ModelWeights w = ModelWeights::random(tinyMixtral(), 44);
    ReferenceEngine eng(w);
    hammerFrontEnd(eng, w.cfg, /*producers=*/3, /*perProducer=*/8);
}

TEST(ConcurrencyStress, ExecutorAlsoSignalContention)
{
    constexpr int kThreads = 4;
    constexpr int kTasksPerThread = 128;
    constexpr ResourceKind kQueues[] = {
        ResourceKind::Gpu, ResourceKind::Cpu, ResourceKind::HtoD,
        ResourceKind::DtoH};

    StreamExecutor exec;
    std::atomic<int> ran{0};
    // One caller-owned event per task, published via alsoSignal, plus
    // one event every task signals — concurrent signal() calls on a
    // shared TaskEvent are the contract under test.
    std::vector<EventPtr> published;
    for (int i = 0; i < kThreads * kTasksPerThread; ++i)
        published.push_back(std::make_shared<TaskEvent>());
    EventPtr anyRan = std::make_shared<TaskEvent>();

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            Rng rng(900 + static_cast<std::uint64_t>(t));
            EventPtr prev;  // chain within the thread: always safe
            for (int i = 0; i < kTasksPerThread; ++i) {
                ResourceKind q = kQueues[rng.uniformInt(0, 3)];
                std::vector<EventPtr> deps;
                if (prev)
                    deps.push_back(prev);
                prev = exec.submit(
                    q, std::move(deps),
                    [&ran] { ran.fetch_add(1); },
                    {published[static_cast<std::size_t>(t) *
                                   kTasksPerThread +
                               i],
                     anyRan});
            }
        });
    for (std::thread &t : threads)
        t.join();

    anyRan->wait();
    for (const EventPtr &e : published)
        e->wait();
    exec.sync();
    EXPECT_EQ(ran.load(), kThreads * kTasksPerThread);
    for (const EventPtr &e : published)
        EXPECT_TRUE(e->ready());
}

} // namespace
} // namespace moelight
