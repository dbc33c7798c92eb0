#include "runtime/serving.hh"

#include <algorithm>

#include "common/logging.hh"
#include "runtime/batcher.hh"

namespace moelight {

std::vector<RequestOutput>
Engine::drain()
{
    std::vector<RequestOutput> out;
    while (!idle()) {
        std::vector<RequestOutput> round = step();
        out.insert(out.end(),
                   std::make_move_iterator(round.begin()),
                   std::make_move_iterator(round.end()));
    }
    return out;
}

std::vector<GenerationResult>
Engine::generate(const std::vector<std::vector<int>> &prompts,
                 int genLen)
{
    fatalIf(prompts.empty(), "no prompts");
    fatalIf(genLen <= 0, "generation length must be positive");
    fatalIf(!idle(),
            "generate() requires an idle engine (its request ids "
            "would collide with in-flight serving requests)");
    resetBatchStats();
    for (std::size_t s = 0; s < prompts.size(); ++s) {
        ServeRequest req;
        req.id = static_cast<std::int64_t>(s);
        req.prompt = prompts[s];
        req.maxNewTokens = genLen;
        submit(std::move(req));
    }
    std::vector<GenerationResult> out(prompts.size());
    for (RequestOutput &r : drain()) {
        panicIf(r.id < 0 ||
                    static_cast<std::size_t>(r.id) >= out.size(),
                "generate(): engine returned unknown request id ",
                r.id);
        out[static_cast<std::size_t>(r.id)].tokens =
            std::move(r.tokens);
    }
    return out;
}

ContinuousBatcher::ContinuousBatcher(std::size_t microBatch,
                                     std::size_t kvBudgetTokens,
                                     std::size_t pageQuantum,
                                     std::size_t headAgeLimit)
    : microBatch_(microBatch),
      kvBudgetTokens_(kvBudgetTokens),
      pageQuantum_(pageQuantum),
      headAgeLimit_(headAgeLimit)
{
    fatalIf(microBatch_ == 0, "micro-batch must be positive");
    fatalIf(pageQuantum_ == 0, "page quantum must be positive");
    fatalIf(headAgeLimit_ == 0,
            "head age limit must be >= 1 (rounds the queue head may "
            "be passed over)");
}

std::size_t
ContinuousBatcher::kvDemand(const ServeRequest &req) const
{
    return demandOracle_ ? demandOracle_(req)
                         : servingKvDemand(req, pageQuantum_);
}

bool
ContinuousBatcher::queued(std::int64_t id) const
{
    return std::any_of(queue_.begin(), queue_.end(),
                       [id](const QueuedRequest &q) {
                           return q.req.id == id;
                       });
}

void
ContinuousBatcher::enqueue(ServeRequest req)
{
    servingStampSubmitted(req);
    MutexLock lk(mu_);
    fatalIf(active_.count(req.id) != 0 || queued(req.id),
            "request id ", req.id,
            " is already in flight (queued or active)");
    queue_.push_back({std::move(req), {}});
}

std::vector<QueuedRequest>
ContinuousBatcher::admit(std::size_t freeSlots,
                         std::size_t kvTokensInUse)
{
    MutexLock lk(mu_);
    // Rounds that never consider the head — nothing queued, or no
    // free sequence slot for anyone — must not advance its age: the
    // deferral count measures rounds that looked at the head and
    // admitted past (or instead of) it, because it gates starvation
    // control (held-back younger arrivals, engine preemption). Aging
    // it on no-capacity rounds would trigger preemption storms while
    // the engine is merely full of slots, not starving the head.
    if (queue_.empty() || freeSlots == 0)
        return {};

    // Free micro-batch partitions Algorithm 2 may fill this round.
    // Capacity nUb * ubs never exceeds freeSlots; a remainder smaller
    // than a partition simply waits for the next round.
    std::size_t n_ub = std::max<std::size_t>(1, freeSlots / microBatch_);
    std::size_t ubs = std::min(microBatch_, freeSlots);

    // Remaining KV budget, split evenly across the free partitions
    // (Algorithm 2's cacheSize is per partition). 0 = unlimited.
    constexpr std::size_t kUnlimited = std::size_t(-1) / 4;
    std::size_t free_budget =
        kvBudgetTokens_ == 0
            ? kUnlimited
            : (kvBudgetTokens_ > kvTokensInUse
                   ? kvBudgetTokens_ - kvTokensInUse
                   : 0);
    std::size_t per_partition = free_budget / n_ub;

    // Aged head of line: after headAgeLimit passed-over rounds,
    // stop admitting younger requests and wait for capacity to drain
    // to the oldest one. Active sequences only retire from here on,
    // so free_budget grows monotonically until the head fits — or
    // the engine idles and force-admits it via admitOne().
    if (headDeferrals_ >= headAgeLimit_) {
        std::vector<QueuedRequest> only;
        if (kvDemand(queue_.front().req) <= free_budget)
            only.push_back(popHead());
        return only;
    }

    // Describe the front window of the queue for the planner; ids are
    // dense queue indices and come back unchanged, so placements map
    // straight onto queue_ without re-sorting. The genLen field
    // carries the page-rounding slack on top of the real budget so
    // Algorithm 2's promptLen + genLen budget term equals the pool's
    // true demand. Bounding the window keeps planning O(window log
    // window) per round instead of re-sorting a deep backlog to admit
    // at most freeSlots requests; a few times the admittable count
    // still gives Algorithm 2 slack to balance and to skip over-
    // budget requests.
    std::size_t window = std::min(
        queue_.size(),
        std::max<std::size_t>(4 * freeSlots, 4 * microBatch_));
    std::vector<Request> descr;
    descr.reserve(window);
    for (std::size_t i = 0; i < window; ++i) {
        // With a prefix-aware oracle the demand can be smaller than
        // the full prompt (the cached prefix is not private demand);
        // clamp the prompt term so promptLen + genLen always equals
        // the true demand without underflowing the slack.
        const ServeRequest &req = queue_[i].req;
        std::size_t demand = kvDemand(req);
        std::size_t pl = std::min(req.prompt.size(), demand);
        descr.push_back({static_cast<int>(i), static_cast<int>(pl),
                         static_cast<int>(demand - pl)});
    }
    BatchPlan plan =
        batchRequests(std::move(descr), n_ub, ubs, per_partition);

    std::vector<bool> taken(window, false);
    std::vector<QueuedRequest> admitted;
    for (const auto &mb : plan.microBatches)
        for (const Request &r : mb) {
            std::size_t qi = static_cast<std::size_t>(r.id);
            taken[qi] = true;
            active_.insert(queue_[qi].req.id);
            admitted.push_back(std::move(queue_[qi]));
        }
    if (admitted.empty()) {
        // The per-partition split deferred everything. If the oldest
        // request alone fits the *whole* remaining budget, send it
        // through by itself: otherwise a large-but-fitting request
        // could wait forever behind the split while smaller later
        // arrivals keep the engine busy.
        if (kvDemand(queue_.front().req) <= free_budget) {
            admitted.push_back(popHead());
            return admitted;
        }
    } else {
        // Deferred requests keep their arrival order; the tail beyond
        // the planning window was never touched.
        std::deque<QueuedRequest> rest;
        for (std::size_t i = 0; i < window; ++i)
            if (!taken[i])
                rest.push_back(std::move(queue_[i]));
        for (std::size_t i = window; i < queue_.size(); ++i)
            rest.push_back(std::move(queue_[i]));
        queue_ = std::move(rest);
    }
    // The single aging site for a planned round: every path through
    // here planned over a window containing the head, so by now it
    // was either admitted (age resets for the next head) or
    // considered and passed over (age advances). The early returns
    // above — empty queue, no free slots, the aged-head hold — and
    // the head's solo admission (popHead resets the age) bypass it.
    headDeferrals_ = !admitted.empty() && taken[0] ? 0 : headDeferrals_ + 1;
    return admitted;
}

QueuedRequest
ContinuousBatcher::popHead()
{
    headDeferrals_ = 0;
    QueuedRequest q = std::move(queue_.front());
    queue_.pop_front();
    active_.insert(q.req.id);
    return q;
}

QueuedRequest
ContinuousBatcher::admitOne()
{
    MutexLock lk(mu_);
    panicIf(queue_.empty(), "admitOne() on an empty queue");
    return popHead();
}

void
ContinuousBatcher::requeue(ServeRequest req, ServeCarry carry)
{
    MutexLock lk(mu_);
    panicIf(active_.erase(req.id) == 0,
            "requeue() of request ", req.id, ", which is not active");
    QueuedRequest q{std::move(req), std::move(carry)};
    if (queue_.empty())
        queue_.push_front(std::move(q));
    else
        queue_.insert(queue_.begin() + 1, std::move(q));
}

void
ContinuousBatcher::retire(std::int64_t id)
{
    MutexLock lk(mu_);
    active_.erase(id);
    // A cancel that lost the race with this retirement must not carry
    // over to a later request reusing the id.
    cancelled_.erase(id);
}

bool
ContinuousBatcher::cancel(std::int64_t id)
{
    MutexLock lk(mu_);
    bool found = active_.count(id) != 0 || queued(id);
    if (found)
        cancelled_.insert(id);
    return found;
}

std::unordered_set<std::int64_t>
ContinuousBatcher::sweep(std::vector<RequestOutput> &finished)
{
    MutexLock lk(mu_);
    std::unordered_set<std::int64_t> cancelled;
    cancelled.swap(cancelled_);
    // Queued requests (preempted ones awaiting re-admission
    // included): cancellation and deadlines must not wait for
    // admission.
    std::deque<QueuedRequest> kept;
    bool headRemoved = false;
    for (QueuedRequest &q : queue_) {
        std::optional<FinishReason> why =
            servingLifecycleEnd(q.req, cancelled);
        if (!why) {
            kept.push_back(std::move(q));
            continue;
        }
        cancelled.erase(q.req.id);
        headRemoved = headRemoved || kept.empty();
        finished.push_back(
            servingMakeOutput(q.req, *why, std::move(q.carry), {}));
    }
    queue_ = std::move(kept);
    // The head's accumulated age belonged to the removed request; the
    // new head starts earning its own.
    if (headRemoved)
        headDeferrals_ = 0;
    return cancelled;
}

std::size_t
ContinuousBatcher::pending() const
{
    MutexLock lk(mu_);
    return queue_.size();
}

std::size_t
ContinuousBatcher::active() const
{
    MutexLock lk(mu_);
    return active_.size();
}

bool
ContinuousBatcher::headAged() const
{
    MutexLock lk(mu_);
    return !queue_.empty() && headDeferrals_ >= headAgeLimit_;
}

void
ContinuousBatcher::setDemandOracle(
    std::function<std::size_t(const ServeRequest &)> oracle)
{
    MutexLock lk(mu_);
    demandOracle_ = std::move(oracle);
}

} // namespace moelight
