// Tests of the benchmark's own logic: request generation, the
// percentile rule, metric names and the Little's-law queue wait.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "metrics.hh"
#include "stats.hh"
#include "workload.hh"

using namespace perfbench;

namespace {

constexpr std::size_t kVocab = 1024;

bool
sameRequests(const std::vector<GenRequest> &a,
             const std::vector<GenRequest> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].prompt != b[i].prompt ||
            a[i].maxNewTokens != b[i].maxNewTokens ||
            a[i].dueSec != b[i].dueSec)
            return false;
    return true;
}

} // namespace

TEST(Generator, SameSeedSameRequestsOtherSeedOthers)
{
    for (const WorkloadSpec &w : workloads()) {
        SCOPED_TRACE(w.name);
        auto gen = [&w](std::uint64_t seed) {
            return makeBatch(w, seed, 1, kVocab);
        };
        EXPECT_TRUE(sameRequests(gen(7), gen(7)));
        EXPECT_FALSE(sameRequests(gen(7), gen(8)));
    }
}

TEST(Generator, ShapesStayInRangeAndIdsAreUnique)
{
    for (const WorkloadSpec &w : workloads()) {
        SCOPED_TRACE(w.name);
        std::vector<GenRequest> reqs;
        for (std::size_t b = 0; b < 3; ++b)
            for (GenRequest &g : makeBatch(w, 3, b, kVocab))
                reqs.push_back(std::move(g));
        std::set<std::int64_t> ids;
        for (const GenRequest &g : reqs) {
            EXPECT_TRUE(ids.insert(g.id).second);
            int unique = static_cast<int>(g.prompt.size() -
                                          w.sharedPrefixTokens);
            EXPECT_GE(unique, w.uniqueMin);
            EXPECT_LE(unique, w.uniqueMax);
            EXPECT_GE(g.maxNewTokens, w.genMin);
            EXPECT_LE(g.maxNewTokens, w.genMax);
            for (int t : g.prompt)
                EXPECT_LT(static_cast<std::size_t>(t), kVocab);
        }
    }
}

TEST(Generator, EveryBatchSharesTheSystemPrompt)
{
    // shared_prefix_io exists for its prefix-cache hits: every request
    // of every batch must open with the same 64 tokens (four KV pages).
    const WorkloadSpec &w = *findWorkload("shared_prefix_io");
    ASSERT_EQ(w.sharedPrefixTokens, 64u);
    std::vector<GenRequest> first = makeBatch(w, 11, 0, kVocab);
    for (std::size_t b = 0; b < 2; ++b)
        for (const GenRequest &g : makeBatch(w, 11, b, kVocab))
            EXPECT_TRUE(std::equal(first[0].prompt.begin(),
                                   first[0].prompt.begin() + 64,
                                   g.prompt.begin()));
    // decode_io's prompts share nothing, so its prefix cache misses.
    std::vector<GenRequest> io =
        makeBatch(*findWorkload("decode_io"), 11, 0, kVocab);
    EXPECT_FALSE(std::equal(io[0].prompt.begin(), io[0].prompt.begin() + 16,
                            io[1].prompt.begin()));
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 50), 50.0);
    EXPECT_EQ(percentile(v, 90), 90.0);
    EXPECT_EQ(percentile(v, 100), 100.0);
    EXPECT_EQ(percentile({3.0}, 90), 3.0);
    EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(highestSupportedPercentile(19), 0.0);
    EXPECT_EQ(highestSupportedPercentile(20), 50.0);
    EXPECT_EQ(highestSupportedPercentile(99), 50.0);
    EXPECT_EQ(highestSupportedPercentile(100), 90.0);
    EXPECT_EQ(highestSupportedPercentile(999), 90.0);
    EXPECT_EQ(highestSupportedPercentile(1000), 99.0);
    EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
}

TEST(MetricNames, Charset)
{
    EXPECT_TRUE(validMetricName("gen_tok_s"));
    EXPECT_TRUE(validMetricName("kernels.moe_ffn_decode_ms"));
    EXPECT_TRUE(validMetricName("9-a.b_c"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_lead"));
    EXPECT_FALSE(validMetricName(".lead"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/no"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(MetricNames, TableIsValidAndUnique)
{
    std::set<std::string> seen;
    for (auto defs : {endToEndMetrics(), perLayerMetrics()})
        for (const MetricDef &d : defs) {
            EXPECT_TRUE(validMetricName(d.name)) << d.name;
            EXPECT_TRUE(seen.insert(d.name).second) << d.name;
        }
}

TEST(MetricNames, ResultLineNeedsEveryMetric)
{
    MetricValues v;
    for (const MetricDef &d : endToEndMetrics())
        v[d.name] = 1.5;
    std::string line = resultJson(true, 3, 0, endToEndMetrics(), v);
    EXPECT_NE(line.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"),
              std::string::npos);
    v.erase("setup_s");
    EXPECT_THROW(resultJson(true, 3, 0, endToEndMetrics(), v),
                 std::logic_error);
}

TEST(LittlesLaw, SyntheticPendingTrace)
{
    // Two requests are still queued at the end of a 1 s step, one at
    // the end of the next 2 s step, none after the third: 2*1 + 1*2 =
    // 4 request-seconds over 4 requests.
    std::vector<QueueSample> s = {{0.0, 3}, {1.0, 2}, {3.0, 1}, {4.0, 0}};
    EXPECT_DOUBLE_EQ(littleQueueWait(s, 4), 1.0);
    // A queue that is always empty at step boundaries waits nothing.
    std::vector<QueueSample> idle = {{0.0, 4}, {0.5, 0}, {2.0, 0}};
    EXPECT_DOUBLE_EQ(littleQueueWait(idle, 4), 0.0);
    EXPECT_DOUBLE_EQ(littleQueueWait(s, 0), 0.0);
}
