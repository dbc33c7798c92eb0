#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SplitMix64::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
SplitMix64::below(std::uint64_t n)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
}

namespace {

// Shapes follow the mid-size model (h1 256, 8 experts top-2, 16-token
// KV pages); see BENCHMARK.json for why each workload exists.
constexpr WorkloadSpec kWorkloads[] = {
    // Paper regime: every decode round streams ~95 MB of expert
    // weights over the throttled link, so I/O sets the pace.
    {"decode_io", 32, 14.0, 0, 16, 64, 32, 64},
    // Two admission waves: the second wave is admitted between rounds
    // as slots free and hits the shared 64-token prefix the first wave
    // cached.
    {"shared_prefix_io", 64, 34.0, 64, 8, 40, 32, 64},
};

/** Independent generator stream @p stream of run seed @p seed. */
SplitMix64
streamOf(std::uint64_t seed, std::uint64_t stream)
{
    SplitMix64 mix(seed ^ (stream * 0xd1b54a32d192ed03ULL));
    return SplitMix64(mix.next());
}

template <typename T>
void
shuffle(std::vector<T> &v, SplitMix64 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** @p n lengths evenly spread over [lo, hi], in seeded order: every
 *  run of a workload covers the same length mix, so run-to-run
 *  differences come from the system, not from a lucky draw. */
std::vector<int>
stratifiedLengths(int lo, int hi, std::size_t n, SplitMix64 &rng)
{
    std::vector<int> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = n == 1 ? lo
                      : lo + static_cast<int>(std::lround(
                                 static_cast<double>(hi - lo) *
                                 static_cast<double>(i) /
                                 static_cast<double>(n - 1)));
    shuffle(v, rng);
    return v;
}

std::vector<int>
randomTokens(std::size_t n, std::size_t vocab, SplitMix64 &rng)
{
    std::vector<int> t(n);
    for (int &x : t)
        x = static_cast<int>(rng.below(vocab));
    return t;
}

/** Requests with stratified shapes and random token content; the
 *  shared system prompt (if any) comes from its own seed stream so it
 *  is the same for every batch of the run. */
std::vector<GenRequest>
makeRequests(const WorkloadSpec &w, std::uint64_t seed,
             std::uint64_t stream, std::size_t n, std::size_t vocab)
{
    SplitMix64 rng = streamOf(seed, stream);
    SplitMix64 sysRng = streamOf(seed, 0);
    std::vector<int> sys =
        randomTokens(w.sharedPrefixTokens, vocab, sysRng);
    std::vector<int> uniq = stratifiedLengths(w.uniqueMin, w.uniqueMax, n, rng);
    std::vector<int> gen = stratifiedLengths(w.genMin, w.genMax, n, rng);
    std::vector<GenRequest> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].prompt = sys;
        std::vector<int> tail = randomTokens(
            static_cast<std::size_t>(uniq[i]), vocab, rng);
        out[i].prompt.insert(out[i].prompt.end(), tail.begin(),
                             tail.end());
        out[i].maxNewTokens = gen[i];
    }
    return out;
}

} // namespace

std::span<const WorkloadSpec>
workloads()
{
    return kWorkloads;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::size_t
batchCount(const WorkloadSpec &w, double seconds)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(seconds / w.nominalBatchSec)));
}

std::vector<GenRequest>
makeBatch(const WorkloadSpec &w, std::uint64_t seed,
                std::size_t batchIndex, std::size_t vocab)
{
    std::vector<GenRequest> reqs =
        makeRequests(w, seed, 1 + batchIndex, w.batchRequests, vocab);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        reqs[i].id = static_cast<std::int64_t>(
            batchIndex * w.batchRequests + i);
    return reqs;
}

std::vector<std::size_t>
sampleIndices(std::size_t n, std::size_t k, std::uint64_t seed)
{
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    SplitMix64 rng = streamOf(seed, 0x5a3);
    k = std::min(k, n);
    for (std::size_t i = 0; i < k; ++i)
        std::swap(idx[i], idx[i + rng.below(n - i)]);
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

} // namespace perfbench
