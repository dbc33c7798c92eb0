/**
 * @file
 * serving_bench: one run of one workload against PipelinedEngine.
 *
 *   serving_bench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--trace-file PATH]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * serves the same requests twice, untraced and then traced, reports
 * the per-layer metrics from the traced pass plus per-layer replays,
 * and writes the spans to --trace-file. Either way every output is
 * checked, each metric is printed with its unit, and the last line is
 * the JSON result. Exit code 0 only when every check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include <sys/resource.h>

#include "driver.hh"
#include "metrics.hh"
#include "replay.hh"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 3;

struct Args
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "serving_bench: " << why
              << "\nusage: serving_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-file PATH]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string val = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = findWorkload(val);
                if (!a.workload)
                    usage("unknown workload '" + val + "'");
            } else if (flag == "--seed") {
                a.seed = std::stoull(val);
                haveSeed = true;
            } else if (flag == "--seconds") {
                a.seconds = std::stod(val);
            } else if (flag == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                a.trace = val == "1";
                haveTrace = true;
            } else if (flag == "--trace-file") {
                a.traceFile = val;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + val + "' for " + flag);
        }
    }
    if (!a.workload || !haveSeed || !haveTrace || !(a.seconds > 0.0))
        usage("--workload, --seed, --seconds (> 0) and --trace are "
              "required");
    return a;
}

/** High-water resident set of this process. */
double
peakRssMb()
{
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        throw std::runtime_error("getrusage failed");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
report(const char *phase, const CheckReport &c)
{
    for (std::size_t i = 0; i < c.problems.size() && i < 10; ++i)
        std::cout << "check failed (" << phase << "): " << c.problems[i]
                  << "\n";
}

void
printMetrics(std::span<const MetricDef> defs, const MetricValues &v)
{
    for (const MetricDef &d : defs) {
        auto it = v.find(d.name);
        std::cout << "  " << d.name << " = "
                  << (it == v.end() ? NAN : it->second) << " " << d.unit;
        if (*d.moves)
            std::cout << "    [should move: " << d.moves << "]";
        std::cout << "\n";
    }
}

void
describeSample(const PassResult &p)
{
    std::size_t n = p.groups.front().end - p.groups.front().begin;
    std::cout << "latency samples: " << p.groups.size() << " batch(es) of "
              << n << " requests; highest percentile with ten samples "
                 "beyond it: p"
              << highestSupportedPercentile(n) << "\n";
}

/**
 * End-to-end metrics. Each batch is summarised on its own and the run
 * reports the median over batches, so one batch slowed by the host
 * moves the result less.
 */
MetricValues
endToEnd(const PassResult &p, const std::vector<double> &setupSec,
         double rssMb)
{
    std::vector<double> rate, p50, p90, norm50, norm90;
    for (const OutputGroup &g : p.groups) {
        std::vector<double> lat, norm;
        for (std::size_t i = g.begin; i < g.end; ++i) {
            lat.push_back(p.latencySec[i]);
            norm.push_back(1e3 * p.latencySec[i] /
                           static_cast<double>(p.outputs[i].tokens.size()));
        }
        rate.push_back(static_cast<double>(g.tokens) / g.wallSec);
        p50.push_back(percentile(lat, 50));
        p90.push_back(percentile(lat, 90));
        norm50.push_back(percentile(norm, 50));
        norm90.push_back(percentile(norm, 90));
    }
    MetricValues m;
    m["gen_tok_s"] = median(rate);
    m["latency_p50_s"] = median(p50);
    m["latency_p90_s"] = median(p90);
    m["norm_latency_p50_ms"] = median(norm50);
    m["norm_latency_p90_ms"] = median(norm90);
    m["setup_s"] = median(setupSec);
    m["peak_rss_mb"] = rssMb;
    return m;
}

/** Serving wall time of a pass: the sum over its batches. */
double
servingSec(const PassResult &p)
{
    double s = 0.0;
    for (const OutputGroup &g : p.groups)
        s += g.wallSec;
    return s;
}

MetricValues
perLayer(const PassResult &p, std::size_t failed, double untracedSec,
         const moelight::ModelConfig &model, std::size_t microBatch,
         MetricValues replay)
{
    MetricValues m = std::move(replay);
    const double toks = static_cast<double>(p.generatedTokens);
    m["loadgen.sent"] = static_cast<double>(p.requests.size());
    m["loadgen.succeeded"] =
        static_cast<double>(p.requests.size() - std::min(failed,
                                                         p.requests.size()));
    m["loadgen.late_max_ms"] =
        1e3 * *std::max_element(p.lateSec.begin(), p.lateSec.end());

    std::vector<double> admitMs, decodeMs, batch;
    for (const StepRecord &s : p.steps) {
        (s.admitted ? admitMs : decodeMs)
            .push_back(1e3 * (s.endSec - s.startSec));
        batch.push_back(static_cast<double>(s.batch));
    }
    m["engine.steps"] = static_cast<double>(p.steps.size());
    m["engine.admit_step_ms_p50"] = percentile(admitMs, 50);
    m["engine.admit_step_ms_p90"] = percentile(admitMs, 90);
    m["engine.decode_step_ms_p50"] = percentile(decodeMs, 50);
    m["engine.decode_step_ms_p90"] = percentile(decodeMs, 90);
    m["engine.batch_mean"] = mean(batch);
    std::vector<double> prefillMs, roundMs;
    for (const moelight::RequestOutput &o : p.outputs) {
        prefillMs.push_back(1e3 * o.prefillSeconds);
        // The prefill round yields the first token; each later token
        // is one decode round.
        if (o.tokens.size() > 1)
            roundMs.push_back(1e3 * o.decodeSeconds /
                              static_cast<double>(o.tokens.size() - 1));
    }
    m["engine.prefill_round_ms_p50"] = median(prefillMs);
    m["engine.decode_round_ms_p50"] = median(roundMs);
    m["engine.preemptions"] = static_cast<double>(p.preemptions);

    m["serving.queue_wait_mean_ms"] =
        1e3 * littleQueueWait(p.queue, p.requests.size());
    std::size_t depth = 0;
    for (const QueueSample &q : p.queue)
        depth = std::max(depth, q.pending);
    m["serving.queue_depth_max"] = static_cast<double>(depth);

    m["kv.peak_pages"] = static_cast<double>(p.kvPeakPages);

    m["prefix.hit_rate"] =
        p.prefix.lookups ? static_cast<double>(p.prefix.hits) /
                               static_cast<double>(p.prefix.lookups)
                         : 0.0;
    m["prefix.lookups"] = static_cast<double>(p.prefix.lookups);
    m["prefix.pages_reused"] = static_cast<double>(p.prefix.pagesReused);
    m["prefix.prefill_mb_skipped"] =
        static_cast<double>(p.prefix.bytesPrefillSkipped) / 1e6;

    m["transfer.h2d_weight_bytes_per_tok"] =
        static_cast<double>(p.transfer.pinnedToGpu) / toks;
    m["transfer.d2h_bytes_per_tok"] =
        static_cast<double>(p.transfer.gpuToHost) / toks;
    m["transfer.h2d_act_bytes_per_tok"] =
        static_cast<double>(p.transfer.hostToGpu) / toks;

    const double decodeStepMs = m["engine.decode_step_ms_p50"];
    const double layers = static_cast<double>(model.l);
    m["weights.io_share_est"] =
        m["weights.load_layer_ms"] * layers / decodeStepMs;
    // Gpu-queue kernels of one decode round: per micro-batch, every
    // layer's projections, router and MoE FFN, then the LM head.
    const double ubs = std::ceil(m["engine.batch_mean"] /
                                 static_cast<double>(microBatch));
    const double gpuMs =
        ubs * (layers * (m["kernels.proj_ms"] + m["kernels.router_ms"] +
                         m["kernels.moe_ffn_decode_ms"]) +
               m["kernels.lm_head_ms"]);
    m["kernels.gpu_share_est"] = gpuMs / decodeStepMs;
    // Recording spans is the only work the traced pass adds, so its
    // time against the untraced serving time is the tracing overhead;
    // a difference of the two passes' wall times would be host noise.
    m["bench.trace_overhead_pct"] = 100.0 * p.recordSec / untracedSec;
    return m;
}

ReplayShapes
shapesOf(const PassResult &p, const moelight::EngineConfig &ec)
{
    double prompt = 0.0, ctx = 0.0;
    for (const GenRequest &g : p.requests) {
        prompt += static_cast<double>(g.prompt.size());
        ctx += static_cast<double>(g.prompt.size()) + g.maxNewTokens / 2.0;
    }
    const double n = static_cast<double>(p.requests.size());
    ReplayShapes s;
    s.decodeRows = ec.microBatch;
    s.promptLen = static_cast<std::size_t>(std::lround(prompt / n));
    s.decodeCtx = static_cast<std::size_t>(std::lround(ctx / n));
    s.kvPageTokens = ec.kvPageTokens;
    s.throttleBw = ec.throttleBw;
    return s;
}

int
runUntraced(const Args &a)
{
    const WorkloadSpec &w = *a.workload;
    std::vector<double> setupSec;
    std::unique_ptr<moelight::ModelWeights> weights;
    for (int i = 0; i < kSetupRepeats; ++i) {
        weights.reset();
        Clock::time_point t0 = Clock::now();
        weights = makeWeights();
        makeEngine(*weights).reset();
        setupSec.push_back(secondsBetween(t0, Clock::now()));
    }
    PassResult pass = runPass(*weights, w, a.seed, a.seconds);
    const double rss = peakRssMb();
    CheckReport check = checkPass(pass, *weights, a.seed);
    report("outputs", check);

    describeSample(pass);
    MetricValues m = endToEnd(pass, setupSec, rss);
    std::cout << "workload " << w.name << " seed " << a.seed
              << ": end-to-end metrics (tracing off)\n";
    printMetrics(endToEndMetrics(), m);
    std::cout << "failed_ratio = " << check.failed << " / "
              << pass.requests.size() << "\n";
    std::cout << resultJson(check.failed == 0, pass.requests.size(),
                            check.failed, endToEndMetrics(), m)
              << std::endl;
    return check.failed == 0 ? 0 : 1;
}

int
runTraced(const Args &a)
{
    const WorkloadSpec &w = *a.workload;
    std::unique_ptr<moelight::ModelWeights> weights = makeWeights();
    PassResult plain = runPass(*weights, w, a.seed, a.seconds);
    SpanRecorder rec;
    std::int64_t root = rec.open(std::string("workload.") + w.name,
                                 Lane::Bench);
    std::int64_t pass = rec.open("pass", Lane::Bench, root);
    PassResult traced = runPass(*weights, w, a.seed, a.seconds, &rec, pass);
    rec.close(pass);
    CheckReport check = checkPass(traced, *weights, a.seed);
    report("traced outputs", check);
    CheckReport same = compareTokens(traced, plain);
    report("traced vs untraced", same);

    const moelight::EngineConfig ec = benchEngineConfig();
    std::int64_t replaySpan = rec.open("replay", Lane::Bench, root);
    MetricValues replay =
        runReplays(*weights, shapesOf(traced, ec), rec, replaySpan);
    rec.close(replaySpan);
    rec.close(root);

    const std::size_t failed = check.failed + same.failed;
    MetricValues m = perLayer(traced, failed, servingSec(plain),
                              weights->cfg, ec.microBatch, std::move(replay));
    std::cout << "workload " << w.name << " seed " << a.seed
              << ": per-layer metrics (traced run, " << rec.spans().size()
              << " spans)\n";
    printMetrics(perLayerMetrics(), m);
    if (!a.traceFile.empty()) {
        if (!rec.write(a.traceFile, std::string("perfbench ") + w.name))
            throw std::runtime_error("cannot write " + a.traceFile);
        std::cout << "trace written to " << a.traceFile << "\n";
    }
    const std::size_t attempted =
        plain.requests.size() + traced.requests.size();
    std::cout << resultJson(failed == 0, attempted, failed,
                            perLayerMetrics(), m)
              << std::endl;
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    try {
        return a.trace ? runTraced(a) : runUntraced(a);
    } catch (const std::exception &e) {
        std::cerr << "serving_bench: " << e.what() << "\n";
        return 2;
    }
}
