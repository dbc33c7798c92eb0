#include "metrics.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr MetricDef kEndToEnd[] = {
    {"gen_tok_s", "tok/s", ""},
    {"latency_p50_s", "s", ""},
    {"latency_p90_s", "s", ""},
    {"norm_latency_p50_ms", "ms/tok", ""},
    {"norm_latency_p90_ms", "ms/tok", ""},
    {"setup_s", "s", ""},
    {"peak_rss_mb", "MB", ""},
};

#define KERNEL(k, moves)                      \
    {"kernels." k "_ms", "ms", moves},        \
    {"kernels." k "_gflop", "GFLOP", moves},  \
    {"kernels." k "_mb", "MB", moves}

constexpr MetricDef kPerLayer[] = {
    // Load generator: checks the load, should move nothing.
    {"loadgen.sent", "count", "none (load check)"},
    {"loadgen.succeeded", "count", "none (load check)"},
    {"loadgen.late_max_ms", "ms", "none (load check)"},
    // runtime/engine, from spans around step().
    {"engine.steps", "count", "gen_tok_s on decode_io"},
    {"engine.admit_step_ms_p50", "ms", "latency_p50_s on decode_io"},
    {"engine.admit_step_ms_p90", "ms",
     "latency_p90_s on shared_prefix_io"},
    {"engine.decode_step_ms_p50", "ms", "gen_tok_s on decode_io"},
    {"engine.decode_step_ms_p90", "ms", "latency_p90_s on decode_io"},
    {"engine.batch_mean", "count", "gen_tok_s on decode_io"},
    {"engine.prefill_round_ms_p50", "ms",
     "latency_p50_s on shared_prefix_io"},
    {"engine.decode_round_ms_p50", "ms", "norm_latency_p50_ms on decode_io"},
    {"engine.preemptions", "count", "gen_tok_s on shared_prefix_io"},
    // runtime/serving.
    {"serving.queue_wait_mean_ms", "ms", "latency_p90_s on shared_prefix_io"},
    {"serving.queue_depth_max", "count", "latency_p90_s on shared_prefix_io"},
    // kv_cache / page_table.
    {"kv.peak_pages", "count", "peak_rss_mb on shared_prefix_io"},
    {"kv.append_us", "us", "latency_p50_s on shared_prefix_io"},
    {"kv.view_us", "us", "latency_p50_s on shared_prefix_io"},
    // prefix_cache.
    // Only shared_prefix_io hits; decode_io's unique prompts always
    // miss, so its hit metrics read 0.
    {"prefix.hit_rate", "ratio", "latency_p90_s on shared_prefix_io"},
    {"prefix.lookups", "count", "latency_p50_s on decode_io"},
    {"prefix.pages_reused", "count", "latency_p90_s on shared_prefix_io"},
    {"prefix.prefill_mb_skipped", "MB", "latency_p90_s on shared_prefix_io"},
    // paged_weights / transfer_engine.
    {"transfer.h2d_weight_bytes_per_tok", "B/tok",
     "gen_tok_s on decode_io"},
    {"transfer.d2h_bytes_per_tok", "B/tok",
     "gen_tok_s on decode_io"},
    {"transfer.h2d_act_bytes_per_tok", "B/tok",
     "gen_tok_s on decode_io"},
    {"weights.load_layer_ms", "ms", "gen_tok_s on decode_io"},
    {"weights.io_share_est", "ratio", "gen_tok_s on decode_io"},
    // stream_executor.
    {"exec.hop_us", "us", "engine.decode_step_ms, gen_tok_s on decode_io"},
    {"exec.sync_us", "us", "engine.decode_step_ms, gen_tok_s on decode_io"},
    // kernels: time per call at the workload's shapes, computed work
    // and computed bytes.
    // Both workloads stream weights over a slow link: kernels move
    // them little while weights.io_share_est is near 1.
    KERNEL("moe_ffn_decode", "norm_latency_p50_ms on decode_io"),
    KERNEL("moe_ffn_prefill", "latency_p50_s on shared_prefix_io"),
    {"kernels.moe_ffn_prefill_gflops", "GFLOP/s",
     "latency_p50_s on shared_prefix_io"},
    {"kernels.moe_ffn_prefill_weight_gbs", "GB/s",
     "latency_p50_s on shared_prefix_io"},
    KERNEL("proj", "norm_latency_p50_ms on decode_io"),
    KERNEL("router", "norm_latency_p50_ms on decode_io"),
    KERNEL("lm_head", "norm_latency_p50_ms on decode_io"),
    KERNEL("decode_attn", "norm_latency_p50_ms on decode_io"),
    KERNEL("prefill_attn", "latency_p50_s on shared_prefix_io"),
    {"kernels.gpu_share_est", "ratio", "norm_latency_p50_ms on decode_io"},
    {"bench.trace_overhead_pct", "%", "none (tracing cost)"},
};

#undef KERNEL

} // namespace

std::span<const MetricDef>
endToEndMetrics()
{
    return kEndToEnd;
}

std::span<const MetricDef>
perLayerMetrics()
{
    return kPerLayer;
}

bool
validMetricName(std::string_view name)
{
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (name.empty() || name.size() > 64 || !alnum(name.front()))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

std::string
resultJson(bool correct, std::size_t attempted, std::size_t failed,
           std::span<const MetricDef> defs, const MetricValues &values)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        auto it = values.find(d.name);
        if (it == values.end())
            throw std::logic_error(std::string("metric not measured: ") +
                                   d.name);
        if (!std::isfinite(it->second))
            throw std::logic_error(std::string("metric not finite: ") +
                                   d.name);
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", it->second);
        out += first ? "\"" : ", \"";
        first = false;
        out.append(d.name).append("\": {\"value\": ").append(num);
        out.append(", \"unit\": \"").append(d.unit).append("\"}");
    }
    out += "}}";
    return out;
}

} // namespace perfbench
