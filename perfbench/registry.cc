#include "registry.hh"

namespace perfbench {

namespace {

constexpr const char *kServing = "kvswap, shared_host, faults; none on offload";
constexpr const char *kKvOffload = "kvswap, offload";
/** PipeLLM's armed runs: 8 sub-traces on faults, sub-trace 0 in
 *  kvswap's traced pass. */
constexpr const char *kPipeFaults = "faults, kvswap (traced, 1 sub-trace)";

} // namespace

const std::vector<MetricInfo> &
endToEndMetrics()
{
    static const std::vector<MetricInfo> list = {
        {"setup_s", "s", "lower", "all", "-", "all"},
        {"host_ref_us_per_xfer", "us", "lower", "all", "-", "all"},
        {"peak_rss_mb", "MB", "lower", "all", "-", "all"},
        {"goodput_tok_s", "tok/s", "higher", "serving", "-", "all"},
        {"overhead_pct", "%", "lower", "serving", "-", "all"},
    };
    return list;
}

const std::vector<MetricInfo> &
layerMetrics()
{
    static const std::vector<MetricInfo> list = {
        // Serving quality, simulated.
        {"norm_latency_p50_ms", "ms", "lower", "serving",
         "overhead_pct", kServing},
        {"norm_latency_p90_ms", "ms", "lower", "serving",
         "overhead_pct", kServing},
        {"latency_samples", "count", "higher", "serving", "-", kServing},
        {"max_rate_at_slo", "req/s/dev", "higher", "serving",
         "goodput_tok_s", "kvswap only"},
        {"cc_overhead_pct", "%", "lower", "serving", "overhead_pct",
         "kvswap, offload, shared_host"},
        {"train_tok_s", "tok/s", "higher", "serving peft",
         "goodput_tok_s", "offload only"},
        {"failed_frac", "ratio", "lower", "serving", "goodput_tok_s",
         "faults, kvswap (CC armed)"},
        {"offered", "count", "higher", "serving", "-", "all"},
        {"completed", "count", "higher", "serving", "goodput_tok_s",
         "all"},
        // scenario, trace
        {"scenario.build_s", "s", "lower", "scenario", "setup_s", "all"},
        {"trace.generate_s", "s", "lower", "trace", "setup_s", "all"},
        // serving cluster
        {"cluster.run_s", "s", "lower", "serving cluster",
         "host_ref_us_per_xfer", "kvswap, shared_host; none on offload"},
        {"cluster.engine_steps", "count", "lower", "serving cluster",
         "host_ref_us_per_xfer", "kvswap, shared_host; none on offload"},
        {"cluster.steps_per_host_s", "1/s", "higher", "serving cluster",
         "host_ref_us_per_xfer", "kvswap, shared_host; none on offload"},
        {"cluster.sharded_runs", "count", "higher", "serving cluster",
         "host_ref_us_per_xfer",
         "kvswap; none on shared_host (coupled) or offload"},
        {"cluster.workers_speedup", "ratio", "higher", "serving cluster",
         "host_ref_us_per_xfer", "kvswap only (traced)"},
        // serving vllm
        {"vllm.preemptions", "count", "lower", "serving vllm",
         "norm_latency_p90_ms, max_rate_at_slo",
         "kvswap; none on offload"},
        {"vllm.swap_gb", "GB", "lower", "serving vllm",
         "norm_latency_p90_ms, host_ref_us_per_xfer",
         "kvswap; none on offload"},
        {"vllm.makespan_s", "s", "lower", "serving vllm",
         "goodput_tok_s", "kvswap; none on offload"},
        {"vllm.step_host_us.p50", "us", "lower", "serving vllm",
         "host_ref_us_per_xfer", "kvswap; none on offload"},
        {"vllm.step_host_us.p90", "us", "lower", "serving vllm",
         "host_ref_us_per_xfer", "kvswap; none on offload"},
        // serving flexgen / peft
        {"flexgen.run_s", "s", "lower", "serving flexgen",
         "host_ref_us_per_xfer", "offload only"},
        {"peft.run_s", "s", "lower", "serving peft", "host_ref_us_per_xfer",
         "offload only"},
        {"flexgen.offloaded_layers", "count", "lower", "serving flexgen",
         "goodput_tok_s", "offload only"},
        {"peft.overhead_pct", "%", "lower", "serving peft",
         "train_tok_s", "offload only"},
        // runtime
        {"runtime.h2d_calls", "count", "lower", "runtime",
         "overhead_pct, host_ref_us_per_xfer", kKvOffload},
        {"runtime.h2d_gb", "GB", "lower", "runtime", "overhead_pct",
         kKvOffload},
        {"runtime.d2h_calls", "count", "lower", "runtime",
         "overhead_pct, host_ref_us_per_xfer", kKvOffload},
        {"runtime.d2h_gb", "GB", "lower", "runtime", "overhead_pct",
         kKvOffload},
        {"runtime.cpu_encrypt_gb", "GB", "lower", "runtime",
         "overhead_pct", kKvOffload},
        {"runtime.cpu_decrypt_gb", "GB", "lower", "runtime",
         "overhead_pct", kKvOffload},
        {"runtime.h2d_sim_us.p50", "us", "lower", "runtime",
         "overhead_pct, norm_latency_p90_ms", kKvOffload},
        {"runtime.h2d_sim_us.p90", "us", "lower", "runtime",
         "overhead_pct, norm_latency_p90_ms", kKvOffload},
        {"runtime.d2h_sim_us.p50", "us", "lower", "runtime",
         "overhead_pct, norm_latency_p90_ms", kKvOffload},
        {"runtime.d2h_sim_us.p90", "us", "lower", "runtime",
         "overhead_pct, norm_latency_p90_ms", kKvOffload},
        // runtime staged path
        {"staged.copy_busy_s", "s", "lower", "runtime staged path",
         "goodput_tok_s", "offload; little on kvswap"},
        {"staged.pool_stalls", "count", "lower", "runtime staged path",
         "goodput_tok_s", "offload; little on kvswap"},
        {"staged.transfer_us", "us", "lower", "runtime staged path",
         "host_ref_us_per_xfer", "offload; little on kvswap"},
        // pipellm
        {"pipellm.hit_ratio", "ratio", "higher", "pipellm",
         "overhead_pct, norm_latency_p90_ms", kKvOffload},
        {"pipellm.swap_requests", "count", "higher", "pipellm",
         "- (base of hit_ratio)", kKvOffload},
        {"pipellm.misses", "count", "lower", "pipellm", "overhead_pct",
         kKvOffload},
        {"pipellm.stale_drops", "count", "lower", "pipellm",
         "overhead_pct, host_ref_us_per_xfer", kKvOffload},
        {"pipellm.reordered", "count", "lower", "pipellm",
         "overhead_pct", kKvOffload},
        {"pipellm.nops", "count", "lower", "pipellm", "overhead_pct",
         kKvOffload},
        {"pipellm.async_decrypts", "count", "higher", "pipellm",
         "norm_latency_p90_ms", "kvswap"},
        {"pipellm.decrypt_faults", "count", "lower", "pipellm",
         "norm_latency_p90_ms", "kvswap"},
        {"pipeline.useful_ratio", "ratio", "higher", "pipellm",
         "host_ref_us_per_xfer, overhead_pct", kKvOffload},
        {"pipeline.pre_encrypted", "count", "lower", "pipellm",
         "- (base of useful_ratio)", kKvOffload},
        {"pipeline.rebuilds", "count", "lower", "pipellm",
         "host_ref_us_per_xfer", kKvOffload},
        {"pipeline.relinquished", "count", "lower", "pipellm",
         "host_ref_us_per_xfer", "faults, kvswap"},
        // pipellm predictor
        {"predictor.shadow_hit_ratio", "ratio", "higher",
         "pipellm predictor", "overhead_pct",
         "faults; little on shared_host"},
        {"predictor.shadow_total", "count", "higher",
         "pipellm predictor", "- (base of shadow_hit_ratio)",
         "faults; little on shared_host"},
        {"predictor.predict_us", "us", "lower", "pipellm predictor",
         "host_ref_us_per_xfer", "faults, offload; little on shared_host"},
        // crypto
        {"crypto.seal_gbps", "GB/s", "higher", "crypto",
         "host_ref_us_per_xfer", "offload, shared_host"},
        {"crypto.open_gbps", "GB/s", "higher", "crypto",
         "host_ref_us_per_xfer", "offload, shared_host"},
        {"crypto.seal_4k_gbps", "GB/s", "higher", "crypto",
         "host_ref_us_per_xfer", "offload, shared_host"},
        {"crypto.open_4k_gbps", "GB/s", "higher", "crypto",
         "host_ref_us_per_xfer", "offload, shared_host"},
        {"crypto.lane_busy_s", "s", "lower", "crypto",
         "goodput_tok_s (shared_host)", "offload, shared_host"},
        {"crypto.lane_util", "ratio", "lower", "crypto",
         "goodput_tok_s (shared_host)", "offload, shared_host"},
        // mem
        {"mem.protect_us", "us", "lower", "mem", "host_ref_us_per_xfer",
         "kvswap; none on offload"},
        // gpu
        {"gpu.h2d_link_util", "ratio", "higher", "gpu",
         "overhead_pct, goodput_tok_s", "all"},
        {"gpu.d2h_link_util", "ratio", "higher", "gpu",
         "overhead_pct, goodput_tok_s", "all"},
        {"gpu.copy_crypto_util", "ratio", "higher", "gpu",
         "overhead_pct, goodput_tok_s", "all"},
        {"gpu.compute_util", "ratio", "higher", "gpu",
         "overhead_pct, goodput_tok_s", "all"},
        {"gpu.integrity_failures", "count", "lower", "gpu",
         "- (0 on fault-free runs, which is checked)", "faults"},
        // host bridge
        {"host.bridge_util", "ratio", "higher", "runtime host bridge",
         "goodput_tok_s, norm_latency_p90_ms", "shared_host only"},
        {"host.bridge_gb", "GB", "lower", "runtime host bridge",
         "goodput_tok_s, norm_latency_p90_ms", "shared_host only"},
        // fault
        {"fault.tag_faults", "count", "lower", "fault",
         "goodput_tok_s, host_ref_us_per_xfer", kPipeFaults},
        {"fault.tag_retries", "count", "lower", "fault",
         "goodput_tok_s, host_ref_us_per_xfer", kPipeFaults},
        {"fault.copy_retries", "count", "lower", "fault",
         "goodput_tok_s, host_ref_us_per_xfer", kPipeFaults},
        {"fault.degraded_entries", "count", "lower", "fault",
         "goodput_tok_s", kPipeFaults},
        {"fault.retry_latency_s", "s", "lower", "fault",
         "goodput_tok_s", kPipeFaults},
        {"fault.replica_crashes", "count", "lower", "fault",
         "goodput_tok_s, failed_frac", kPipeFaults},
        {"fault.replica_restarts", "count", "lower", "fault",
         "goodput_tok_s, failed_frac", kPipeFaults},
        {"fault.requeued", "count", "lower", "fault",
         "goodput_tok_s, failed_frac", kPipeFaults},
        {"fault.h2d_amplification", "ratio", "lower", "fault",
         "host_ref_us_per_xfer, goodput_tok_s", kPipeFaults},
        {"fault.disarmed_h2d_calls", "count", "lower", "fault",
         "- (base of h2d_amplification)", kPipeFaults},
        {"fault.cc_tag_retries", "count", "lower", "fault",
         "- (CC reference for tag_retries)", "faults, kvswap"},
        {"fault.cc.run_s", "s", "lower", "fault", "host_ref_us_per_xfer",
         "kvswap, faults"},
        {"fault.pipe.run_s", "s", "lower", "fault",
         "host_ref_us_per_xfer (faults)", kPipeFaults},
        // the traced pass itself
        // The simulator's host cost as measured; host_ref_us_per_xfer
        // and setup_s are scaled by calib_ms to the reference speed.
        {"host_s", "s", "lower", "all", "host_ref_us_per_xfer", "all"},
        {"host_us_per_xfer", "us", "lower", "all", "host_ref_us_per_xfer",
         "all"},
        {"calib_ms", "ms", "lower", "benchmark calibration", "-", "all"},
        {"trace.host_s", "s", "lower", "benchmark tracing", "-", "all"},
        {"trace.overhead_s", "s", "lower", "benchmark tracing", "-",
         "all"},
        {"trace.spans", "count", "higher", "benchmark tracing", "-",
         "all"},
    };
    return list;
}

const MetricInfo *
findMetric(const std::string &name)
{
    for (const auto *list : {&endToEndMetrics(), &layerMetrics()})
        for (const auto &m : *list)
            if (name == m.name)
                return &m;
    return nullptr;
}

} // namespace perfbench
