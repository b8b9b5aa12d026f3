#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <thread>

#include "crypto/gcm.hh"
#include "mem/page_protection.hh"
#include "pipellm/pipellm_runtime.hh"
#include "runtime/transfer_trace.hh"
#include "scenario/builder.hh"
#include "scenario/mode.hh"
#include "serving/flexgen.hh"
#include "serving/peft.hh"
#include "trace/generator.hh"

namespace perfbench {

using namespace pipellm;
using scenario::SystemMode;

namespace {

// ---------------------------------------------------------------
// Workload parameters. Changing any of them changes the benchmark.
//
// One ShareGPT trace of a few dozen requests per replica swings
// PipeLLM's overhead and the simulator's host time by tens of percent
// from seed to seed: a few long requests decide how much the KV cache
// swaps. Each serving workload therefore pools several independent
// sub-traces drawn from the seed, and loads them past PipeLLM's
// capacity so that every sub-trace swaps throughout; near capacity
// the overhead of one trace ranges from 0 to 50%. Sub-trace k and
// its runs are the workload's unit k, which a pass can run alone.
// ---------------------------------------------------------------

/** Workers of the traced co-simulation probe at most. */
constexpr unsigned kMaxWorkers = 4;

// kvswap: the paper's vLLM case on 4 private-host replicas.
constexpr unsigned kKvReplicas = 4;
constexpr std::size_t kKvRequestsPerDevice = 30;
constexpr unsigned kKvSubTraces = 12;
/** Per-device Poisson rate of the end-to-end runs (req/s). */
constexpr double kKvReferenceRate = 4.0;
/** Per-device rates of the max_rate_at_slo ladder, ascending. */
const std::vector<double> kKvLadder = {0.4, 0.8, 1.2, 1.6, 2.0};
/** p90 normalized-latency limit of max_rate_at_slo. */
constexpr double kKvSloP90Ms = 50;

// offload: FlexGen OPT-66B in32/out128 and PEFT OPT-30B on one GPU
// (the Fig. 7 configurations, fewer batches).
constexpr unsigned kFlexGenBatch = 32;
constexpr unsigned kFlexGenRequests = 64;
constexpr unsigned kPeftBatch = 5;
constexpr unsigned kPeftSequences = 60;

// faults: the committed faults.scenario plan at scale 2 on 2
// replicas, CC and PipeLLM armed plus the disarmed PipeLLM twin.
// kvswap runs faults sub-traces 0-11 with CC armed in its timed
// passes (sub-trace k in its unit k), and PipeLLM armed plus its twin
// on sub-trace 0 in the traced pass.
constexpr unsigned kFaultReplicas = 2;
constexpr std::size_t kFaultRequestsPerDevice = 8;
constexpr unsigned kFaultSubTraces = 8;
constexpr double kFaultRate = 0.8;
constexpr double kFaultScale = 2;

// shared_host: the cluster_scale shared variant at 4 replicas.
constexpr unsigned kSharedReplicas = 4;
constexpr std::size_t kSharedRequestsPerDevice = 30;
constexpr unsigned kSharedSubTraces = 12;
constexpr double kSharedRate = 4.0;

/** Records kept per runtime in the traced pass. */
constexpr std::size_t kTransferTraceCap = std::size_t(1) << 20;

/** Independent sub-seed @p stream of the benchmark seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
gb(double bytes)
{
    return bytes / 1e9;
}

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/**
 * Layer statistics read from public stats after a run, additive
 * across runs so a workload can sum its headline runs.
 */
struct LayerStats
{
    double device_seconds = 0; ///< makespan x devices
    double makespan_s = 0;
    runtime::RuntimeStats rt;
    std::uint64_t swap_requests = 0, hits = 0, misses = 0,
                  stale_drops = 0, reordered = 0, nops = 0,
                  async_decrypts = 0, decrypt_faults = 0;
    std::uint64_t pre_encrypted = 0, pre_encrypted_bytes = 0,
                  consumed = 0, rebuilds = 0, relinquished = 0;
    std::uint64_t shadow_hits = 0, shadow_total = 0;
    double h2d_link_busy_s = 0, d2h_link_busy_s = 0,
           copy_crypto_busy_s = 0, compute_busy_s = 0;
    std::uint64_t integrity_failures = 0;
    double staged_copy_busy_s = 0;
    std::uint64_t pool_stalls = 0;
    double bridge_busy_s = 0, bridge_bytes = 0;
    double crypto_pool_busy_s = 0;
    unsigned crypto_pool_lanes = 0;
    double crypto_bw_per_lane = 0;
    /** Traced pass only: simulated transfer times and predictor
     *  host timings. */
    std::vector<double> h2d_sim_us, d2h_sim_us, predict_us;

    void
    add(const LayerStats &o)
    {
        device_seconds += o.device_seconds;
        makespan_s += o.makespan_s;
        rt.h2d_calls += o.rt.h2d_calls;
        rt.h2d_bytes += o.rt.h2d_bytes;
        rt.d2h_calls += o.rt.d2h_calls;
        rt.d2h_bytes += o.rt.d2h_bytes;
        rt.kernels += o.rt.kernels;
        rt.cpu_encrypt_bytes += o.rt.cpu_encrypt_bytes;
        rt.cpu_decrypt_bytes += o.rt.cpu_decrypt_bytes;
        swap_requests += o.swap_requests;
        hits += o.hits;
        misses += o.misses;
        stale_drops += o.stale_drops;
        reordered += o.reordered;
        nops += o.nops;
        async_decrypts += o.async_decrypts;
        decrypt_faults += o.decrypt_faults;
        pre_encrypted += o.pre_encrypted;
        pre_encrypted_bytes += o.pre_encrypted_bytes;
        consumed += o.consumed;
        rebuilds += o.rebuilds;
        relinquished += o.relinquished;
        shadow_hits += o.shadow_hits;
        shadow_total += o.shadow_total;
        h2d_link_busy_s += o.h2d_link_busy_s;
        d2h_link_busy_s += o.d2h_link_busy_s;
        copy_crypto_busy_s += o.copy_crypto_busy_s;
        compute_busy_s += o.compute_busy_s;
        integrity_failures += o.integrity_failures;
        staged_copy_busy_s += o.staged_copy_busy_s;
        pool_stalls += o.pool_stalls;
        bridge_busy_s += o.bridge_busy_s;
        bridge_bytes += o.bridge_bytes;
        crypto_pool_busy_s += o.crypto_pool_busy_s;
        crypto_pool_lanes = std::max(crypto_pool_lanes,
                                     o.crypto_pool_lanes);
        crypto_bw_per_lane = o.crypto_bw_per_lane;
        h2d_sim_us.insert(h2d_sim_us.end(), o.h2d_sim_us.begin(),
                          o.h2d_sim_us.end());
        d2h_sim_us.insert(d2h_sim_us.end(), o.d2h_sim_us.begin(),
                          o.d2h_sim_us.end());
        predict_us.insert(predict_us.end(), o.predict_us.begin(),
                          o.predict_us.end());
    }
};

/** Read every layer's public stats off a finished run. */
LayerStats
collect(runtime::Platform &platform,
        const std::vector<runtime::RuntimeApi *> &runtimes, Tick makespan,
        const std::vector<std::unique_ptr<runtime::TransferTrace>> &traces,
        Tracer *tracer, std::uint64_t span_parent)
{
    LayerStats s;
    s.makespan_s = toSeconds(makespan);
    s.device_seconds = s.makespan_s * double(platform.numDevices());
    for (auto *rt : runtimes) {
        const auto &st = rt->stats();
        s.rt.h2d_calls += st.h2d_calls;
        s.rt.h2d_bytes += st.h2d_bytes;
        s.rt.d2h_calls += st.d2h_calls;
        s.rt.d2h_bytes += st.d2h_bytes;
        s.rt.kernels += st.kernels;
        s.rt.cpu_encrypt_bytes += st.cpu_encrypt_bytes;
        s.rt.cpu_decrypt_bytes += st.cpu_decrypt_bytes;
        auto *pipe = dynamic_cast<core::PipeLlmRuntime *>(rt);
        if (!pipe)
            continue;
        const auto &ps = pipe->pipeStats();
        s.swap_requests += ps.swap_requests;
        s.hits += ps.hits;
        s.misses += ps.misses;
        s.stale_drops += ps.stale_drops;
        s.reordered += ps.reordered;
        s.nops += ps.nops;
        s.async_decrypts += ps.async_decrypts;
        s.decrypt_faults += ps.decrypt_faults;
        const auto &pl = pipe->pipelineStats();
        s.pre_encrypted += pl.pre_encrypted;
        s.pre_encrypted_bytes += pl.pre_encrypted_bytes;
        s.consumed += pl.consumed;
        s.rebuilds += pl.rebuilds;
        s.relinquished += pl.relinquished;
        s.shadow_hits += pipe->predictor().shadowHits();
        s.shadow_total += pipe->predictor().shadowTotal();
        if (tracer) {
            // Host cost of one prediction on the end-of-run state.
            ScopedSpan span(tracer, "Predictor::predictNext",
                            "pipellm predictor", span_parent);
            const auto &pred = pipe->predictor();
            for (int i = 0; i < 32; ++i) {
                auto t0 = SteadyClock::now();
                (void)pred.predictNext(16);
                s.predict_us.push_back(secondsSince(t0) * 1e6);
            }
        }
    }
    for (unsigned d = 0; d < platform.numDevices(); ++d) {
        auto &ctx = platform.device(d);
        auto &gpu = ctx.gpu();
        s.h2d_link_busy_s += toSeconds(gpu.h2dLink().busyTicks());
        s.d2h_link_busy_s += toSeconds(gpu.d2hLink().busyTicks());
        s.copy_crypto_busy_s +=
            toSeconds(gpu.copyEngineCryptoMut().busyTicks());
        s.compute_busy_s += toSeconds(gpu.computeEngine().busyTicks());
        s.integrity_failures += gpu.integrityFailures();
        s.staged_copy_busy_s +=
            toSeconds(ctx.h2dPath().copyEngine().busyTicks() +
                      ctx.d2hPath().copyEngine().busyTicks());
        s.pool_stalls +=
            ctx.h2dPath().pool().stalls() + ctx.d2hPath().pool().stalls();
    }
    if (const auto *bridge = platform.hostBridge()) {
        s.bridge_busy_s = toSeconds(bridge->busyTicks());
        s.bridge_bytes = double(bridge->bytesServed());
    }
    auto &engine = platform.cryptoEngine();
    s.crypto_bw_per_lane = engine.bwPerLane();
    if (const auto *pool = engine.pool()) {
        s.crypto_pool_lanes = pool->lanes();
        for (unsigned i = 0; i < pool->lanes(); ++i)
            s.crypto_pool_busy_s += toSeconds(pool->lane(i).busyTicks());
    }
    for (const auto &t : traces) {
        for (const auto &r : t->records()) {
            double us = toMicroseconds(r.complete - r.submit);
            (r.to_device ? s.h2d_sim_us : s.d2h_sim_us).push_back(us);
        }
    }
    return s;
}

/**
 * One simulation run, built during set-up and executed in the
 * simulate phase. Jobs share nothing: each owns its platform,
 * runtimes and engines.
 */
class Job
{
  public:
    Job(std::string label, std::string layer)
        : label_(std::move(label)), layer_(std::move(layer))
    {
    }
    virtual ~Job() = default;
    Job(const Job &) = delete;
    Job &operator=(const Job &) = delete;

    /** The timed call into the simulator. */
    virtual void simulate() = 0;

    /**
     * Read the finished run's public stats into the job, right after
     * simulate() and outside the timed call; sets transfers.
     */
    virtual void harvest(Tracer *tracer, std::uint64_t span) = 0;

    const std::string &label() const { return label_; }
    /** Layer the simulate() call enters (its host-seconds bucket). */
    const std::string &layer() const { return layer_; }

    /** Host CPU seconds simulate() took on this thread. */
    double host_s = 0;
    /** Wall-clock seconds simulate() took (the worker probe's clock). */
    double wall_s = 0;
    /** calibrationSeconds() right before simulate(), in timed phases
     *  of untraced passes. */
    double calib_s = 0;
    /** Simulated H2D + D2H transfers of the run, all runtimes. */
    std::uint64_t transfers = 0;
    /** The workload unit the run belongs to. */
    unsigned unit = 0;
    /** What simulate() threw, if it did; the pass then fails. */
    std::string error;

  private:
    std::string label_;
    std::string layer_;
};

/** Accumulates one pass's outputs. */
class Pass
{
  public:
    Pass(Tracer *tracer, const std::string &workload, bool setup_only,
         int unit)
        : setup_only(setup_only), unit(unit), tracer_(tracer),
          root_(tracer, workload, "workload", 0)
    {
    }

    /** Build the inputs and simulator objects, then stop. */
    const bool setup_only;
    /** The one unit this pass runs, or -1 for every unit. */
    const int unit;

    /** Whether unit @p k is part of this pass. */
    bool wants(unsigned k) const { return unit < 0 || unsigned(unit) == k; }

    Tracer *tracer() const { return tracer_; }
    std::uint64_t root() const { return root_.id(); }

    PassResult out;
    std::map<std::string, double> layers;
    std::map<std::string, double> host_s; ///< per-layer host seconds
    std::map<unsigned, UnitCost> units;   ///< timed cost per unit

    void sim(const std::string &name, double v)
    {
        out.sim.emplace_back(name, v);
    }

    /** A simulated per-layer metric: reported and fingerprinted. */
    void simLayer(const std::string &name, double v)
    {
        layers[name] = v;
        sim("layer." + name, v);
    }

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            out.check_failures.push_back(what);
    }

    /**
     * Time one set-up call into @p layer, adding it to @p bucket and
     * to setup_s; an empty @p bucket (traced-pass probes) records the
     * span only.
     */
    template <typename F>
    auto
    setup(const std::string &label, const std::string &layer,
          const std::string &bucket, F &&f)
    {
        ScopedSpan point(tracer_, label, "point", setupSpan());
        ScopedSpan call(tracer_, layer, layer, point.id());
        double t0 = threadCpuSeconds();
        auto result = f();
        double dt = threadCpuSeconds() - t0;
        if (!bucket.empty()) {
            host_s[bucket] += dt;
            out.setup_s += dt;
        }
        return result;
    }

    /**
     * The simulate phase: run every job, one after another on this
     * thread. A @p timed phase counts towards host_s, the per-layer
     * host seconds and the units' costs; probe phases of the traced
     * pass do not.
     */
    void
    simulate(const std::vector<Job *> &jobs, bool timed = true)
    {
        if (tracer_ && setup_span_) {
            tracer_->end(setup_span_);
            setup_span_ = 0;
        }
        ScopedSpan phase(tracer_, timed ? "simulate" : "simulate probes",
                         "phase", root());
        for (Job *job : jobs) {
            if (timed && !tracer_)
                job->calib_s = calibrationSeconds();
            ScopedSpan point(tracer_, job->label(), "point", phase.id());
            try {
                {
                    ScopedSpan call(tracer_, job->layer() + ".run",
                                    job->layer(), point.id());
                    auto w0 = SteadyClock::now();
                    double t0 = threadCpuSeconds();
                    job->simulate();
                    job->host_s = threadCpuSeconds() - t0;
                    job->wall_s = secondsSince(w0);
                }
                job->harvest(tracer_, point.id());
            } catch (const std::exception &e) {
                job->error = e.what();
            }
            check(job->error.empty(), job->label() + ": " + job->error);
            if (!timed)
                continue;
            out.host_s += job->host_s;
            host_s[job->layer() + ".run_s"] += job->host_s;
            UnitCost &u = units[job->unit];
            u.host_s += job->host_s;
            u.transfers += double(job->transfers);
            if (job->calib_s > 0)
                out.calib_s.push_back(job->calib_s);
        }
    }

  private:
    std::uint64_t
    setupSpan()
    {
        if (tracer_ && !setup_span_)
            setup_span_ = tracer_->begin("set-up", "phase", root());
        return setup_span_;
    }

    Tracer *tracer_;
    ScopedSpan root_;
    std::uint64_t setup_span_ = 0;
};

/** Percentiles of @p samples under the >= 10-beyond rule. */
void
percentiles(Pass &p, const std::string &name,
            const std::vector<double> &samples)
{
    p.layers[name + ".p50"] = reportedQuantile(samples, 0.5);
    p.layers[name + ".p90"] = reportedQuantile(samples, 0.9);
}

/** Emit the per-layer metrics of the workload's headline runs. */
void
emitLayers(Pass &p, const LayerStats &s)
{
    p.simLayer("runtime.h2d_calls", double(s.rt.h2d_calls));
    p.simLayer("runtime.h2d_gb", gb(double(s.rt.h2d_bytes)));
    p.simLayer("runtime.d2h_calls", double(s.rt.d2h_calls));
    p.simLayer("runtime.d2h_gb", gb(double(s.rt.d2h_bytes)));
    p.simLayer("runtime.cpu_encrypt_gb",
               gb(double(s.rt.cpu_encrypt_bytes)));
    p.simLayer("runtime.cpu_decrypt_gb",
               gb(double(s.rt.cpu_decrypt_bytes)));
    p.simLayer("staged.copy_busy_s", s.staged_copy_busy_s);
    p.simLayer("staged.pool_stalls", double(s.pool_stalls));
    p.simLayer("pipellm.hit_ratio",
               ratio(double(s.hits), double(s.swap_requests)));
    p.simLayer("pipellm.swap_requests", double(s.swap_requests));
    p.simLayer("pipellm.misses", double(s.misses));
    p.simLayer("pipellm.stale_drops", double(s.stale_drops));
    p.simLayer("pipellm.reordered", double(s.reordered));
    p.simLayer("pipellm.nops", double(s.nops));
    p.simLayer("pipellm.async_decrypts", double(s.async_decrypts));
    p.simLayer("pipellm.decrypt_faults", double(s.decrypt_faults));
    p.simLayer("pipeline.useful_ratio",
               ratio(double(s.consumed), double(s.pre_encrypted)));
    p.simLayer("pipeline.pre_encrypted", double(s.pre_encrypted));
    p.simLayer("pipeline.rebuilds", double(s.rebuilds));
    p.simLayer("pipeline.relinquished", double(s.relinquished));
    p.simLayer("predictor.shadow_hit_ratio",
               ratio(double(s.shadow_hits), double(s.shadow_total)));
    p.simLayer("predictor.shadow_total", double(s.shadow_total));
    // CPU crypto seconds charged: every byte sealed or opened on the
    // CPU at the calibrated per-lane rate. On a shared pool the
    // utilization is the pool's exact busy share; on private lanes
    // it is crypto-seconds per replica-second.
    double crypto_bytes = double(s.rt.cpu_encrypt_bytes +
                                 s.rt.cpu_decrypt_bytes +
                                 s.pre_encrypted_bytes);
    double lane_busy = ratio(crypto_bytes, s.crypto_bw_per_lane);
    p.simLayer("crypto.lane_busy_s", lane_busy);
    p.simLayer("crypto.lane_util",
               s.crypto_pool_lanes
                   ? ratio(s.crypto_pool_busy_s,
                           s.makespan_s * s.crypto_pool_lanes)
                   : ratio(lane_busy, s.device_seconds));
    p.simLayer("gpu.h2d_link_util",
               ratio(s.h2d_link_busy_s, s.device_seconds));
    p.simLayer("gpu.d2h_link_util",
               ratio(s.d2h_link_busy_s, s.device_seconds));
    p.simLayer("gpu.copy_crypto_util",
               ratio(s.copy_crypto_busy_s, s.device_seconds));
    p.simLayer("gpu.compute_util",
               ratio(s.compute_busy_s, s.device_seconds));
    p.simLayer("gpu.integrity_failures", double(s.integrity_failures));
    p.simLayer("host.bridge_util", ratio(s.bridge_busy_s, s.makespan_s));
    p.simLayer("host.bridge_gb", gb(s.bridge_bytes));
    if (p.tracer()) {
        percentiles(p, "runtime.h2d_sim_us", s.h2d_sim_us);
        percentiles(p, "runtime.d2h_sim_us", s.d2h_sim_us);
        p.layers["predictor.predict_us"] = median(s.predict_us);
    }
}

/** Fold a trace into an input fingerprint. */
std::uint64_t
hashTrace(std::uint64_t h, const trace::Trace &t)
{
    for (const auto &r : t) {
        std::uint64_t f[4] = {r.id, r.arrival, r.prompt_len, r.output_len};
        h = fnv1a(h, f, sizeof(f));
    }
    return h;
}

// ---------------------------------------------------------------
// Cluster serving (kvswap, faults, shared_host)
// ---------------------------------------------------------------

/** Serving spec shared by the cluster workloads (OPT-30B, ShareGPT
 *  clipped at 1024, parallel sampling 6: the cluster_scale scenario). */
scenario::ScenarioSpec
clusterSpec(const std::string &name, scenario::ScenarioKind kind,
            unsigned devices, double rate_per_device,
            std::size_t requests_per_device, std::uint64_t trace_seed)
{
    scenario::ScenarioSpec spec;
    spec.name = name;
    spec.kind = kind;
    spec.csv = name + ".csv";
    spec.cluster.devices = {devices};
    spec.cluster.modes = {SystemMode::Plain, SystemMode::Cc,
                          SystemMode::Pipe};
    spec.device.spec = "h100";
    spec.device.channel_sample_limit = 512;
    spec.engine.model = "opt30b";
    spec.engine.parallel_sampling = 6;
    spec.pipe.kind = scenario::PipeSpec::Kind::Kv;
    spec.trace.dataset = "sharegpt";
    spec.trace.max_len = 1024;
    spec.trace.seed = trace_seed;
    spec.trace.rate_per_device = rate_per_device;
    spec.trace.requests_per_device = requests_per_device;
    return spec;
}

scenario::HostVariantSpec
sharedHost()
{
    scenario::HostVariantSpec host;
    host.name = "shared";
    host.shared_crypto_lanes = 2;
    host.bridge_gbps = 160;
    host.pipe_max_lane_lead_ms = 10;
    return host;
}

/** The committed faults.scenario plan (scale-1 rates). */
void
setFaultPlan(scenario::ScenarioSpec &spec, std::uint64_t fault_seed)
{
    auto &f = spec.faults;
    f.seed = fault_seed;
    f.tag_corruption_rate = 0.02;
    f.copy_stall_rate = 0.01;
    f.lane_fault_rate = 0.01;
    f.replica_crash_rate = 0.02;
    f.replica_restart_rate = 0.1;
    f.scales = {0, kFaultScale};
    f.dip_window_s = 2;
    f.dip_recover_frac = 0.5;
}

/** One sub-trace of a cluster workload: its spec, builder, trace. */
struct SubTrace
{
    std::unique_ptr<scenario::ScenarioSpec> spec;
    std::unique_ptr<scenario::ScenarioBuilder> builder;
    trace::Trace requests;
};

/** Sub-trace @p k of a cluster workload at @p rate per device. */
scenario::ScenarioSpec
subTraceSpec(const std::string &workload, std::uint64_t seed, unsigned k,
             double rate)
{
    if (workload == "faults") {
        auto spec = clusterSpec("faults", scenario::ScenarioKind::FaultSweep,
                                kFaultReplicas, rate,
                                kFaultRequestsPerDevice,
                                subSeed(seed, 300 + k));
        spec.cluster.modes = {SystemMode::Cc, SystemMode::Pipe};
        setFaultPlan(spec, subSeed(seed, 400 + k));
        return spec;
    }
    if (workload == "shared_host") {
        auto spec = clusterSpec("shared_host",
                                scenario::ScenarioKind::ClusterScale,
                                kSharedReplicas, rate,
                                kSharedRequestsPerDevice,
                                subSeed(seed, 500 + k));
        spec.hosts = {sharedHost()};
        return spec;
    }
    return clusterSpec("kvswap", scenario::ScenarioKind::ClusterScale,
                       kKvReplicas, rate, kKvRequestsPerDevice,
                       subSeed(seed, 100 + k));
}

SubTrace
makeSubTrace(Pass &p, const std::string &workload, std::uint64_t seed,
             unsigned k, double rate, bool timed = true)
{
    SubTrace s;
    s.spec = std::make_unique<scenario::ScenarioSpec>(
        subTraceSpec(workload, seed, k, rate));
    s.builder = std::make_unique<scenario::ScenarioBuilder>(*s.spec);
    unsigned n = s.spec->cluster.devices.front();
    s.requests = p.setup(workload + "/trace" + std::to_string(k), "trace",
                         timed ? "trace.generate_s" : "", [&] {
                             return s.builder->poissonTrace(
                                 s.spec->trace.requests_per_device * n, n);
                         });
    return s;
}

/** One cluster run: router + platform built in set-up. */
class ClusterJob : public Job
{
  public:
    /**
     * Armed runs time into the fault layer's bucket, fault-free ones
     * into the cluster's. @p threads is ClusterConfig::threads: 1 runs
     * the sharded co-simulation inline on the benchmark's one thread.
     */
    ClusterJob(Pass &p, const SubTrace &sub, SystemMode mode,
               const scenario::HostVariantSpec &host, double fault_scale,
               std::string label, bool timed = true, unsigned threads = 1)
        : Job(std::move(label),
              fault_scale <= 0           ? "cluster"
              : mode == SystemMode::Pipe ? "fault.pipe"
                                         : "fault.cc"),
          mode(mode), armed(fault_scale > 0), requests(sub.requests)
    {
        unsigned n = sub.spec->cluster.devices.front();
        built = p.setup(this->label(), "scenario",
                        timed ? "scenario.build_s" : "", [&] {
            return sub.builder->build(mode, n, host, fault_scale, threads);
        });
        if (p.tracer() && timed) {
            for (unsigned d = 0; d < n; ++d) {
                traces.push_back(std::make_unique<runtime::TransferTrace>(
                    kTransferTraceCap));
                built.router->runtime(d).attachTrace(traces.back().get());
            }
        }
    }

    void simulate() override { result = built.router->run(requests); }

    void
    harvest(Tracer *tracer, std::uint64_t span) override
    {
        std::vector<runtime::RuntimeApi *> rts;
        for (unsigned d = 0; d < built.router->numReplicas(); ++d)
            rts.push_back(&built.router->runtime(d));
        stats = collect(*built.platform, rts, result.makespan, traces,
                        tracer, span);
        transfers = stats.rt.h2d_calls + stats.rt.d2h_calls;
        for (const auto &rep : result.replicas)
            for (double v : rep.result.latency_samples.samples())
                latency_ms.push_back(v * 1e3);
        for (const auto &c : result.completions)
            completion_ticks.push_back(c.at);
    }

    /** Record the run's simulated values and check its outputs. */
    void
    record(Pass &p)
    {
        const auto &r = result;
        const std::string k = label() + ".";
        p.sim(k + "tokens_per_sec", r.tokens_per_sec);
        p.sim(k + "goodput_tokens_per_sec", r.goodput_tokens_per_sec);
        p.sim(k + "normalized_latency", r.normalized_latency);
        p.sim(k + "p90_normalized_latency", r.p90_normalized_latency);
        p.sim(k + "completed", double(r.completed));
        p.sim(k + "preemptions", double(r.preemptions));
        p.sim(k + "makespan", double(r.makespan));
        p.sim(k + "dropped", double(r.dropped));
        p.sim(k + "shed", double(r.shed_requests));
        p.sim(k + "engine_steps", double(r.engine_steps));
        p.sim(k + "tag_faults", double(r.faults.tag_faults));
        p.sim(k + "tag_retries", double(r.faults.tag_retries));
        p.sim(k + "copy_retries", double(r.faults.copy_retries));
        p.sim(k + "replica_crashes", double(r.faults.replica_crashes));
        p.sim(k + "replica_restarts", double(r.faults.replica_restarts));
        p.sim(k + "requeued", double(r.faults.requeued_requests));
        p.sim(k + "h2d_calls", double(stats.rt.h2d_calls));
        p.sim(k + "d2h_calls", double(stats.rt.d2h_calls));
        p.sim(k + "h2d_bytes", double(stats.rt.h2d_bytes));
        p.sim(k + "cpu_crypto_bytes",
              double(stats.rt.cpu_encrypt_bytes +
                     stats.rt.cpu_decrypt_bytes));
        p.sim(k + "pipe_hits", double(stats.hits));
        p.sim(k + "pre_encrypted", double(stats.pre_encrypted));

        // Armed runs count injected corruption as integrity failures;
        // only a fault-free run must have none.
        std::uint64_t offered = requests.size();
        p.check(armed || stats.integrity_failures == 0,
                label() + ": GPU integrity failures on a fault-free run");
        if (armed) {
            p.check(r.completed + r.shed_requests + r.dropped == offered,
                    label() + ": completed + shed + dropped != offered");
        } else {
            p.check(r.completed == offered,
                    label() + ": completed != offered on a fault-free run");
        }
        p.out.attempted += offered;
        p.out.failed += offered - std::min(offered, r.completed);
    }

    SystemMode mode;
    bool armed;
    const trace::Trace &requests;
    scenario::BuiltCluster built;
    std::vector<std::unique_ptr<runtime::TransferTrace>> traces;
    serving::ClusterResult result;
    LayerStats stats;
    /** Every replica's per-request normalized latency, ms/token. */
    std::vector<double> latency_ms;
    std::vector<std::uint64_t> completion_ticks;
};

using ClusterJobs = std::vector<std::unique_ptr<ClusterJob>>;

/** Pooled view of one system's runs over several sub-traces. */
struct Pooled
{
    std::vector<double> latency_ms;
    double tokens = 0;
    double makespan_s = 0;
    std::uint64_t offered = 0, completed = 0, preemptions = 0;
    double swap_bytes = 0;
    LayerStats stats;

    void
    add(const ClusterJob &j)
    {
        latency_ms.insert(latency_ms.end(), j.latency_ms.begin(),
                          j.latency_ms.end());
        makespan_s += toSeconds(j.result.makespan);
        offered += j.requests.size();
        completed += j.result.completed;
        preemptions += j.result.preemptions;
        for (const auto &c : j.result.completions)
            tokens += double(c.tokens);
        for (const auto &rep : j.result.replicas)
            swap_bytes += double(rep.result.swap_in_bytes +
                                 rep.result.swap_out_bytes);
        stats.add(j.stats);
    }

    /** Completed tokens over the sub-traces' summed makespans. */
    double goodput() const { return ratio(tokens, makespan_s); }

    /** Mean normalized latency over every pooled request (ms). */
    double
    meanLatency() const
    {
        double sum = 0;
        for (double v : latency_ms)
            sum += v;
        return ratio(sum, double(latency_ms.size()));
    }
};

Pooled
pool(const ClusterJobs &jobs, SystemMode mode, bool armed)
{
    Pooled out;
    for (const auto &j : jobs)
        if (j->mode == mode && j->armed == armed)
            out.add(*j);
    return out;
}

/**
 * Traced probe of one replica's scheduler: drive a single-device
 * PipeLLM engine through beginRun/submit/stepOnce/finish on the
 * requests round-robin routing gives replica 0, timing every step.
 */
std::vector<double>
driveOneReplica(const SubTrace &sub, const scenario::HostVariantSpec &host)
{
    const auto &b = *sub.builder;
    unsigned replicas = sub.spec->cluster.devices.front();
    runtime::Platform platform(b.systemSpec(), b.channelConfig(), 1,
                               b.hostResources(host));
    auto rt = scenario::makeRuntime(SystemMode::Pipe, platform,
                                    b.pipeConfig(host), 0);
    serving::VllmEngine engine(*rt, b.clusterConfig(1).engine);
    std::vector<double> step_us;
    auto step = [&] {
        auto t0 = SteadyClock::now();
        engine.stepOnce();
        step_us.push_back(secondsSince(t0) * 1e6);
    };
    engine.beginRun();
    for (std::size_t i = 0; i < sub.requests.size(); i += replicas) {
        const auto &req = sub.requests[i];
        while (engine.hasWork() && engine.clock() < req.arrival)
            step();
        engine.advanceTo(req.arrival);
        engine.submit(req);
    }
    while (engine.hasWork())
        step();
    engine.finish();
    return step_us;
}

/** Host-timed probes of single layer calls (traced pass only). */
void
probeLayers(Pass &p, const llm::ModelConfig &model,
            std::uint64_t kv_block_bytes)
{
    ScopedSpan phase(p.tracer(), "layer probes", "phase", p.root());

    // crypto: AES-GCM seal/open at the channel's sample size and 4 KiB.
    {
        ScopedSpan s(p.tracer(), "AesGcm::seal/open", "crypto", phase.id());
        std::uint8_t key[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                                9, 10, 11, 12, 13, 14, 15, 16};
        crypto::AesGcm gcm(key, sizeof(key));
        crypto::GcmIv iv{};
        for (std::size_t len : {std::size_t(512), std::size_t(4096)}) {
            std::vector<std::uint8_t> pt(len, 0x5a), ct(len), back(len);
            crypto::GcmTag tag{};
            const int reps = len == 512 ? 4000 : 800;
            auto t0 = SteadyClock::now();
            for (int i = 0; i < reps; ++i) {
                iv[0] = std::uint8_t(i);
                gcm.seal(iv, nullptr, 0, pt.data(), len, ct.data(), tag);
            }
            double seal_gbps = double(len) * reps / secondsSince(t0) / 1e9;
            bool ok = true;
            t0 = SteadyClock::now();
            for (int i = 0; i < reps; ++i)
                ok &= gcm.open(iv, nullptr, 0, ct.data(), len, tag,
                               back.data());
            double open_gbps = double(len) * reps / secondsSince(t0) / 1e9;
            p.check(ok && back == pt, "AES-GCM open of its own seal");
            std::string sfx = len == 512 ? "" : "_4k";
            p.layers["crypto.seal" + sfx + "_gbps"] = seal_gbps;
            p.layers["crypto.open" + sfx + "_gbps"] = open_gbps;
        }
    }

    // mem: protect + unprotect one KV block's page range.
    {
        ScopedSpan s(p.tracer(), "PageProtection::protect+unprotect",
                     "mem", phase.id());
        mem::PageProtection prot;
        std::vector<double> us;
        for (int i = 0; i < 64; ++i) {
            Addr base = Addr(i % 8) * kv_block_bytes;
            auto t0 = SteadyClock::now();
            prot.protect(base, kv_block_bytes, mem::Protection::NoAccess,
                         [](Addr, bool) { return Tick(0); });
            prot.unprotect(base, kv_block_bytes);
            us.push_back(secondsSince(t0) * 1e6);
        }
        p.layers["mem.protect_us"] = median(us);
    }

    // staged path: one layer-sized transfer.
    {
        ScopedSpan s(p.tracer(), "StagedCopyPath::transfer",
                     "runtime staged path", phase.id());
        runtime::Platform platform(gpu::SystemSpec::h100());
        auto &path = platform.device(0).h2dPath();
        std::vector<double> us;
        Tick at = 0;
        for (int i = 0; i < 16; ++i) {
            auto t0 = SteadyClock::now();
            at = path.transfer(at, model.layerParamBytes());
            us.push_back(secondsSince(t0) * 1e6);
        }
        p.layers["staged.transfer_us"] = median(us);
    }
}

/** Serving-quality per-layer metrics of the pooled PipeLLM runs. */
void
emitServing(Pass &p, const Pooled &pipe)
{
    const auto &lat = pipe.latency_ms;
    p.simLayer("norm_latency_p50_ms", reportedQuantile(lat, 0.5));
    p.simLayer("norm_latency_p90_ms", reportedQuantile(lat, 0.9));
    p.simLayer("latency_samples", double(lat.size()));
    p.simLayer("vllm.preemptions", double(pipe.preemptions));
    p.simLayer("vllm.swap_gb", gb(pipe.swap_bytes));
    p.simLayer("vllm.makespan_s", pipe.makespan_s);
}

/**
 * Build sub-trace k of a serving workload, for every unit k the pass
 * runs, and one job per run on it; the jobs belong to unit k.
 * Untimed jobs (the traced pass's CC references) count towards no
 * host metric.
 */
void
addSubTraceJobs(Pass &p, const std::string &workload, std::uint64_t seed,
                unsigned subtraces, double rate,
                const scenario::HostVariantSpec &host,
                const std::vector<std::pair<SystemMode, double>> &runs,
                std::vector<std::unique_ptr<SubTrace>> &subs,
                ClusterJobs &jobs, bool timed = true)
{
    for (unsigned k = 0; k < subtraces; ++k) {
        if (!p.wants(k))
            continue;
        subs.push_back(std::make_unique<SubTrace>(
            makeSubTrace(p, workload, seed, k, rate, timed)));
        for (const auto &[mode, scale] : runs) {
            std::string label = workload + "/s" + std::to_string(k) + "/" +
                                scenario::keyOf(mode) +
                                (scale > 0 ? "/armed" : "");
            jobs.push_back(std::make_unique<ClusterJob>(
                p, *subs.back(), mode, host, scale, label, timed));
            jobs.back()->unit = k;
        }
    }
}

/**
 * Simulate every job, read the results, and emit what every serving
 * workload reports; the PipeLLM runs (armed when @p armed) are the
 * headline.
 */
Pooled
finishServing(Pass &p, const ClusterJobs &jobs, bool armed,
              const SubTrace &probe_sub,
              const scenario::HostVariantSpec &host)
{
    std::vector<Job *> raw;
    for (const auto &j : jobs)
        raw.push_back(j.get());
    p.simulate(raw);
    {
        ScopedSpan span(p.tracer(), "collect", "phase", p.root());
        for (const auto &j : jobs)
            j->record(p);
    }

    Pooled pipe = pool(jobs, SystemMode::Pipe, armed);
    // cluster.run_s times the fault-free runs only; so do its steps.
    std::uint64_t steps = 0, sharded = 0;
    for (const auto &j : jobs) {
        steps += j->armed ? 0 : j->result.engine_steps;
        sharded += j->result.sharded ? 1 : 0;
    }
    p.simLayer("cluster.engine_steps", double(steps));
    p.simLayer("cluster.sharded_runs", double(sharded));
    p.layers["cluster.steps_per_host_s"] =
        ratio(double(steps), p.host_s["cluster.run_s"]);
    emitServing(p, pipe);
    emitLayers(p, pipe.stats);
    if (p.tracer()) {
        {
            ScopedSpan s(p.tracer(), "VllmEngine::stepOnce drive",
                         "serving vllm", p.root());
            percentiles(p, "vllm.step_host_us",
                        driveOneReplica(probe_sub, host));
        }
        auto model = llm::ModelConfig::opt30b();
        probeLayers(p, model, 16 * model.kvBytesPerToken());
    }
    return pipe;
}

/**
 * max_rate_at_slo: PipeLLM on one sub-trace per rung of the ladder.
 * It is a per-layer number, so only the traced pass runs it, outside
 * the timed simulation.
 */
double
sloLadder(Pass &p, std::uint64_t seed, const scenario::HostVariantSpec &host)
{
    std::vector<std::unique_ptr<SubTrace>> subs;
    ClusterJobs jobs;
    std::vector<Job *> raw;
    for (double rate : kKvLadder) {
        subs.push_back(std::make_unique<SubTrace>(
            makeSubTrace(p, "kvswap", seed, 0, rate, false)));
        jobs.push_back(std::make_unique<ClusterJob>(
            p, *subs.back(), SystemMode::Pipe, host, 0,
            "kvswap/rung" + std::to_string(rate).substr(0, 3) + "/Pipe",
            false));
        raw.push_back(jobs.back().get());
    }
    p.simulate(raw, false);
    std::vector<Rung> ladder;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ClusterJob &j = *jobs[i];
        std::vector<std::uint64_t> arrivals;
        for (const auto &r : j.requests)
            arrivals.push_back(r.arrival);
        Rung r;
        r.rate_per_device = kKvLadder[i];
        r.p90_supported = percentileSupported(j.latency_ms.size(), 0.9);
        r.p90_ms = quantile(j.latency_ms, 0.9);
        r.drained = drainsWithoutGrowingBacklog(arrivals, j.completion_ticks,
                                                kKvReplicas);
        char note[128];
        std::snprintf(note, sizeof(note),
                      "slo ladder rate %.1f req/s/dev: p90 %.2f ms%s, %s",
                      r.rate_per_device, r.p90_ms,
                      r.p90_supported ? "" : " (unsupported)",
                      r.drained ? "drains" : "backlog grows");
        p.out.notes.push_back(note);
        p.check(j.result.completed == j.requests.size(),
                j.label() + ": completed != offered on a fault-free run");
        ladder.push_back(r);
    }
    return maxRateAtSlo(ladder, kKvSloP90Ms);
}

/** Summed fault reports of the armed runs of @p mode in @p jobs. */
fault::FaultReport
armedFaults(const ClusterJobs &jobs, SystemMode mode)
{
    fault::FaultReport f;
    for (const auto &j : jobs) {
        if (!j->armed || j->mode != mode)
            continue;
        const auto &src = j->result.faults;
        f.tag_faults += src.tag_faults;
        f.tag_retries += src.tag_retries;
        f.copy_retries += src.copy_retries;
        f.degraded_entries += src.degraded_entries;
        f.retry_latency += src.retry_latency;
        f.replica_crashes += src.replica_crashes;
        f.replica_restarts += src.replica_restarts;
        f.requeued_requests += src.requeued_requests;
    }
    return f;
}

/**
 * The fault layer's PipeLLM metrics: its armed runs in @p jobs against
 * their disarmed twins. @p set records each value, as a simulated
 * per-layer metric or as a traced-pass-only one.
 */
template <typename Set>
void
emitPipeFaults(const ClusterJobs &jobs, Set set)
{
    auto f = armedFaults(jobs, SystemMode::Pipe);
    auto armed = pool(jobs, SystemMode::Pipe, true);
    auto twin = pool(jobs, SystemMode::Pipe, false);
    set("fault.tag_faults", double(f.tag_faults));
    set("fault.tag_retries", double(f.tag_retries));
    set("fault.copy_retries", double(f.copy_retries));
    set("fault.degraded_entries", double(f.degraded_entries));
    set("fault.retry_latency_s", toSeconds(f.retry_latency));
    set("fault.replica_crashes", double(f.replica_crashes));
    set("fault.replica_restarts", double(f.replica_restarts));
    set("fault.requeued", double(f.requeued_requests));
    set("fault.h2d_amplification",
        ratio(double(armed.stats.rt.h2d_calls),
              double(twin.stats.rt.h2d_calls)));
    set("fault.disarmed_h2d_calls", double(twin.stats.rt.h2d_calls));
}

/**
 * Traced probe of kvswap: PipeLLM armed and disarmed on sub-trace 0
 * of the faults plan, outside the timed simulation because the armed
 * run's host time is bimodal (ROADMAP item 1).
 */
void
pipeFaultProbe(Pass &p, std::uint64_t seed,
               const scenario::HostVariantSpec &host)
{
    auto sub = std::make_unique<SubTrace>(
        makeSubTrace(p, "faults", seed, 0, kFaultRate, false));
    ClusterJobs jobs;
    for (double scale : {kFaultScale, 0.0})
        jobs.push_back(std::make_unique<ClusterJob>(
            p, *sub, SystemMode::Pipe, host, scale,
            std::string("faults/s0/Pipe") + (scale > 0 ? "/armed" : ""),
            false));
    p.simulate({jobs[0].get(), jobs[1].get()}, false);
    const auto &armed = jobs[0]->result;
    p.check(armed.completed + armed.shed_requests + armed.dropped ==
                jobs[0]->requests.size(),
            jobs[0]->label() + ": completed + shed + dropped != offered");
    p.check(jobs[1]->result.completed == jobs[1]->requests.size(),
            jobs[1]->label() + ": completed != offered on a fault-free run");
    emitPipeFaults(jobs, [&](const std::string &name, double v) {
        p.layers[name] = v;
    });
    p.layers["fault.pipe.run_s"] = jobs[0]->host_s;
}

/**
 * Traced probe of the sharded co-simulation: PipeLLM on sub-trace 0
 * run alone with one worker, then with min(cores, kMaxWorkers); both
 * must give the same result. Timed by the wall clock, since the
 * workers are other threads.
 */
void
workersProbe(Pass &p, const SubTrace &sub,
             const scenario::HostVariantSpec &host)
{
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned workers = std::min(hw, kMaxWorkers);
    std::vector<std::unique_ptr<ClusterJob>> jobs;
    for (unsigned threads : {1u, workers}) {
        jobs.push_back(std::make_unique<ClusterJob>(
            p, sub, SystemMode::Pipe, host, 0,
            "kvswap/s0/Pipe/threads" + std::to_string(threads), false,
            threads));
        p.simulate({jobs.back().get()}, false);
    }
    const auto &a = jobs[0]->result, &b = jobs[1]->result;
    p.check(a.completed == b.completed && a.makespan == b.makespan &&
                a.engine_steps == b.engine_steps &&
                a.tokens_per_sec == b.tokens_per_sec,
            "kvswap/s0/Pipe: the result depends on the worker count");
    p.layers["cluster.workers_speedup"] =
        ratio(jobs[0]->wall_s, jobs[1]->wall_s);
    p.out.notes.push_back("cluster workers: 1 vs " +
                          std::to_string(workers) + " on kvswap/s0/Pipe");
}

/**
 * The traced pass's fault-free CC runs on the serving sub-traces:
 * cc_overhead_pct against the pooled no-CC runs. They are untimed,
 * so CC's host time moves no host metric.
 */
void
ccReference(Pass &p, const ClusterJobs &cc, const Pooled &plain)
{
    std::vector<Job *> raw;
    for (const auto &j : cc)
        raw.push_back(j.get());
    p.simulate(raw, false);
    for (const auto &j : cc)
        j->record(p);
    p.simLayer("cc_overhead_pct",
               latencyOverheadPct(pool(cc, SystemMode::Cc, false)
                                      .meanLatency(),
                                  plain.meanLatency()));
}

void
runKvswap(Pass &p, std::uint64_t seed)
{
    const scenario::HostVariantSpec host; // private
    std::vector<std::unique_ptr<SubTrace>> subs;
    ClusterJobs jobs, cc;
    addSubTraceJobs(p, "kvswap", seed, kKvSubTraces, kKvReferenceRate, host,
                    {{SystemMode::Pipe, 0}, {SystemMode::Plain, 0}}, subs,
                    jobs);
    // The fault layer in a form whose host time is steady: CC armed,
    // on as many faults sub-traces as kvswap has, so every unit holds
    // the same runs.
    addSubTraceJobs(p, "faults", seed, kKvSubTraces, kFaultRate, host,
                    {{SystemMode::Cc, kFaultScale}}, subs, jobs);
    if (p.tracer())
        addSubTraceJobs(p, "kvswap", seed, kKvSubTraces, kKvReferenceRate,
                        host, {{SystemMode::Cc, 0}}, subs, cc, false);
    if (p.setup_only)
        return;
    auto pipe = finishServing(p, jobs, false, *subs.front(), host);
    auto plain = pool(jobs, SystemMode::Plain, false);
    p.out.end_to_end = {
        {"goodput_tok_s", pipe.goodput()},
        {"overhead_pct",
         latencyOverheadPct(pipe.meanLatency(), plain.meanLatency())},
    };
    if (p.tracer())
        ccReference(p, cc, plain);
    p.simLayer("fault.cc_tag_retries",
               double(armedFaults(jobs, SystemMode::Cc).tag_retries));
    auto cc_armed = pool(jobs, SystemMode::Cc, true);
    p.simLayer("failed_frac",
               ratio(double(cc_armed.offered - cc_armed.completed),
                     double(cc_armed.offered)));
    if (p.tracer()) {
        p.layers["max_rate_at_slo"] = sloLadder(p, seed, host);
        workersProbe(p, *subs.front(), host);
        pipeFaultProbe(p, seed, host);
    }
}

void
runSharedHost(Pass &p, std::uint64_t seed)
{
    const auto host = sharedHost();
    std::vector<std::unique_ptr<SubTrace>> subs;
    ClusterJobs jobs, cc;
    addSubTraceJobs(p, "shared_host", seed, kSharedSubTraces, kSharedRate,
                    host, {{SystemMode::Pipe, 0}, {SystemMode::Plain, 0}},
                    subs, jobs);
    if (p.tracer())
        addSubTraceJobs(p, "shared_host", seed, kSharedSubTraces,
                        kSharedRate, host, {{SystemMode::Cc, 0}}, subs, cc,
                        false);
    if (p.setup_only)
        return;
    auto pipe = finishServing(p, jobs, false, *subs.front(), host);
    auto plain = pool(jobs, SystemMode::Plain, false);
    p.out.end_to_end = {
        {"goodput_tok_s", pipe.goodput()},
        {"overhead_pct",
         latencyOverheadPct(pipe.meanLatency(), plain.meanLatency())},
    };
    if (p.tracer())
        ccReference(p, cc, plain);
}

void
runFaults(Pass &p, std::uint64_t seed)
{
    const scenario::HostVariantSpec host; // private
    std::vector<std::unique_ptr<SubTrace>> subs;
    ClusterJobs jobs;
    addSubTraceJobs(p, "faults", seed, kFaultSubTraces, kFaultRate, host,
                    {{SystemMode::Pipe, kFaultScale},
                     {SystemMode::Cc, kFaultScale},
                     {SystemMode::Pipe, 0}},
                    subs, jobs);
    if (p.setup_only)
        return;
    auto pipe = finishServing(p, jobs, true, *subs.front(), host);
    auto twin = pool(jobs, SystemMode::Pipe, false);
    // The fault workload's overhead is PipeLLM's latency cost of the
    // armed plan against its own disarmed twin on the same traces.
    p.out.end_to_end = {
        {"goodput_tok_s", pipe.goodput()},
        {"overhead_pct",
         latencyOverheadPct(pipe.meanLatency(), twin.meanLatency())},
    };
    emitPipeFaults(jobs, [&](const std::string &name, double v) {
        p.simLayer(name, v);
    });
    p.simLayer("fault.cc_tag_retries",
               double(armedFaults(jobs, SystemMode::Cc).tag_retries));
    p.simLayer("failed_frac", ratio(double(pipe.offered - pipe.completed),
                                    double(pipe.offered)));
}

// ---------------------------------------------------------------
// Model offloading (offload)
// ---------------------------------------------------------------

trace::Trace
peftTrace(std::uint64_t seed)
{
    trace::TraceGenerator gen(trace::DatasetProfile::ultrachat(),
                              subSeed(seed, 2));
    return gen.closedLoop(kPeftSequences);
}

/** One FlexGen or PEFT run on its own single-GPU platform. */
template <typename Engine, typename Config, typename Result>
class OffloadJob : public Job
{
  public:
    OffloadJob(Pass &p, SystemMode mode, const llm::ModelConfig &model,
               const Config &cfg, const std::string &layer,
               const std::string &label, const trace::Trace *data)
        : Job(label, layer), data_(data)
    {
        p.setup(label, "scenario", "scenario.build_s", [&] {
            crypto::ChannelConfig channel;
            channel.sample_limit = 512;
            platform = std::make_unique<runtime::Platform>(
                gpu::SystemSpec::h100(), channel);
            rt = scenario::makeRuntime(mode, *platform,
                                       scenario::offloadPipeConfig(model));
            engine = std::make_unique<Engine>(*rt, cfg);
            return 0;
        });
        if (p.tracer()) {
            traces.push_back(std::make_unique<runtime::TransferTrace>(
                kTransferTraceCap));
            rt->attachTrace(traces.back().get());
        }
    }

    void
    simulate() override
    {
        if constexpr (std::is_same_v<Engine, serving::PeftEngine>)
            result = engine->run(*data_);
        else
            result = engine->run();
    }

    void
    harvest(Tracer *tracer, std::uint64_t span) override
    {
        stats = collect(*platform, {rt.get()}, result.total_time, traces,
                        tracer, span);
        transfers = stats.rt.h2d_calls + stats.rt.d2h_calls;
    }

    /** Record the run's simulated values and check its outputs. */
    void
    record(Pass &p)
    {
        p.check(stats.integrity_failures == 0,
                label() + ": GPU integrity failures");
        p.check(result.tokens_per_sec > 0, label() + ": no tokens");
        const std::string k = label() + ".";
        p.sim(k + "tokens_per_sec", result.tokens_per_sec);
        p.sim(k + "total_time", double(result.total_time));
        p.sim(k + "offloaded_layers", double(result.offloaded_layers));
        p.sim(k + "h2d_calls", double(stats.rt.h2d_calls));
        p.sim(k + "d2h_calls", double(stats.rt.d2h_calls));
        p.sim(k + "h2d_bytes", double(stats.rt.h2d_bytes));
        p.sim(k + "pipe_hits", double(stats.hits));
        p.sim(k + "pre_encrypted", double(stats.pre_encrypted));
    }

    std::unique_ptr<runtime::Platform> platform;
    std::unique_ptr<runtime::RuntimeApi> rt;
    std::unique_ptr<Engine> engine;
    std::vector<std::unique_ptr<runtime::TransferTrace>> traces;
    Result result;
    LayerStats stats;

  private:
    const trace::Trace *data_;
};

using FlexGenJob = OffloadJob<serving::FlexGenEngine, serving::FlexGenConfig,
                              serving::FlexGenResult>;
using PeftJob =
    OffloadJob<serving::PeftEngine, serving::PeftConfig, serving::PeftResult>;

void
runOffload(Pass &p, std::uint64_t seed)
{
    const auto fg_model = llm::ModelConfig::opt66b();
    const auto peft_model = llm::ModelConfig::opt30b();

    serving::FlexGenConfig fg;
    fg.model = fg_model;
    fg.batch = kFlexGenBatch;
    fg.input_len = 32;
    fg.output_len = 128;
    fg.num_requests = kFlexGenRequests;

    serving::PeftConfig pc;
    pc.model = peft_model;
    pc.batch = kPeftBatch;
    pc.num_sequences = kPeftSequences;
    auto data = p.setup("offload/peft/trace", "trace", "trace.generate_s",
                        [&] { return peftTrace(seed); });
    std::uint64_t data_tokens = 0;
    for (const auto &r : data)
        data_tokens += r.prompt_len;

    // Index 0/1/2 = PipeLLM/CC/no-CC.
    const SystemMode modes[] = {SystemMode::Pipe, SystemMode::Cc,
                                SystemMode::Plain};
    std::vector<std::unique_ptr<FlexGenJob>> flexgen;
    std::vector<std::unique_ptr<PeftJob>> peft;
    std::vector<Job *> jobs;
    for (SystemMode mode : modes) {
        const std::string key = scenario::keyOf(mode);
        flexgen.push_back(std::make_unique<FlexGenJob>(
            p, mode, fg_model, fg, "flexgen", "offload/flexgen/" + key,
            nullptr));
        peft.push_back(std::make_unique<PeftJob>(
            p, mode, peft_model, pc, "peft", "offload/peft/" + key, &data));
        jobs.push_back(flexgen.back().get());
        jobs.push_back(peft.back().get());
        p.out.attempted += kFlexGenRequests + kPeftSequences;
    }
    if (p.setup_only)
        return;
    p.simulate(jobs);
    {
        ScopedSpan span(p.tracer(), "collect", "phase", p.root());
        for (auto &job : flexgen)
            job->record(p);
        for (auto &job : peft) {
            job->record(p);
            p.check(job->result.trained_tokens == data_tokens,
                    job->label() + ": trained tokens != dataset tokens");
        }
    }

    auto tps = [](const auto &job) { return job->result.tokens_per_sec; };
    p.out.end_to_end = {
        {"goodput_tok_s", tps(flexgen[0])},
        {"overhead_pct",
         throughputOverheadPct(tps(flexgen[0]), tps(flexgen[2]))},
    };
    p.simLayer("cc_overhead_pct",
               throughputOverheadPct(tps(flexgen[1]), tps(flexgen[2])));
    p.simLayer("train_tok_s", tps(peft[0]));
    p.simLayer("peft.overhead_pct",
               throughputOverheadPct(tps(peft[0]), tps(peft[2])));
    p.simLayer("flexgen.offloaded_layers",
               double(flexgen[0]->result.offloaded_layers));

    // PEFT's D2H gradient write-back rides the same crypto and staged
    // layers in the other direction, so both engines count.
    LayerStats stats = flexgen[0]->stats;
    stats.add(peft[0]->stats);
    emitLayers(p, stats);
    if (p.tracer())
        probeLayers(p, fg_model, 16 * peft_model.kvBytesPerToken());
}

} // namespace

double
threadCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
calibrationSeconds()
{
    // Three kinds of work, so that the calibration slows as the
    // simulator does whichever part of the core a neighbour loads: a
    // sort (branches), a pointer chase through a random cycle in
    // 256 KiB (cache latency) and eight independent table-lookup
    // hash lanes (wide integer issue, like software AES). A dependent
    // hash chain alone barely slowed when the simulator slowed by a
    // third. The data is made once, with a fixed generator, and stays
    // small, so the cache the last simulation left behind matters
    // little.
    constexpr std::uint32_t kLinks = 1u << 16;
    constexpr std::size_t kKeys = 1u << 15;
    constexpr std::uint32_t kSteps = 1u << 19;
    constexpr std::uint32_t kRounds = 1u << 19;
    constexpr int kLanes = 8;
    struct Data
    {
        std::vector<std::uint32_t> links;
        std::vector<std::uint64_t> keys;
        std::uint32_t table[4][256];
    };
    static const Data data = [] {
        Data d;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        std::vector<std::uint32_t> order(kLinks);
        for (std::uint32_t i = 0; i < kLinks; ++i)
            order[i] = i;
        for (std::uint32_t i = kLinks - 1; i > 0; --i)
            std::swap(order[i], order[next() % (i + 1)]);
        d.links.resize(kLinks);
        for (std::uint32_t i = 0; i < kLinks; ++i)
            d.links[order[i]] = order[(i + 1) % kLinks];
        d.keys.resize(kKeys);
        for (auto &k : d.keys)
            k = next();
        for (auto &row : d.table)
            for (auto &t : row)
                t = std::uint32_t(next());
        return d;
    }();
    static std::vector<std::uint64_t> work(kKeys);
    static volatile std::uint64_t sink = 0;

    double t0 = threadCpuSeconds();
    std::copy(data.keys.begin(), data.keys.end(), work.begin());
    std::sort(work.begin(), work.end());
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < kSteps; ++i)
        at = data.links[at];
    std::uint32_t lane[kLanes];
    for (int l = 0; l < kLanes; ++l)
        lane[l] = at + std::uint32_t(l);
    const auto &t = data.table;
    for (std::uint32_t i = 0; i < kRounds; ++i) {
        for (auto &v : lane)
            v = t[0][v & 255] ^ t[1][(v >> 8) & 255] ^
                t[2][(v >> 16) & 255] ^ t[3][v >> 24] ^
                (v * 0x9e3779b9u) ^ i;
    }
    std::uint64_t h = work[kKeys / 2];
    for (auto v : lane)
        h = h * 31 + v;
    sink = sink + h;
    return threadCpuSeconds() - t0;
}

const std::vector<std::string> &
workloads()
{
    static const std::vector<std::string> names = {"kvswap", "offload",
                                                   "faults", "shared_host"};
    return names;
}

unsigned
unitCount(const std::string &workload)
{
    if (workload == "kvswap")
        return kKvSubTraces;
    if (workload == "faults")
        return kFaultSubTraces;
    if (workload == "shared_host")
        return kSharedSubTraces;
    return 1;
}

PassResult
runPass(const std::string &workload, std::uint64_t seed, Tracer *tracer,
        bool setup_only, int unit)
{
    Pass p(tracer, workload, setup_only, unit);
    if (workload == "kvswap")
        runKvswap(p, seed);
    else if (workload == "offload")
        runOffload(p, seed);
    else if (workload == "faults")
        runFaults(p, seed);
    else if (workload == "shared_host")
        runSharedHost(p, seed);
    else
        p.check(false, "unknown workload '" + workload + "'");

    // A bucket no timed call filled stays unset, so a traced probe's
    // value (kvswap's fault.pipe.run_s) is not overwritten by 0.
    for (const char *bucket :
         {"scenario.build_s", "trace.generate_s", "cluster.run_s",
          "flexgen.run_s", "peft.run_s", "fault.cc.run_s",
          "fault.pipe.run_s"})
        if (p.host_s.count(bucket))
            p.layers[bucket] = p.host_s[bucket];
    p.layers["offered"] = double(p.out.attempted);
    p.layers["completed"] = double(p.out.attempted - p.out.failed);
    if (!p.layers.count("failed_frac"))
        p.layers["failed_frac"] =
            ratio(double(p.out.failed), double(p.out.attempted));
    for (const auto &[name, value] : p.layers)
        p.out.layers.emplace_back(name, value);
    for (const auto &[k, cost] : p.units)
        p.out.units.push_back(cost);
    return p.out;
}

std::uint64_t
inputFingerprint(const std::string &workload, std::uint64_t seed)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, workload.data(), workload.size());
    if (workload == "offload")
        return hashTrace(h, peftTrace(seed));
    auto hashSubTraces = [&](const std::string &name, unsigned subtraces,
                             double rate) {
        for (unsigned k = 0; k < subtraces; ++k) {
            auto spec = subTraceSpec(name, seed, k, rate);
            scenario::ScenarioBuilder b(spec);
            unsigned n = spec.cluster.devices.front();
            h = hashTrace(h, b.poissonTrace(
                                 spec.trace.requests_per_device * n, n));
            std::uint64_t fault_seed = spec.faults.seed;
            h = fnv1a(h, &fault_seed, sizeof(fault_seed));
        }
    };
    if (workload == "shared_host")
        hashSubTraces(workload, kSharedSubTraces, kSharedRate);
    if (workload == "kvswap") {
        hashSubTraces(workload, kKvSubTraces, kKvReferenceRate);
        hashSubTraces("faults", kKvSubTraces, kFaultRate);
    }
    if (workload == "faults")
        hashSubTraces("faults", kFaultSubTraces, kFaultRate);
    return h;
}

} // namespace perfbench
