/**
 * @file
 * Wall-clock microbenchmarks of the simulator's own building blocks
 * (google-benchmark), plus a throughput sweep of the event core and
 * the cluster co-simulation. These measure the *reproduction's*
 * performance, not the paper's: AES-GCM sealing, GHASH, the event
 * queue, resource booking, sparse-memory access — the per-simulated-
 * transfer costs that bound how large an experiment the harness can
 * run — how event dispatch and engine steps scale with the number
 * of chains and replicas, what one predictor call costs, and what
 * freeing a large sparse region costs.
 *
 * The sweep writes bench_results/BENCH_simcore.json. Unlike the
 * figure CSVs, BENCH_*.json files record *host* wall-clock numbers:
 * they are machine-dependent by design, annotated with the measuring
 * host's core count, and regenerated rather than diffed byte-for-
 * byte (see README).
 *
 *   bench_simcore [--quick] [gbench flags...]
 */

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "crypto/channel.hh"
#include "crypto/gcm.hh"
#include "llm/model.hh"
#include "mem/sparse_memory.hh"
#include "pipellm/patterns.hh"
#include "runtime/cc_runtime.hh"
#include "serving/cluster.hh"
#include "sim/event_queue.hh"
#include "sim/resource.hh"
#include "trace/generator.hh"

using namespace pipellm;

namespace {

void
BM_AesGcmSeal(benchmark::State &state)
{
    std::vector<std::uint8_t> key(32, 0x42);
    crypto::AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> pt(state.range(0), 0xab);
    std::vector<std::uint8_t> ct(pt.size());
    crypto::GcmTag tag;
    crypto::GcmIv iv{};
    std::uint64_t n = 0;
    for (auto _ : state) {
        iv[11] = std::uint8_t(n++);
        gcm.seal(iv, nullptr, 0, pt.data(), pt.size(), ct.data(), tag);
        benchmark::DoNotOptimize(ct.data());
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AesGcmSeal)->Arg(512)->Arg(4096)->Arg(65536);

void
BM_AesGcmOpen(benchmark::State &state)
{
    std::vector<std::uint8_t> key(32, 0x42);
    crypto::AesGcm gcm(key.data(), key.size());
    std::vector<std::uint8_t> pt(state.range(0), 0xab);
    std::vector<std::uint8_t> ct(pt.size());
    crypto::GcmTag tag;
    crypto::GcmIv iv{};
    gcm.seal(iv, nullptr, 0, pt.data(), pt.size(), ct.data(), tag);
    std::vector<std::uint8_t> out(pt.size());
    for (auto _ : state) {
        bool ok = gcm.open(iv, nullptr, 0, ct.data(), ct.size(), tag,
                           out.data());
        benchmark::DoNotOptimize(ok);
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_AesGcmOpen)->Arg(512)->Arg(4096);

void
BM_ChannelSealedTransfer(benchmark::State &state)
{
    crypto::ChannelConfig cfg;
    cfg.sample_limit = 512;
    crypto::SecureChannel ch(cfg);
    std::vector<std::uint8_t> sample(512, 0x17);
    std::uint64_t iv = 0;
    for (auto _ : state) {
        auto blob = ch.seal(crypto::Direction::HostToDevice, iv,
                            sample.data(), 32 * MiB);
        std::vector<std::uint8_t> out;
        bool ok = ch.open(blob, iv, out);
        benchmark::DoNotOptimize(ok);
        ++iv;
    }
}
BENCHMARK(BM_ChannelSealedTransfer);

void
BM_EventQueueSchedule(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        eq.reserve(1000);
        for (int i = 0; i < 1000; ++i)
            eq.schedule(Tick(i), [] {});
        eq.run();
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueSchedule);

/**
 * The hot shape in serving runs: a single self-rescheduling chain
 * (each dispatch schedules the next event), where the pool's
 * just-freed slot is immediately recycled.
 */
void
BM_EventQueueChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t remaining = 1000;
        std::function<void()> step = [&] {
            if (--remaining)
                eq.scheduleIn(1, [&] { step(); });
        };
        eq.schedule(0, [&] { step(); });
        eq.run();
        benchmark::DoNotOptimize(remaining);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueChain);

void
BM_ResourceBooking(benchmark::State &state)
{
    sim::EventQueue eq;
    sim::BandwidthResource link(eq, "link", 55e9, 400);
    for (auto _ : state) {
        Tick t = link.submit(1 * MiB);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_ResourceBooking);

void
BM_SparseMemoryWrite(benchmark::State &state)
{
    mem::SparseMemory arena("bench", 16 * GiB);
    auto r = arena.alloc(1 * GiB, "buf");
    std::vector<std::uint8_t> data(4096, 0x5c);
    std::uint64_t off = 0;
    for (auto _ : state) {
        arena.write(r.base + (off % (512 * MiB)), data.data(),
                    data.size());
        off += 4096;
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_SparseMemoryWrite);

void
BM_SparseMemorySyntheticRead(benchmark::State &state)
{
    mem::SparseMemory arena("bench", 400 * GiB);
    auto r = arena.alloc(300 * GiB, "weights");
    std::vector<std::uint8_t> out(512);
    std::uint64_t off = 0;
    for (auto _ : state) {
        arena.read(r.base + (off % (200 * GiB)), out.data(),
                   out.size());
        off += 1 * GiB;
    }
    state.SetBytesProcessed(std::int64_t(state.iterations()) * 512);
}
BENCHMARK(BM_SparseMemorySyntheticRead);

// --- event-core and cluster throughput sweep -> BENCH_simcore.json ---

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** A dash of per-event work standing in for one engine iteration. */
std::uint64_t
spin(std::uint64_t x, unsigned rounds)
{
    for (unsigned i = 0; i < rounds; ++i) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 29;
    }
    return x;
}

constexpr unsigned workRounds = 64;

/**
 * The pre-refactor event core, kept as a measured baseline: one
 * std::function per event in a binary-heap priority queue, no node
 * pooling. The sweep reports the pooled pairing-heap core's
 * events/sec against this.
 */
class ReferenceQueue
{
  public:
    void
    schedule(Tick when, std::function<void()> fn)
    {
        heap_.push(Ev{when, seq_++, std::move(fn)});
    }

    void
    scheduleIn(Tick delay, std::function<void()> fn)
    {
        schedule(now_ + delay, std::move(fn));
    }

    void
    run()
    {
        while (!heap_.empty()) {
            Ev ev = heap_.top();
            heap_.pop();
            now_ = ev.when;
            ev.fn();
        }
    }

  private:
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct Later
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    std::priority_queue<Ev, std::vector<Ev>, Later> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

/** A self-rescheduling event chain on queue type Q. */
template <typename Q>
struct Chain
{
    Q *queue = nullptr;
    std::uint64_t remaining = 0;
    std::uint64_t acc = 0;

    void
    step()
    {
        acc = spin(acc + 1, workRounds);
        if (--remaining)
            queue->scheduleIn(1 + (acc & 7), [this] { step(); });
    }
};

/**
 * events/sec of @p chains interleaved chains drained from one queue
 * of type Q: the queue holds one pending event per chain, so the
 * chain count is the heap depth.
 */
template <typename Q>
double
eventsPerSec(unsigned chains, std::uint64_t events_per_chain,
             double *wall_out = nullptr)
{
    Q queue;
    std::vector<Chain<Q>> all(chains);
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < chains; ++c) {
        all[c] = Chain<Q>{&queue, events_per_chain, c};
        Chain<Q> *chain = &all[c];
        queue.schedule(1, [chain] { chain->step(); });
    }
    queue.run();
    double wall = seconds(std::chrono::steady_clock::now() - t0);
    if (wall_out)
        *wall_out = wall;
    return double(chains) * double(events_per_chain) / wall;
}

struct ClusterPoint
{
    unsigned replicas = 0;
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t engine_steps = 0;
    double wall_s = 0;
    double steps_per_sec = 0;
    double sim_requests_per_sec = 0;
};

/** One tiny-model serving run: N CC replicas, private host. */
ClusterPoint
clusterPoint(unsigned replicas, std::size_t requests_per_replica)
{
    llm::ModelConfig model;
    model.name = "tiny";
    model.num_layers = 8;
    model.hidden = 1024;
    model.heads = 16;
    model.vocab = 32000;
    model.max_positions = 512;

    auto spec = gpu::SystemSpec::h100();
    spec.gpu_mem_bytes = 448 * MiB;

    crypto::ChannelConfig channel;
    channel.sample_limit = 512;
    runtime::Platform platform(spec, channel, replicas);

    serving::ClusterConfig cfg;
    cfg.engine.model = model;
    cfg.engine.parallel_sampling = 2;
    cfg.engine.gpu_reserved_bytes = 160 * MiB;
    cfg.policy = serving::RoutePolicy::RoundRobin;

    serving::ClusterRouter router(
        platform,
        [](runtime::Platform &p, runtime::DeviceId d) {
            return std::make_unique<runtime::CcRuntime>(p, 1, d);
        },
        cfg);

    trace::DatasetProfile profile{"simcore", 48.0, 0.4, 32.0, 0.4};
    profile.max_len = 96;
    trace::TraceGenerator gen(profile, 5);
    auto trace =
        gen.poisson(requests_per_replica * replicas, 40.0 * replicas);

    auto t0 = std::chrono::steady_clock::now();
    auto result = router.run(trace);
    double wall = seconds(std::chrono::steady_clock::now() - t0);

    ClusterPoint point;
    point.replicas = replicas;
    point.requests = trace.size();
    point.completed = result.completed;
    point.engine_steps = result.engine_steps;
    point.wall_s = wall;
    point.steps_per_sec = double(result.engine_steps) / wall;
    point.sim_requests_per_sec = double(result.completed) / wall;
    return point;
}

/**
 * A full 1,024-entry swap history: a 96-chunk layer cycle with a
 * boundary per pass, or noisy draws among 300 chunks.
 */
core::SwapHistory
benchHistory(bool cycle)
{
    core::SwapHistory history(1024);
    Rng rng(11);
    for (unsigned i = 0; i < 1024; ++i) {
        std::uint64_t id = cycle ? i % 96 : rng.uniformInt(0, 299);
        history.noteSwapIn(
            core::ChunkId{Addr(0x100000 + id * 0x10000), 64 * KiB});
        if (cycle ? id == 95 : rng.bernoulli(0.05))
            history.noteBatchBoundary();
    }
    return history;
}

/** Mean host us per predict(@p history, @p n) over >= 50 ms of calls. */
double
predictUs(const core::PatternRecognizer &rec,
          const core::SwapHistory &history, std::size_t n)
{
    std::uint64_t calls = 0;
    double wall = 0;
    auto t0 = std::chrono::steady_clock::now();
    do {
        auto pred = rec.predict(history, n);
        benchmark::DoNotOptimize(pred.data());
        ++calls;
        wall = seconds(std::chrono::steady_clock::now() - t0);
    } while (wall < 0.05);
    return wall / double(calls) * 1e6;
}

/**
 * Median host us of SparseMemory::free on a 26 GB region holding 3
 * materialized pages, in an arena with 1,024 more materialized pages
 * elsewhere (the shape of a KV pool freed at engine teardown).
 */
double
sparseFreeUs(unsigned reps)
{
    mem::SparseMemory arena("bench", 64 * GiB);
    auto busy = arena.alloc(4 * MiB, "busy");
    std::vector<std::uint8_t> fill(4 * MiB, 0x5c);
    arena.write(busy.base, fill.data(), fill.size());
    std::vector<double> us;
    for (unsigned rep = 0; rep < reps; ++rep) {
        auto region = arena.alloc(26 * GiB, "kv-pool");
        for (std::uint64_t page : {0, 100000, 6000000})
            arena.write(region.base + page * mem::pageBytes, fill.data(),
                        1);
        auto t0 = std::chrono::steady_clock::now();
        arena.free(region);
        us.push_back(seconds(std::chrono::steady_clock::now() - t0) *
                     1e6);
    }
    std::sort(us.begin(), us.end());
    return us[us.size() / 2];
}

void
runThroughputSweep(bool quick)
{
    const long cores = sysconf(_SC_NPROCESSORS_ONLN);
    const std::uint64_t events_per_chain = quick ? 20'000 : 200'000;
    const std::size_t requests_per_replica = quick ? 4 : 8;
    std::vector<unsigned> counts =
        quick ? std::vector<unsigned>{1, 8}
              : std::vector<unsigned>{1, 2, 4, 8, 16, 32};

    std::printf("\n=== event queue throughput (host: %ld core(s)) "
                "===\n",
                cores);

    std::filesystem::create_directories("bench_results");
    std::FILE *json =
        std::fopen("bench_results/BENCH_simcore.json", "w");
    PIPELLM_ASSERT(json, "cannot open BENCH_simcore.json");
    std::fprintf(json, "{\n");
    std::fprintf(json, "  \"bench\": \"simcore\",\n");
#ifdef NDEBUG
    std::fprintf(json, "  \"build\": \"release\",\n");
#else
    std::fprintf(json, "  \"build\": \"debug\",\n");
#endif
    std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(json, "  \"host_cores\": %ld,\n", cores);
    std::fprintf(json, "  \"events_per_chain\": %llu,\n",
                 (unsigned long long)events_per_chain);

    // Event core: events/sec for N chains sharing one queue, against
    // the pre-refactor std::function/priority_queue baseline.
    std::fprintf(json, "  \"scheduler\": [\n");
    bool first = true;
    for (unsigned chains : counts) {
        double ref =
            eventsPerSec<ReferenceQueue>(chains, events_per_chain);
        double wall = 0;
        double pooled = eventsPerSec<sim::EventQueue>(
            chains, events_per_chain, &wall);
        std::printf("chains=%2u  %10.0f ev/s  (ref %10.0f, x%.2f)\n",
                    chains, pooled, ref, pooled / ref);
        std::fprintf(json,
                     "%s    {\"chains\": %u, \"wall_s\": %.6f, "
                     "\"events_per_sec\": %.0f, "
                     "\"reference_events_per_sec\": %.0f, "
                     "\"speedup_vs_reference\": %.3f}",
                     first ? "" : ",\n", chains, wall, pooled, ref,
                     pooled / ref);
        first = false;
    }
    std::fprintf(json, "\n  ],\n");

    // Full serving stack: simulated requests/sec and engine
    // steps/sec as the replica count grows.
    std::printf("\n=== cluster co-simulation throughput ===\n");
    std::fprintf(json, "  \"cluster\": [\n");
    first = true;
    for (unsigned replicas : counts) {
        auto p = clusterPoint(replicas, requests_per_replica);
        std::printf("N=%2u  %8.1f sim req/s  %9.0f steps/s  "
                    "(%llu steps)\n",
                    p.replicas, p.sim_requests_per_sec,
                    p.steps_per_sec,
                    (unsigned long long)p.engine_steps);
        std::fprintf(json,
                     "%s    {\"replicas\": %u, \"requests\": %llu, "
                     "\"completed\": %llu, \"engine_steps\": %llu, "
                     "\"wall_s\": %.6f, \"steps_per_sec\": %.0f, "
                     "\"sim_requests_per_sec\": %.1f}",
                     first ? "" : ",\n", p.replicas,
                     (unsigned long long)p.requests,
                     (unsigned long long)p.completed,
                     (unsigned long long)p.engine_steps, p.wall_s,
                     p.steps_per_sec, p.sim_requests_per_sec);
        first = false;
    }
    std::fprintf(json, "\n  ],\n");

    // Predictor: host cost of one predict call on a full history.
    std::printf("\n=== predictor: us per predict call ===\n");
    std::fprintf(json, "  \"predictor\": [\n");
    first = true;
    const core::RepetitiveRecognizer repetitive;
    const core::MarkovRecognizer markov;
    for (bool cycle : {true, false}) {
        auto history = benchHistory(cycle);
        const char *shape = cycle ? "cycle96" : "noisy300";
        for (const core::PatternRecognizer *rec :
             {static_cast<const core::PatternRecognizer *>(&repetitive),
              static_cast<const core::PatternRecognizer *>(&markov)}) {
            for (std::size_t n : {std::size_t(1), std::size_t(64)}) {
                double us = predictUs(*rec, history, n);
                std::printf("%-10s %-8s n=%-2zu %9.2f us\n", rec->name(),
                            shape, n, us);
                std::fprintf(json,
                             "%s    {\"recognizer\": \"%s\", "
                             "\"history\": \"%s\", \"entries\": %zu, "
                             "\"n\": %zu, \"us_per_call\": %.3f}",
                             first ? "" : ",\n", rec->name(), shape,
                             history.swapIns().size(), n, us);
                first = false;
            }
        }
    }
    std::fprintf(json, "\n  ],\n");

    // Sparse arena: freeing a large, barely materialized region.
    double free_us = sparseFreeUs(quick ? 3 : 9);
    std::printf("\n=== sparse memory ===\nfree 26 GB region: %.1f us\n",
                free_us);
    std::fprintf(json,
                 "  \"sparse_free\": {\"region_gb\": 26, "
                 "\"region_pages\": 3, \"other_pages\": 1024, "
                 "\"median_us\": %.1f}\n}\n",
                 free_us);
    std::fclose(json);
    std::printf("\nwrote bench_results/BENCH_simcore.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our own flags before google-benchmark parses the rest.
    bool quick = false;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
        else
            passthrough.push_back(argv[i]);
    }
    int bench_argc = int(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    runThroughputSweep(quick);
    return 0;
}
