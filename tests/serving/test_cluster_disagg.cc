/**
 * @file
 * Disaggregated prefill/decode serving: role-partitioned routing,
 * prefill->decode handoff via encrypted KV migration, and
 * run-to-run bit-identity of disaggregated results.
 */

#include <gtest/gtest.h>

#include "fault/fault.hh"
#include "runtime/cc_runtime.hh"
#include "serving/cluster.hh"
#include "serving/vllm.hh"
#include "tests/serving/cluster_fingerprint.hh"
#include "tests/serving/serving_fixture.hh"
#include "trace/generator.hh"

using namespace pipellm;
using namespace pipellm::serving;
using namespace serving_test;

namespace {

VllmConfig
disaggEngine()
{
    VllmConfig cfg;
    cfg.model = tinyModel();
    cfg.parallel_sampling = 4;
    cfg.gpu_reserved_bytes = 160 * MiB;
    return cfg;
}

trace::Trace
disaggTrace(std::size_t n = 16)
{
    trace::DatasetProfile profile{"disagg", 48.0, 0.4, 160.0, 0.4};
    profile.max_len = 192;
    trace::TraceGenerator gen(profile, 5);
    return gen.poisson(n, 200.0);
}

RuntimeFactory
ccFactory()
{
    return [](runtime::Platform &p, runtime::DeviceId d) {
        return std::make_unique<runtime::CcRuntime>(p, 1, d);
    };
}

ClusterResult
serveDisagg(unsigned devices, const fault::FaultPlan *plan,
            unsigned prefill_replicas = 0)
{
    runtime::Platform platform(tinyGpu(448 * MiB),
                               crypto::ChannelConfig{}, devices,
                               runtime::HostResources{});
    if (plan)
        platform.armFaults(*plan);
    ClusterConfig cfg;
    cfg.engine = disaggEngine();
    cfg.policy = RoutePolicy::LeastLoaded;
    cfg.disagg.enabled = true;
    cfg.disagg.prefill_replicas = prefill_replicas;
    ClusterRouter router(platform, ccFactory(), cfg);
    return router.run(disaggTrace());
}

} // namespace

TEST(ClusterDisagg, EveryRequestMigratesAndCompletes)
{
    auto r = serveDisagg(2, nullptr);
    EXPECT_EQ(r.completed, 16u);
    EXPECT_EQ(r.dropped, 0u);
    // Fault-free: one migration per request, every chunk verified,
    // nothing discarded, and the pipelined stream speculated IVs.
    EXPECT_EQ(r.faults.migrations, 16u);
    EXPECT_GT(r.faults.migrated_chunks, 0u);
    EXPECT_EQ(r.faults.discarded_chunks, 0u);
    EXPECT_GT(r.faults.speculated_migration_ivs, 0u);
    EXPECT_EQ(r.faults.migration_fallbacks, 0u);
    // Arrivals never land on the decode replica.
    EXPECT_TRUE(r.replicas[0].prefill);
    EXPECT_FALSE(r.replicas[1].prefill);
    EXPECT_EQ(r.replicas[1].requests, 0u);
    EXPECT_GT(r.replicas[0].requests, 0u);
    // End-to-end metrics live on the decode replica.
    EXPECT_EQ(r.replicas[1].result.completed, 16u);
    EXPECT_EQ(r.replicas[0].result.completed, 0u);
}

TEST(ClusterDisagg, WorkerCountNeverChangesDisaggResults)
{
    // The co-simulation runs on one thread; a fault-free disagg run
    // must come out bit-identical every time it is repeated.
    auto first = serveDisagg(4, nullptr);
    auto second = serveDisagg(4, nullptr);
    EXPECT_EQ(fingerprint(first), fingerprint(second));
    EXPECT_EQ(first.engine_steps, second.engine_steps);
}

TEST(ClusterDisagg, ArmedDisaggRunsKeepThreadIndependence)
{
    // Same with migration faults armed: the injector's draws are
    // seeded, so repeated runs agree bit for bit.
    fault::FaultPlan plan;
    plan.seed = 21;
    plan.migration_tag_rate = 0.05;
    plan.migration_stall_rate = 0.02;
    auto first = serveDisagg(4, &plan);
    auto second = serveDisagg(4, &plan);
    EXPECT_EQ(fingerprint(first), fingerprint(second));
    EXPECT_EQ(first.engine_steps, second.engine_steps);
}

TEST(ClusterDisagg, PrefillReplicaCountIsConfigurable)
{
    auto r = serveDisagg(4, nullptr, 3);
    unsigned prefill = 0;
    std::uint64_t decode_completed = 0;
    for (const auto &rep : r.replicas) {
        prefill += rep.prefill;
        if (!rep.prefill)
            decode_completed += rep.result.completed;
    }
    EXPECT_EQ(prefill, 3u);
    EXPECT_EQ(decode_completed, 16u);
}

TEST(ClusterDisagg, SingleDeviceClusterIgnoresDisagg)
{
    // Disaggregation needs two roles; one device serves normally.
    auto r = serveDisagg(1, nullptr);
    EXPECT_EQ(r.completed, 16u);
    EXPECT_EQ(r.faults.migrations, 0u);
    EXPECT_FALSE(r.replicas[0].prefill);
}

TEST(ClusterDisagg, DisabledDisaggChangesNothing)
{
    // The homogeneous router with disagg default-initialized must
    // behave exactly as before the feature existed.
    runtime::Platform platform(tinyGpu(448 * MiB),
                               crypto::ChannelConfig{}, 2,
                               runtime::HostResources{});
    ClusterConfig cfg;
    cfg.engine = disaggEngine();
    cfg.policy = RoutePolicy::LeastLoaded;
    ClusterRouter router(platform, ccFactory(), cfg);
    auto r = router.run(disaggTrace());
    EXPECT_EQ(r.completed, 16u);
    EXPECT_EQ(r.faults.migrations, 0u);
    EXPECT_GT(r.replicas[1].requests, 0u);
}

// Satellite: drainUnfinished vs in-flight migration accounting. A
// handoff (prefill-stage) group must never charge its bootstrap
// output as real work, and draining it must requeue the *full*
// request while returning outstandingCost to exactly zero.
TEST(ClusterDisagg, DrainMidMigrationNeverDoubleCountsOutstandingCost)
{
    runtime::Platform platform(tinyGpu(448 * MiB),
                               crypto::ChannelConfig{}, 1,
                               runtime::HostResources{});
    runtime::CcRuntime rt(platform, 1, 0);
    VllmConfig cfg = disaggEngine();
    VllmEngine eng(rt, cfg);
    eng.beginRun();

    trace::Request req{7, 0, 96, 40, 0};
    eng.submitPrefill(req);
    // The handoff stub owes its prompt plus one bootstrap token per
    // sampled sequence — never the full 40-token output.
    EXPECT_EQ(eng.outstandingCost(),
              96u + cfg.parallel_sampling * 1u);

    // Mid-prefill crash: drain must free every block and report zero
    // outstanding work (the migrating request belongs to the router
    // now, not to this replica).
    std::uint64_t lost = 0;
    auto orphans = eng.drainUnfinished(lost);
    EXPECT_EQ(eng.outstandingCost(), 0u);
    EXPECT_EQ(eng.freeBlockCount(), eng.totalBlocks());
    ASSERT_EQ(orphans.size(), 1u);
    // The orphan is the full request, not the one-token stub.
    EXPECT_EQ(orphans[0].id, 7u);
    EXPECT_EQ(orphans[0].output_len, 40u);
    EXPECT_EQ(orphans[0].prompt_len, 96u);

    // Same for a migrated decode-stage group: counted once while
    // queued, zero after drain.
    eng.submitMigrated(orphans[0]);
    EXPECT_EQ(eng.outstandingCost(),
              96u + cfg.parallel_sampling * 40u);
    lost = 0;
    auto again = eng.drainUnfinished(lost);
    EXPECT_EQ(eng.outstandingCost(), 0u);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].output_len, 40u);
}

TEST(ClusterDisagg, PrefillStageSkipsCompletionMetrics)
{
    runtime::Platform platform(tinyGpu(448 * MiB),
                               crypto::ChannelConfig{}, 1,
                               runtime::HostResources{});
    runtime::CcRuntime rt(platform, 1, 0);
    VllmEngine eng(rt, disaggEngine());
    eng.beginRun();

    trace::Request handed{};
    Tick handed_at = 0;
    eng.setCompletionSink(
        [&](const trace::Request &r, Tick at) {
            handed = r;
            handed_at = at;
        });
    eng.submitPrefill(trace::Request{3, 0, 64, 24, 0});
    while (eng.hasWork())
        eng.stepOnce();
    // The sink saw the full request at the prefill-finish tick...
    EXPECT_EQ(handed.id, 3u);
    EXPECT_EQ(handed.output_len, 24u);
    EXPECT_GT(handed_at, Tick(0));
    // ...and nothing was counted as a completion on this replica.
    auto res = eng.finish();
    EXPECT_EQ(res.completed, 0u);
    EXPECT_EQ(res.completed_tokens, 0u);
    EXPECT_TRUE(res.completions.empty());
    EXPECT_EQ(eng.freeBlockCount(), eng.totalBlocks());
}

TEST(ClusterDisagg, MigratedStageSkipsPrefillCompute)
{
    trace::Request req{5, 0, 160, 12, 0};

    // Serve the same request twice: once cold (prefill + decode) and
    // once as a migrated arrival (decode only). Each run gets its own
    // platform — resource timelines are stateful — and the migrated
    // run must finish strictly earlier with strictly fewer kernels.
    Tick cold_done = 0, warm_done = 0;
    std::uint64_t cold_kernels = 0, warm_kernels = 0;
    {
        runtime::Platform platform(tinyGpu(448 * MiB),
                                   crypto::ChannelConfig{}, 1,
                                   runtime::HostResources{});
        runtime::CcRuntime rt(platform, 1, 0);
        VllmEngine eng(rt, disaggEngine());
        eng.beginRun();
        eng.submit(req);
        while (eng.hasWork())
            eng.stepOnce();
        cold_done = eng.clock();
        cold_kernels = rt.stats().kernels;
    }
    {
        runtime::Platform platform(tinyGpu(448 * MiB),
                                   crypto::ChannelConfig{}, 1,
                                   runtime::HostResources{});
        runtime::CcRuntime rt(platform, 1, 0);
        VllmEngine eng(rt, disaggEngine());
        eng.beginRun();
        eng.submitMigrated(req);
        while (eng.hasWork())
            eng.stepOnce();
        warm_done = eng.clock();
        warm_kernels = rt.stats().kernels;
    }
    EXPECT_LT(warm_done, cold_done);
    EXPECT_LT(warm_kernels, cold_kernels);
}
