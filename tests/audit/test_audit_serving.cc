/**
 * @file
 * Serving invariant audits: the cluster co-simulation frontier is
 * monotone, replicas never step ahead of it, no request is delivered
 * before it arrives, and router load accounting drains to zero.
 */

#include <gtest/gtest.h>

#include "audit/audit.hh"
#include "runtime/cc_runtime.hh"
#include "serving/cluster.hh"
#include "tests/serving/serving_fixture.hh"
#include "trace/generator.hh"

using namespace pipellm;
using namespace pipellm::serving;
using namespace serving_test;
using audit::Auditor;
using audit::Check;

namespace {

struct AuditServingFixture : ::testing::Test
{
    Auditor &auditor = Auditor::instance();

    void
    SetUp() override
    {
        auditor.reset();
        auditor.setTrapOnViolation(false);
    }

    void
    TearDown() override
    {
        auditor.reset();
    }
};

VllmConfig
tinyEngine()
{
    VllmConfig cfg;
    cfg.model = tinyModel();
    cfg.parallel_sampling = 2;
    cfg.gpu_reserved_bytes = 160 * MiB;
    return cfg;
}

RuntimeFactory
ccFactory()
{
    return [](runtime::Platform &p, runtime::DeviceId d) {
        return std::make_unique<runtime::CcRuntime>(p, 1, d);
    };
}

trace::Trace
tinyTrace(std::size_t n, double rate)
{
    trace::DatasetProfile profile{"test", 48.0, 0.4, 32.0, 0.4};
    profile.max_len = 96;
    trace::TraceGenerator gen(profile, 5);
    return gen.poisson(n, rate);
}

} // namespace

TEST_F(AuditServingFixture, FrontierTimeTravelIsFlagged)
{
    auto run = auditor.newId();
    auditor.noteFrontier(run, 100);
    auditor.noteFrontier(run, 100);
    EXPECT_EQ(auditor.count(Check::FrontierRegression), 0u);
    auditor.noteFrontier(run, 50);
    EXPECT_EQ(auditor.count(Check::FrontierRegression), 1u);
}

TEST_F(AuditServingFixture, FrontiersOfDistinctRunsAreIndependent)
{
    auto run1 = auditor.newId();
    auto run2 = auditor.newId();
    auditor.noteFrontier(run1, 100);
    auditor.noteFrontier(run2, 10); // lower, but a different run
    EXPECT_EQ(auditor.count(Check::FrontierRegression), 0u);
}

TEST_F(AuditServingFixture, ReplicaSteppingAheadOfFrontierIsFlagged)
{
    auto run = auditor.newId();
    auditor.noteReplicaStep(run, 100, 100);
    EXPECT_EQ(auditor.count(Check::FrontierRegression), 0u);
    auditor.noteReplicaStep(run, 200, 100);
    EXPECT_EQ(auditor.count(Check::FrontierRegression), 1u);
}

TEST_F(AuditServingFixture, DeliveryBeforeArrivalIsFlagged)
{
    auto run = auditor.newId();
    auditor.noteDelivery(run, 100, 100);
    EXPECT_EQ(auditor.count(Check::EarlyDelivery), 0u);
    auditor.noteDelivery(run, 100, 50);
    EXPECT_EQ(auditor.count(Check::EarlyDelivery), 1u);
}

TEST_F(AuditServingFixture, ResidualRouterLoadIsFlagged)
{
    auditor.noteRunEnd(auditor.newId(), 0);
    EXPECT_EQ(auditor.count(Check::ResidualLoad), 0u);
    auditor.noteRunEnd(auditor.newId(), 7);
    EXPECT_EQ(auditor.count(Check::ResidualLoad), 1u);
}

TEST_F(AuditServingFixture, ClusterRunSatisfiesAllServingAudits)
{
    // A shared host bridge so the end-of-run conservation check has a
    // stage to reconcile against the per-device PCIe traffic.
    runtime::HostResources host;
    host.bridge_bw = 40e9;
    runtime::Platform platform(tinyGpu(448 * MiB),
                               crypto::ChannelConfig{}, 2, host);
    ClusterConfig cfg;
    cfg.engine = tinyEngine();
    cfg.policy = RoutePolicy::LeastLoaded;
    ClusterRouter router(platform, ccFactory(), cfg);

    auto result = router.run(tinyTrace(12, 500.0));
    EXPECT_EQ(result.completed, 12u);

    // A fault-free disaggregated run on private host resources: its
    // prefill->decode handoffs submit decode work behind the busy
    // replicas, which must never step a replica past the frontier.
    runtime::Platform private_host(tinyGpu(448 * MiB),
                                   crypto::ChannelConfig{}, 2);
    cfg.disagg.enabled = true;
    ClusterRouter disagg(private_host, ccFactory(), cfg);
    auto split = disagg.run(tinyTrace(12, 500.0));
    EXPECT_EQ(split.completed, 12u);
    EXPECT_EQ(split.faults.migrations, 12u);

    EXPECT_TRUE(auditor.violations().empty()) << auditor.report();
    EXPECT_GT(auditor.evaluations(Check::FrontierRegression), 0u);
    EXPECT_GE(auditor.evaluations(Check::EarlyDelivery), 24u);
    EXPECT_GE(auditor.evaluations(Check::ResidualLoad), 2u);
    EXPECT_GE(auditor.evaluations(Check::BridgeConservation), 1u);
}

TEST_F(AuditServingFixture, BackToBackClusterRunsStayClean)
{
    runtime::Platform platform(tinyGpu(448 * MiB),
                               crypto::ChannelConfig{}, 2);
    ClusterConfig cfg;
    cfg.engine = tinyEngine();
    cfg.policy = RoutePolicy::RoundRobin;
    ClusterRouter router(platform, ccFactory(), cfg);

    router.run(tinyTrace(8, 800.0));
    router.run(tinyTrace(8, 800.0));
    EXPECT_TRUE(auditor.violations().empty()) << auditor.report();
    EXPECT_GE(auditor.evaluations(Check::ResidualLoad), 2u);
}
