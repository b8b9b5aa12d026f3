#include <gtest/gtest.h>

#include <vector>

#include "pipellm/pipellm_runtime.hh"
#include "runtime/cc_runtime.hh"
#include "runtime/plain_runtime.hh"

using namespace pipellm;
using namespace pipellm::core;
using runtime::CopyKind;
using runtime::Platform;
using runtime::Stream;

namespace {

/** A FlexGen-shaped workload: layers reload cyclically, every swap
 *  followed by a sync and a compute kernel. */
struct OffloadFixture : ::testing::Test
{
    static constexpr int layers = 8;
    static constexpr std::uint64_t layer_bytes = 2 * MiB;

    Platform platform;
    PipeLlmConfig config;
    std::vector<mem::Region> host_layers;
    mem::Region dev_buf{};

    OffloadFixture()
    {
        config.classifier.layer_param_bytes = layer_bytes;
        config.enc_lanes = 2;
        config.pipeline_depth = 4;
    }

    void
    setup(runtime::RuntimeApi &rt)
    {
        (void)rt;
        if (host_layers.empty()) {
            for (int i = 0; i < layers; ++i)
                host_layers.push_back(platform.allocHost(
                    layer_bytes, "layer" + std::to_string(i)));
            dev_buf = platform.gpu(0).alloc(layer_bytes * 2, "slot");
        }
    }

    /** Run @p cycles offload iterations; returns finish tick. */
    Tick
    runCycles(runtime::RuntimeApi &rt, Stream &s, int cycles,
              Tick now = 0)
    {
        gpu::KernelDesc k{"layer", 2e10, 1e8}; // ~50 us compute
        for (int c = 0; c < cycles; ++c) {
            for (int l = 0; l < layers; ++l) {
                now = rt.memcpyAsync(CopyKind::HostToDevice,
                                     dev_buf.base,
                                     host_layers[l].base, layer_bytes,
                                     s, now)
                          .api_return;
                now = rt.synchronize(now);
                now = rt.launchKernel(k, s, now).api_return;
                now = rt.synchronize(now);
            }
        }
        return now;
    }
};

} // namespace

TEST_F(OffloadFixture, PredictorLearnsAndHits)
{
    PipeLlmRuntime rt(platform, config);
    setup(rt);
    Stream &s = rt.createStream("s");
    runCycles(rt, s, 6);

    const auto &ps = rt.pipeStats();
    EXPECT_EQ(ps.swap_requests, 6u * layers);
    // After the first cycle or two the pipeline should hit nearly
    // always.
    EXPECT_GT(ps.hits, 4u * layers);
    EXPECT_LT(ps.misses, 2u * layers);
    EXPECT_STREQ(rt.predictor().activePattern(), "repetitive");
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
}

TEST_F(OffloadFixture, ApiNeverBlocksOnEncryption)
{
    PipeLlmRuntime rt(platform, config);
    setup(rt);
    Stream &s = rt.createStream("s");
    runCycles(rt, s, 3); // warm up

    Tick t0 = rt.synchronize(runCycles(rt, s, 1, 0));
    auto r = rt.memcpyAsync(CopyKind::HostToDevice, dev_buf.base,
                            host_layers[0].base, layer_bytes, s, t0);
    // 2 MiB at 5.8 GB/s would be ~360 us; the call must return in
    // control-plane time.
    EXPECT_LT(toMicroseconds(r.api_return - t0), 20.0);
}

TEST_F(OffloadFixture, FasterThanCcBaseline)
{
    Platform p_cc;
    PipeLlmRuntime rt(platform, config);
    runtime::CcRuntime cc(p_cc);
    setup(rt);

    // Mirror allocations on the CC platform.
    std::vector<mem::Region> cc_layers;
    for (int i = 0; i < layers; ++i)
        cc_layers.push_back(
            p_cc.allocHost(layer_bytes, "layer" + std::to_string(i)));
    auto cc_dev = p_cc.gpu(0).alloc(layer_bytes * 2, "slot");

    Stream &s1 = rt.createStream("s");
    Stream &s2 = cc.createStream("s");
    gpu::KernelDesc k{"layer", 2e10, 1e8};

    Tick a = 0, b = 0;
    for (int c = 0; c < 6; ++c) {
        for (int l = 0; l < layers; ++l) {
            a = rt.memcpyAsync(CopyKind::HostToDevice, dev_buf.base,
                               host_layers[l].base, layer_bytes, s1, a)
                    .api_return;
            a = rt.synchronize(a);
            a = rt.launchKernel(k, s1, a).api_return;
            a = rt.synchronize(a);

            b = cc.memcpyAsync(CopyKind::HostToDevice, cc_dev.base,
                               cc_layers[l].base, layer_bytes, s2, b)
                    .api_return;
            b = cc.synchronize(b);
            b = cc.launchKernel(k, s2, b).api_return;
            b = cc.synchronize(b);
        }
    }
    EXPECT_LT(double(a), 0.6 * double(b));
}

TEST_F(OffloadFixture, SmallTransfersDoNotCascade)
{
    PipeLlmRuntime rt(platform, config);
    setup(rt);
    auto token_buf = platform.allocHost(4 * KiB, "tokens");
    Stream &s = rt.createStream("s");
    runCycles(rt, s, 3); // learn the pattern

    // Interleave a small transfer before every layer swap.
    Tick now = rt.synchronize(runCycles(rt, s, 1, 0));
    auto hits_before = rt.pipeStats().hits;
    gpu::KernelDesc k{"layer", 2e10, 1e8};
    for (int l = 0; l < layers; ++l) {
        now = rt.memcpyAsync(CopyKind::HostToDevice, dev_buf.base,
                             token_buf.base, 512, s, now)
                  .api_return;
        now = rt.memcpyAsync(CopyKind::HostToDevice, dev_buf.base,
                             host_layers[l].base, layer_bytes, s, now)
                  .api_return;
        now = rt.synchronize(now);
        now = rt.launchKernel(k, s, now).api_return;
        now = rt.synchronize(now);
    }
    auto hits_after = rt.pipeStats().hits;
    // Re-speculation keeps nearly all of these hits despite the
    // interleaved small transfers.
    EXPECT_GE(hits_after - hits_before, unsigned(layers) - 2);
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
}

TEST_F(OffloadFixture, DataIntegrityEndToEnd)
{
    PipeLlmRuntime rt(platform, config);
    setup(rt);
    Stream &s = rt.createStream("s");
    runCycles(rt, s, 4);
    // The device copy of layer 3 matches host plaintext.
    auto expect = platform.hostMem().readSample(
        host_layers[3].base,
        platform.device(0).channel().sampledLen(layer_bytes));
    Tick now = rt.memcpy(CopyKind::HostToDevice, dev_buf.base,
                         host_layers[3].base, layer_bytes, s, 0);
    rt.synchronize(now);
    EXPECT_EQ(platform.gpu(0).memory().readSample(dev_buf.base,
                                                    expect.size()),
              expect);
}

TEST_F(OffloadFixture, IvLockstepMaintained)
{
    PipeLlmRuntime rt(platform, config);
    setup(rt);
    Stream &s = rt.createStream("s");
    runCycles(rt, s, 5);
    EXPECT_EQ(rt.h2dCounter(), platform.gpu(0).rxCounter());
    EXPECT_EQ(rt.d2hCounter(), platform.gpu(0).txCounter());
    EXPECT_EQ(rt.pendingSends(), 0u);
}

namespace {

/** vLLM-shaped workload: KV chunks swapped out then back in LIFO. */
struct KvSwapFixture : ::testing::Test
{
    static constexpr std::uint64_t kv_bytes = 512 * KiB;
    static constexpr int groups = 4;

    Platform platform;
    PipeLlmConfig config;
    std::vector<mem::Region> host_kv;
    std::vector<mem::Region> dev_kv;

    KvSwapFixture()
    {
        config.classifier.kv_unit_bytes = kv_bytes;
        config.enc_lanes = 1;
        config.dec_lanes = 1;
        config.pipeline_depth = 8;
        for (int i = 0; i < groups; ++i) {
            host_kv.push_back(nullRegion());
            dev_kv.push_back(nullRegion());
        }
    }

    static mem::Region nullRegion() { return mem::Region{}; }

    void
    setup()
    {
        for (int i = 0; i < groups; ++i) {
            host_kv[i] = platform.allocHost(
                kv_bytes, "kv-swap" + std::to_string(i));
            dev_kv[i] = platform.gpu(0).alloc(
                kv_bytes, "kv-gpu" + std::to_string(i));
        }
    }

    /** One preemption round: swap all out, decode, swap back LIFO. */
    Tick
    round(runtime::RuntimeApi &rt, Stream &s, Tick now)
    {
        for (int i = 0; i < groups; ++i)
            now = rt.memcpyAsync(CopyKind::DeviceToHost,
                                 host_kv[i].base, dev_kv[i].base,
                                 kv_bytes, s, now)
                      .api_return;
        now = rt.synchronize(now);
        gpu::KernelDesc k{"decode", 5e10, 2e9};
        now = rt.launchKernel(k, s, now).api_return;
        now = rt.synchronize(now);
        for (int i = groups - 1; i >= 0; --i)
            now = rt.memcpyAsync(CopyKind::HostToDevice,
                                 dev_kv[i].base, host_kv[i].base,
                                 kv_bytes, s, now)
                      .api_return;
        now = rt.synchronize(now);
        return now;
    }
};

} // namespace

TEST_F(KvSwapFixture, LearnsLifoAndHits)
{
    PipeLlmRuntime rt(platform, config);
    setup();
    Stream &s = rt.createStream("s");
    Tick now = 0;
    for (int r = 0; r < 8; ++r)
        now = round(rt, s, now);

    const auto &ps = rt.pipeStats();
    EXPECT_EQ(ps.swap_requests, 8u * groups);
    EXPECT_GT(ps.hits, 5u * groups);
    EXPECT_STREQ(rt.predictor().activePattern(), "lifo");
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
}

TEST_F(KvSwapFixture, AsyncDecryptReturnsBeforePlaintextReady)
{
    // Speculation off so the pipeline's own refill does not touch the
    // placeholder before we do.
    config.speculation = false;
    PipeLlmRuntime rt(platform, config);
    setup();
    Stream &s = rt.createStream("s");
    auto r = rt.memcpyAsync(CopyKind::DeviceToHost, host_kv[0].base,
                            dev_kv[0].base, kv_bytes, s, 0);
    EXPECT_EQ(rt.pipeStats().async_decrypts, 1u);
    // api_return is control-plane only; decryption would add ~90 us.
    EXPECT_LT(toMicroseconds(r.api_return), 20.0);

    // Touching the placeholder faults into a synchronous decrypt.
    std::uint8_t byte;
    Tick ready = platform.hostMem().read(host_kv[0].base, &byte, 1);
    EXPECT_GT(ready, r.complete);
    EXPECT_EQ(rt.pipeStats().decrypt_faults, 1u);
    // Second access is free.
    EXPECT_EQ(platform.hostMem().read(host_kv[0].base, &byte, 1), 0u);
}

TEST_F(KvSwapFixture, SyncDecryptWhenAblationDisabled)
{
    config.async_decrypt = false;
    PipeLlmRuntime rt(platform, config);
    setup();
    Stream &s = rt.createStream("s");
    auto r = rt.memcpyAsync(CopyKind::DeviceToHost, host_kv[0].base,
                            dev_kv[0].base, kv_bytes, s, 0);
    EXPECT_EQ(rt.pipeStats().async_decrypts, 0u);
    // The call blocks through DMA + decryption.
    EXPECT_GT(toMicroseconds(r.api_return), 90.0);
}

TEST_F(KvSwapFixture, RoundTripPreservesKvContent)
{
    PipeLlmRuntime rt(platform, config);
    setup();
    Stream &s = rt.createStream("s");
    auto before = platform.gpu(0).memory().readSample(
        dev_kv[2].base, platform.device(0).channel().sampledLen(kv_bytes));
    Tick now = 0;
    for (int r = 0; r < 3; ++r)
        now = round(rt, s, now);
    auto after = platform.gpu(0).memory().readSample(
        dev_kv[2].base, platform.device(0).channel().sampledLen(kv_bytes));
    EXPECT_EQ(after, before);
}

TEST_F(KvSwapFixture, SabotagedPredictionsStillCorrect)
{
    // Fig. 10 (PipeLLM-0): zero sequence-prediction success must not
    // break correctness, only cost NOPs.
    config.predictor.sabotage_sequence = true;
    PipeLlmRuntime rt(platform, config);
    setup();
    Stream &s = rt.createStream("s");
    Tick now = 0;
    for (int r = 0; r < 8; ++r)
        now = round(rt, s, now);
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
    EXPECT_EQ(rt.h2dCounter(), platform.gpu(0).rxCounter());
    // Re-ordering + NOPs kept most pre-encryptions usable.
    EXPECT_GT(rt.pipeStats().hits + rt.pipeStats().misses,
              7u * groups);
}

TEST_F(KvSwapFixture, ReorderingHandlesInBatchPermutation)
{
    PipeLlmRuntime rt(platform, config);
    setup();
    Stream &s = rt.createStream("s");
    Tick now = 0;
    for (int r = 0; r < 6; ++r)
        now = round(rt, s, now);

    // Now swap back in FIFO order while the predictor expects LIFO:
    // every chunk is pre-encrypted but the order is permuted.
    for (int i = 0; i < groups; ++i)
        now = rt.memcpyAsync(CopyKind::DeviceToHost, host_kv[i].base,
                             dev_kv[i].base, kv_bytes, s, now)
                  .api_return;
    now = rt.synchronize(now);
    auto hits_before = rt.pipeStats().hits;
    for (int i = 0; i < groups; ++i)
        now = rt.memcpyAsync(CopyKind::HostToDevice, dev_kv[i].base,
                             host_kv[i].base, kv_bytes, s, now)
                  .api_return;
    now = rt.synchronize(now);
    // The permuted batch is still served from pre-encrypted entries
    // (re-ordering/NOPs, not misses), and the IV lockstep holds. The
    // LIFO-requested rounds above exercised deferral as well.
    EXPECT_GE(rt.pipeStats().hits, hits_before + unsigned(groups) - 1);
    EXPECT_GT(rt.pipeStats().reordered, 0u);
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
    EXPECT_EQ(rt.pendingSends(), 0u);
}

namespace {

/**
 * (depth, leeway, lanes) grid point for configuration robustness.
 * All fields are 64-bit so the struct has no padding: gtest prints the
 * raw bytes of the parameter into each test's name, and uninitialised
 * padding would make those names change from build to build.
 */
struct GridPoint
{
    std::uint64_t depth;
    std::uint64_t leeway;
    std::uint64_t lanes;
};

class ConfigGrid : public ::testing::TestWithParam<GridPoint>
{
};

} // namespace

TEST_P(ConfigGrid, CyclicWorkloadInvariantsHold)
{
    // The same FlexGen-shaped workload must stay correct (and mostly
    // hit) under any sane pipeline configuration.
    auto [depth, leeway, lanes] = GetParam();
    Platform platform;
    PipeLlmConfig config;
    config.classifier.layer_param_bytes = 2 * MiB;
    config.pipeline_depth = depth;
    config.iv_leeway = leeway;
    config.enc_lanes = lanes;
    PipeLlmRuntime rt(platform, config);

    std::vector<mem::Region> host;
    for (int i = 0; i < 6; ++i)
        host.push_back(platform.allocHost(2 * MiB, "c"));
    auto token = platform.allocHost(4 * KiB, "tok");
    auto dev = platform.gpu(0).alloc(16 * MiB, "d");
    Stream &s = rt.createStream("s");

    Tick now = 0;
    for (int cycle = 0; cycle < 10; ++cycle) {
        for (int i = 0; i < 6; ++i)
            now = rt.memcpyAsync(CopyKind::HostToDevice,
                                 dev.base + i * 2 * MiB, host[i].base,
                                 2 * MiB, s, now)
                      .api_return;
        now = rt.memcpyAsync(CopyKind::HostToDevice, dev.base,
                             token.base, 64, s, now)
                  .api_return;
        now = rt.synchronize(now);
    }

    const auto &ps = rt.pipeStats();
    EXPECT_EQ(ps.swap_requests, 60u);
    EXPECT_EQ(ps.hits + ps.misses, 60u);
    // After warmup the cycle should mostly hit regardless of config.
    EXPECT_GT(ps.hits, 35u) << "depth=" << depth
                            << " leeway=" << leeway
                            << " lanes=" << lanes;
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
    EXPECT_EQ(rt.h2dCounter(), platform.gpu(0).rxCounter());
    EXPECT_EQ(rt.pendingSends(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigGrid,
    ::testing::Values(GridPoint{1, 0, 1}, GridPoint{2, 0, 2},
                      GridPoint{4, 2, 1}, GridPoint{4, 8, 4},
                      GridPoint{8, 2, 2}, GridPoint{12, 4, 8},
                      GridPoint{16, 0, 1}, GridPoint{3, 1, 3}),
    [](const ::testing::TestParamInfo<GridPoint> &info) {
        return "d" + std::to_string(info.param.depth) + "_l" +
               std::to_string(info.param.leeway) + "_n" +
               std::to_string(info.param.lanes);
    });
