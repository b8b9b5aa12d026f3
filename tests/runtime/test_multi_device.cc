/**
 * @file
 * Multi-device Platform: each DeviceContext is a full machine slice
 * (GPU, PCIe links, CC session, staged copy paths), so runtimes on
 * different devices share nothing but host DRAM — in particular each
 * device's IV counters and session key are its own.
 */

#include <gtest/gtest.h>

#include "pipellm/pipellm_runtime.hh"
#include "runtime/cc_runtime.hh"
#include "runtime/plain_runtime.hh"

using namespace pipellm;
using namespace pipellm::runtime;

namespace {

struct TwoDeviceFixture : ::testing::Test
{
    Platform platform{gpu::SystemSpec::h100(),
                      crypto::ChannelConfig{}, 2};
};

} // namespace

TEST_F(TwoDeviceFixture, ContextsAreDistinctMachineSlices)
{
    ASSERT_EQ(platform.numDevices(), 2u);
    EXPECT_NE(&platform.device(0).gpu(), &platform.device(1).gpu());
    EXPECT_NE(&platform.device(0).channel(),
              &platform.device(1).channel());
    EXPECT_NE(&platform.device(0).h2dPath(),
              &platform.device(1).h2dPath());
    EXPECT_EQ(platform.device(0).id(), 0u);
    EXPECT_EQ(platform.device(1).id(), 1u);
}

TEST_F(TwoDeviceFixture, GpuShorthandNamesTheDevice)
{
    EXPECT_EQ(&platform.gpu(0), &platform.device(0).gpu());
    EXPECT_EQ(&platform.gpu(1), &platform.device(1).gpu());
}

TEST_F(TwoDeviceFixture, OutOfRangeDeviceDies)
{
    EXPECT_DEATH(platform.device(2), "device");
}

TEST_F(TwoDeviceFixture, PerDeviceSessionKeysDiffer)
{
    // A ciphertext sealed for device 0's session must not open under
    // device 1's key, even at the right counter.
    std::vector<std::uint8_t> payload(256, 0xa5);
    auto blob = platform.device(0).channel().seal(
        crypto::Direction::HostToDevice, 1, payload.data(),
        payload.size());
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(platform.device(1).channel().open(blob, 1, out));
    EXPECT_TRUE(platform.device(0).channel().open(blob, 1, out));
}

TEST_F(TwoDeviceFixture, InterleavedH2dAdvancesCountersIndependently)
{
    CcRuntime rt0(platform, 1, 0);
    CcRuntime rt1(platform, 1, 1);
    mem::Region host = platform.allocHost(64 * MiB, "host");
    mem::Region dev0 = platform.gpu(0).alloc(64 * MiB, "dev0");
    mem::Region dev1 = platform.gpu(1).alloc(64 * MiB, "dev1");

    Stream &s0 = rt0.createStream("s0");
    Stream &s1 = rt1.createStream("s1");

    // 3 transfers on device 0 interleaved with 2 on device 1: were
    // the devices sharing a lockstep counter pair, every tag after
    // the first interleave would mismatch.
    Tick t0 = 0, t1 = 0;
    t0 = rt0.memcpyAsync(CopyKind::HostToDevice, dev0.base, host.base,
                         1 * MiB, s0, t0).api_return;
    t1 = rt1.memcpyAsync(CopyKind::HostToDevice, dev1.base, host.base,
                         1 * MiB, s1, t1).api_return;
    t0 = rt0.memcpyAsync(CopyKind::HostToDevice, dev0.base, host.base,
                         1 * MiB, s0, t0).api_return;
    t1 = rt1.memcpyAsync(CopyKind::HostToDevice, dev1.base, host.base,
                         1 * MiB, s1, t1).api_return;
    rt0.memcpyAsync(CopyKind::HostToDevice, dev0.base, host.base,
                    1 * MiB, s0, t0);

    EXPECT_EQ(platform.gpu(0).rxCounter(), 3u);
    EXPECT_EQ(platform.gpu(1).rxCounter(), 2u);
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
    EXPECT_EQ(platform.gpu(1).integrityFailures(), 0u);
}

TEST_F(TwoDeviceFixture, InterleavedD2hAdvancesCountersIndependently)
{
    CcRuntime rt0(platform, 1, 0);
    CcRuntime rt1(platform, 1, 1);
    mem::Region host = platform.allocHost(64 * MiB, "host");
    mem::Region dev0 = platform.gpu(0).alloc(64 * MiB, "dev0");
    mem::Region dev1 = platform.gpu(1).alloc(64 * MiB, "dev1");

    Stream &s0 = rt0.createStream("s0");
    Stream &s1 = rt1.createStream("s1");

    Tick t0 = 0, t1 = 0;
    t0 = rt0.memcpyAsync(CopyKind::DeviceToHost, host.base, dev0.base,
                         1 * MiB, s0, t0).api_return;
    t1 = rt1.memcpyAsync(CopyKind::DeviceToHost, host.base, dev1.base,
                         1 * MiB, s1, t1).api_return;
    rt0.memcpyAsync(CopyKind::DeviceToHost, host.base, dev0.base,
                    1 * MiB, s0, t0);

    EXPECT_EQ(platform.gpu(0).txCounter(), 2u);
    EXPECT_EQ(platform.gpu(1).txCounter(), 1u);
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
    EXPECT_EQ(platform.gpu(1).integrityFailures(), 0u);
}

TEST_F(TwoDeviceFixture, DeviceOneTrafficDoesNotSlowDeviceZero)
{
    // Device 0's PCIe and crypto are its own: a reference platform
    // with a single device must time the same transfer identically
    // even while device 1 is saturated.
    Platform ref(gpu::SystemSpec::h100(), crypto::ChannelConfig{}, 1);
    CcRuntime ref_rt(ref, 1, 0);
    mem::Region ref_host = ref.allocHost(64 * MiB, "host");
    mem::Region ref_dev = ref.gpu(0).alloc(64 * MiB, "dev");
    Stream &ref_s = ref_rt.createStream("s");
    auto expect = ref_rt.memcpyAsync(CopyKind::HostToDevice,
                                     ref_dev.base, ref_host.base,
                                     8 * MiB, ref_s, 0);

    CcRuntime rt0(platform, 1, 0);
    CcRuntime rt1(platform, 1, 1);
    mem::Region host = platform.allocHost(64 * MiB, "host");
    mem::Region dev0 = platform.gpu(0).alloc(64 * MiB, "dev0");
    mem::Region dev1 = platform.gpu(1).alloc(64 * MiB, "dev1");
    Stream &s0 = rt0.createStream("s0");
    Stream &s1 = rt1.createStream("s1");
    for (int i = 0; i < 4; ++i)
        rt1.memcpyAsync(CopyKind::HostToDevice, dev1.base, host.base,
                        8 * MiB, s1, 0);
    auto got = rt0.memcpyAsync(CopyKind::HostToDevice, dev0.base,
                               host.base, 8 * MiB, s0, 0);

    EXPECT_EQ(got.api_return, expect.api_return);
    EXPECT_EQ(got.complete, expect.complete);
}

TEST_F(TwoDeviceFixture, PipeLlmSpeculationStatePerDevice)
{
    // Two PipeLLM runtimes, one per device: device 0's counter track
    // must match a single-device reference run regardless of what
    // device 1's speculation consumes.
    core::PipeLlmConfig cfg;
    cfg.classifier.kv_unit_bytes = 1 * MiB;

    Platform ref(gpu::SystemSpec::h100(), crypto::ChannelConfig{}, 1);
    core::PipeLlmRuntime ref_rt(ref, cfg, 0);
    mem::Region ref_host = ref.allocHost(64 * MiB, "host");
    mem::Region ref_dev = ref.gpu(0).alloc(64 * MiB, "dev");
    Stream &ref_s = ref_rt.createStream("s");
    Tick rt = 0;
    for (int i = 0; i < 3; ++i)
        rt = ref_rt.memcpyAsync(CopyKind::HostToDevice,
                                ref_dev.base + i * MiB,
                                ref_host.base + i * MiB, 1 * MiB,
                                ref_s, rt).api_return;
    ref_rt.synchronize(rt);

    core::PipeLlmRuntime rt0(platform, cfg, 0);
    core::PipeLlmRuntime rt1(platform, cfg, 1);
    mem::Region host = platform.allocHost(64 * MiB, "host");
    mem::Region dev0 = platform.gpu(0).alloc(64 * MiB, "dev0");
    mem::Region dev1 = platform.gpu(1).alloc(64 * MiB, "dev1");
    Stream &s0 = rt0.createStream("s0");
    Stream &s1 = rt1.createStream("s1");

    Tick t0 = 0, t1 = 0;
    for (int i = 0; i < 3; ++i) {
        t0 = rt0.memcpyAsync(CopyKind::HostToDevice, dev0.base + i * MiB,
                             host.base + i * MiB, 1 * MiB, s0, t0)
                 .api_return;
        // Device 1 interleaves a different (larger) traffic mix.
        t1 = rt1.memcpyAsync(CopyKind::HostToDevice, dev1.base,
                             host.base, 2 * MiB, s1, t1).api_return;
        t1 = rt1.memcpyAsync(CopyKind::DeviceToHost, host.base,
                             dev1.base, 2 * MiB, s1, t1).api_return;
    }
    rt0.synchronize(t0);
    rt1.synchronize(t1);

    EXPECT_EQ(rt0.h2dCounter(), ref_rt.h2dCounter());
    EXPECT_EQ(platform.gpu(0).rxCounter(), ref.gpu(0).rxCounter());
    EXPECT_NE(rt1.h2dCounter(), 0u);
    EXPECT_EQ(platform.gpu(0).integrityFailures(), 0u);
    EXPECT_EQ(platform.gpu(1).integrityFailures(), 0u);
}
