#include "scenario/mode.hh"

#include <iterator>

#include "common/units.hh"
#include "pipellm/pipellm_runtime.hh"
#include "runtime/cc_runtime.hh"
#include "runtime/plain_runtime.hh"

namespace pipellm {
namespace scenario {

namespace {

/** Rows in enum order, so a mode indexes its own row. */
constexpr SystemModeInfo modeTable[] = {
    {SystemMode::Plain, "Plain", "w/o CC"},
    {SystemMode::Cc, "Cc", "CC"},
    {SystemMode::Cc4t, "Cc4t", "CC-4t"},
    {SystemMode::Pipe, "Pipe", "PipeLLM"},
    {SystemMode::Pipe0, "Pipe0", "PipeLLM-0"},
};

constexpr bool
inEnumOrder()
{
    for (std::size_t i = 0; i < std::size(modeTable); ++i) {
        if (modeTable[i].mode != SystemMode(i))
            return false;
    }
    return true;
}
static_assert(inEnumOrder());

const SystemModeInfo &
infoOf(SystemMode mode)
{
    return modeTable[std::size_t(mode)];
}

} // namespace

std::span<const SystemModeInfo>
systemModes()
{
    return modeTable;
}

const char *
toString(SystemMode mode)
{
    return infoOf(mode).display;
}

const char *
keyOf(SystemMode mode)
{
    return infoOf(mode).key;
}

std::optional<SystemMode>
parseSystemMode(const std::string &name)
{
    for (const auto &info : modeTable) {
        if (name == info.key)
            return info.mode;
    }
    return std::nullopt;
}

core::PipeLlmConfig
offloadPipeConfig(const llm::ModelConfig &model)
{
    core::PipeLlmConfig cfg;
    // Model offloading must out-encrypt the 40 GB/s copy path, so
    // PipeLLM dedicates multiple CPU threads (§7.2; the paper's VM
    // has 16 vCPUs).
    cfg.enc_lanes = 10;
    cfg.dec_lanes = 1;
    cfg.pipeline_depth = 12;
    cfg.max_pipeline_bytes = 32 * GiB;
    // Layer chunks are GB-sized (hundreds of ms per lane); the stable
    // repetitive plan justifies booking the lanes far ahead.
    cfg.max_lane_lead = seconds(1);
    cfg.classifier.layer_param_bytes = model.layerParamBytes();
    return cfg;
}

core::PipeLlmConfig
kvPipeConfig(std::uint64_t kv_unit_bytes)
{
    core::PipeLlmConfig cfg;
    cfg.enc_lanes = 1;
    cfg.dec_lanes = 1;
    // The pipeline must cover whole preempted groups (hundreds of KV
    // blocks) so they pre-encrypt during the out->in window.
    cfg.pipeline_depth = 512;
    cfg.max_pipeline_bytes = 16 * GiB;
    cfg.classifier.kv_unit_bytes = kv_unit_bytes;
    return cfg;
}

std::unique_ptr<runtime::RuntimeApi>
makeRuntime(SystemMode mode, runtime::Platform &platform,
            const core::PipeLlmConfig &pipe_cfg,
            runtime::DeviceId device)
{
    switch (mode) {
      case SystemMode::Plain:
        return std::make_unique<runtime::PlainRuntime>(platform,
                                                       device);
      case SystemMode::Cc:
        return std::make_unique<runtime::CcRuntime>(platform, 1,
                                                    device);
      case SystemMode::Cc4t:
        return std::make_unique<runtime::CcRuntime>(platform, 4,
                                                    device);
      case SystemMode::Pipe:
        return std::make_unique<core::PipeLlmRuntime>(platform,
                                                      pipe_cfg,
                                                      device);
      case SystemMode::Pipe0: {
        auto cfg = pipe_cfg;
        cfg.predictor.sabotage_sequence = true;
        return std::make_unique<core::PipeLlmRuntime>(platform, cfg,
                                                      device);
      }
    }
    return nullptr;
}

} // namespace scenario
} // namespace pipellm
