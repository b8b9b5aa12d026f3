/**
 * @file
 * The one source of truth for the systems the evaluation compares.
 *
 * Every bench used to carry its own copy of this enum, its display
 * names, and the switch instantiating the matching runtime; scenario
 * files and benches now share one vocabulary, so "Cc" in a .scenario
 * file, the "CC" column in a committed CSV, and the CcRuntime the
 * router boots are guaranteed to mean the same system.
 */

#ifndef PIPELLM_SCENARIO_MODE_HH
#define PIPELLM_SCENARIO_MODE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "llm/model.hh"
#include "pipellm/config.hh"
#include "runtime/api.hh"
#include "runtime/platform.hh"

namespace pipellm {
namespace scenario {

/** The systems compared across the evaluation. */
enum class SystemMode : std::uint8_t
{
    Plain, ///< "w/o CC"
    Cc,    ///< NVIDIA CC, 1 crypto thread
    Cc4t,  ///< NVIDIA CC, 4 crypto threads (Fig. 9)
    Pipe,  ///< PipeLLM
    Pipe0, ///< PipeLLM with 0% sequence-prediction success (Fig. 10)
};

/** One system's spellings: its .scenario identifier and CSV name. */
struct SystemModeInfo
{
    SystemMode mode;
    const char *key;     ///< identifier used in .scenario files
    const char *display; ///< display name in figures and CSV columns
};

/** Every system, in declaration order: the one name table. */
std::span<const SystemModeInfo> systemModes();

/** Display name used in figures and committed CSV columns. */
const char *toString(SystemMode mode);

/** Identifier used in .scenario files (Plain/Cc/Cc4t/Pipe/Pipe0). */
const char *keyOf(SystemMode mode);

/** Parse a scenario-file identifier; nullopt on unknown names. */
std::optional<SystemMode> parseSystemMode(const std::string &name);

/** PipeLLM configuration for model-offloading workloads (§7.2). */
core::PipeLlmConfig offloadPipeConfig(const llm::ModelConfig &model);

/** PipeLLM configuration for KV-cache swapping (vLLM: 1+1 threads). */
core::PipeLlmConfig kvPipeConfig(std::uint64_t kv_unit_bytes);

/** Instantiate the runtime for @p mode on @p platform's @p device. */
std::unique_ptr<runtime::RuntimeApi> makeRuntime(
    SystemMode mode, runtime::Platform &platform,
    const core::PipeLlmConfig &pipe_cfg, runtime::DeviceId device = 0);

} // namespace scenario
} // namespace pipellm

#endif // PIPELLM_SCENARIO_MODE_HH
