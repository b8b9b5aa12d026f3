/**
 * @file
 * Scenario text format: parse/dump round-trips, error collection, and
 * the actionable-validation contract (ISSUE satellite: unknown keys,
 * out-of-range values and fault plans naming absent devices each
 * produce a message that tells the author what to fix).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.hh"

using namespace pipellm;
using namespace pipellm::scenario;

namespace {

/** The scenarios committed under bench/scenarios/. */
const char *const committedScenarios[] = {
    PIPELLM_SCENARIO_DIR "/cluster_scale.scenario",
    PIPELLM_SCENARIO_DIR "/disagg.scenario",
    PIPELLM_SCENARIO_DIR "/faults.scenario",
    PIPELLM_SCENARIO_DIR "/soak.scenario",
};

/** A minimal valid cluster_scale scenario to mutate in error tests. */
std::string
minimalText()
{
    return "[scenario]\n"
           "name = mini\n"
           "kind = cluster_scale\n"
           "[cluster]\n"
           "devices = 1 2\n"
           "modes = Cc\n";
}

/**
 * A soak-kind text setting every key the disagg text of
 * EveryFieldSurvivesTheDumpRoundTrip leaves at its default. The values
 * only need to parse: a soak scenario rejects [host] variants and
 * there is no second device preset, but the dump must carry them.
 */
std::string
soakEverythingText()
{
    return "[scenario]\n"
           "name = soak_everything\n"
           "kind = soak\n"
           "[cluster]\n"
           "devices = 3\n"
           "modes = Pipe\n"
           "[device]\n"
           "spec = h200\n"
           "[pipe]\n"
           "kind = offload\n"
           "[host shared]\n"
           "shared_crypto_lanes = 3\n"
           "bridge_gbps = 96.5\n"
           "bridge_latency_us = 2.5\n"
           "pipe_max_lane_lead_ms = 0.75\n"
           "[faults]\n"
           "tag_corruption_rate = 0.01\n"
           "copy_stall_rate = 0.005\n"
           "lane_fault_rate = 0.004\n"
           "replica_crash_rate = 0.04\n"
           "spdm_rekey_ms = 12.5\n"
           "warmup_probe_kib = 128\n"
           "storm_start_s = 8\n"
           "storm_end_s = 14\n"
           "storm_multiplier = 8\n"
           "dip_window_s = 3\n"
           "dip_recover_frac = 0.6\n"
           "[admission]\n"
           "shed = on\n"
           "service_cost_per_sec = 1000\n"
           "max_outstanding_cost = 20000\n"
           "[slo]\n"
           "floor_s = 20\n"
           "per_token_ms = 60\n"
           "[soak]\n"
           "phase = 48 16 0.8\n"
           "phase = 48 16 3.2\n"
           "goodput_window_s = 1.5\n"
           "recover_frac = 0.4\n"
           "[overload]\n"
           "multipliers = 1 2 4\n"
           "multipliers_quick = 1 4\n"
           "requests = 64\n"
           "requests_quick = 24\n"
           "rate_per_device = 0.9\n"
           "slo_floor_s = 1.5\n"
           "slo_per_token_ms = 12\n"
           "service_cost_per_sec = 3500\n";
}

bool
anyContains(const std::vector<std::string> &messages,
            const std::string &needle)
{
    for (const auto &m : messages) {
        if (m.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

} // namespace

TEST(ScenarioSpec, MinimalTextParsesAndValidates)
{
    auto parsed = parseScenario(minimalText());
    ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
    EXPECT_EQ(parsed.spec.name, "mini");
    EXPECT_EQ(parsed.spec.kind, ScenarioKind::ClusterScale);
    EXPECT_EQ(parsed.spec.csv, "mini.csv"); // defaulted from name
    EXPECT_EQ(parsed.spec.cluster.devices,
              (std::vector<unsigned>{1, 2}));
    EXPECT_TRUE(parsed.spec.validate().empty());
}

TEST(ScenarioSpec, CommittedScenariosLoadValidateAndRoundTrip)
{
    for (const char *path : committedScenarios) {
        SCOPED_TRACE(path);
        auto parsed = loadScenario(path);
        ASSERT_TRUE(parsed.ok())
            << (parsed.errors.empty() ? "" : parsed.errors.front());
        EXPECT_TRUE(parsed.spec.validate().empty());

        // dump -> parse must reproduce the exact spec (doubles are
        // printed shortest-round-trip).
        auto again = parseScenario(dumpScenario(parsed.spec), path);
        ASSERT_TRUE(again.ok())
            << (again.errors.empty() ? "" : again.errors.front());
        EXPECT_EQ(parsed.spec, again.spec);
        // And the canonical form is a fixed point.
        EXPECT_EQ(dumpScenario(parsed.spec), dumpScenario(again.spec));
    }
}

TEST(ScenarioSpec, UnknownKeysAreRejectedWithLocation)
{
    auto parsed =
        parseScenario(minimalText() + "tpyo_threads = 4\n", "mini");
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.errors, "unknown key"));
    EXPECT_TRUE(anyContains(parsed.errors, "tpyo_threads"));
    EXPECT_TRUE(anyContains(parsed.errors, "mini:7"));
}

TEST(ScenarioSpec, UnknownSectionIsRejected)
{
    auto parsed = parseScenario(minimalText() + "[tracee]\n");
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.errors, "unknown section"));
}

TEST(ScenarioSpec, AllParseErrorsAreCollectedNotJustTheFirst)
{
    auto parsed = parseScenario("[scenario]\n"
                                "bogus_one = 1\n"
                                "bogus_two = 2\n"
                                "name = x\n");
    ASSERT_EQ(parsed.errors.size(), 2u);
}

TEST(ScenarioSpec, NegativeBridgeBandwidthIsRejected)
{
    auto parsed = parseScenario(minimalText() +
                                "[host shared]\n"
                                "bridge_gbps = -1\n");
    ASSERT_TRUE(parsed.ok());
    auto problems = parsed.spec.validate();
    EXPECT_TRUE(anyContains(problems, "bridge_gbps is negative"));
}

TEST(ScenarioSpec, FaultPlanNamingAbsentDeviceIsRejected)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = mini\n"
                                "kind = fault_sweep\n"
                                "[cluster]\n"
                                "devices = 1 2\n"
                                "modes = Cc\n"
                                "[faults]\n"
                                "scales = 0 1\n"
                                "crash_devices = 5\n");
    ASSERT_TRUE(parsed.ok());
    auto problems = parsed.spec.validate();
    EXPECT_TRUE(anyContains(problems, "crash_devices names device 5"));
    EXPECT_TRUE(anyContains(problems, "ids 0..1"));
}

TEST(ScenarioSpec, KindSectionMismatchesAreRejected)
{
    // cluster_scale scenarios must not carry a fault plan.
    auto parsed = parseScenario(minimalText() +
                                "[faults]\n"
                                "tag_corruption_rate = 0.1\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.spec.validate(),
                            "does not inject faults"));

    // soak scenarios need phases and exactly one served system.
    auto soak = parseScenario("[scenario]\n"
                              "name = s\n"
                              "kind = soak\n"
                              "[cluster]\n"
                              "devices = 2\n"
                              "modes = Plain\n");
    ASSERT_TRUE(soak.ok());
    auto problems = soak.spec.validate();
    EXPECT_TRUE(anyContains(problems, "at least one [soak] phase"));
    EXPECT_TRUE(anyContains(problems, "exactly one of Cc or Pipe"));
}

TEST(ScenarioSpec, OutOfRangeProbabilityIsRejected)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = f\n"
                                "kind = fault_sweep\n"
                                "[cluster]\n"
                                "devices = 1\n"
                                "modes = Cc\n"
                                "[faults]\n"
                                "scales = 0 1\n"
                                "tag_corruption_rate = 1.5\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.spec.validate(),
                            "not a probability"));
}

TEST(ScenarioSpec, QuickAxesFallBackToFullAxes)
{
    auto parsed = parseScenario(minimalText());
    ASSERT_TRUE(parsed.ok());
    const auto &spec = parsed.spec;
    // No *_quick keys: quick runs use the full axes.
    EXPECT_EQ(spec.deviceAxis(true), spec.deviceAxis(false));
    EXPECT_EQ(spec.requestsPerDevice(true),
              spec.requestsPerDevice(false));

    auto quick = parseScenario(minimalText() +
                               "devices_quick = 1\n"
                               "[trace]\n"
                               "requests_per_device = 48\n"
                               "requests_per_device_quick = 8\n");
    ASSERT_TRUE(quick.ok());
    EXPECT_EQ(quick.spec.deviceAxis(true),
              (std::vector<unsigned>{1}));
    EXPECT_EQ(quick.spec.requestsPerDevice(true), 8u);
    EXPECT_EQ(quick.spec.requestsPerDevice(false), 48u);
}

TEST(ScenarioSpec, HostAxisDefaultsToOnePrivateVariant)
{
    auto parsed = parseScenario(minimalText());
    ASSERT_TRUE(parsed.ok());
    auto hosts = parsed.spec.hostAxis();
    ASSERT_EQ(hosts.size(), 1u);
    EXPECT_EQ(hosts[0], HostVariantSpec{});
    EXPECT_EQ(hosts[0].name, "private");
}

TEST(ScenarioSpec, SystemModeNamesRoundTrip)
{
    for (SystemMode m : {SystemMode::Plain, SystemMode::Cc,
                         SystemMode::Cc4t, SystemMode::Pipe,
                         SystemMode::Pipe0}) {
        auto back = parseSystemMode(keyOf(m));
        ASSERT_TRUE(back.has_value()) << keyOf(m);
        EXPECT_EQ(*back, m);
    }
    EXPECT_FALSE(parseSystemMode("NotASystem").has_value());
    EXPECT_STREQ(toString(SystemMode::Plain), "w/o CC");
    EXPECT_STREQ(toString(SystemMode::Pipe), "PipeLLM");
}

TEST(ScenarioSpec, KindRegistryCoversEveryKindWithUniqueNames)
{
    const auto &kinds = scenarioKinds();
    ASSERT_EQ(kinds.size(), 4u);
    for (const auto &info : kinds) {
        // The registry name is the `kind =` spelling.
        auto parsed = parseScenario(std::string("[scenario]\n"
                                                "name = k\n"
                                                "kind = ") +
                                    info.name + "\n");
        ASSERT_TRUE(parsed.ok()) << info.name;
        EXPECT_EQ(parsed.spec.kind, info.kind);
        EXPECT_STREQ(toString(info.kind), info.name);
        EXPECT_NE(std::string(info.summary), "");
    }
}

TEST(ScenarioSpec, UnknownKindSuggestsTheNearestValidKind)
{
    EXPECT_EQ(nearestScenarioKind("disag"), "disagg");
    EXPECT_EQ(nearestScenarioKind("fault_swep"), "fault_sweep");
    EXPECT_EQ(nearestScenarioKind("sok"), "soak");

    auto parsed = parseScenario("[scenario]\n"
                                "name = x\n"
                                "kind = cluster_scal\n",
                                "x");
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.errors, "unknown kind"));
    EXPECT_TRUE(anyContains(parsed.errors,
                            "did you mean 'cluster_scale'?"));
}

TEST(ScenarioSpec, EveryFieldSurvivesTheDumpRoundTrip)
{
    // Two texts that between them set every key of the format to a
    // non-default value — a disagg one (crash_devices and the
    // migration fields) and soakEverythingText() — so a field dropped
    // from dumpScenario() fails here, not in a sweep.
    const std::string disagg_text = ("[scenario]\n"
                                "name = everything\n"
                                "kind = disagg\n"
                                "csv = everything_rows.csv\n"
                                "[cluster]\n"
                                "devices = 2 4\n"
                                "devices_quick = 2\n"
                                "modes = Cc Pipe\n"
                                "policy = least_loaded\n"
                                "[device]\n"
                                "channel_sample_limit = 128\n"
                                "[engine]\n"
                                "model = opt13b\n"
                                "parallel_sampling = 4\n"
                                "[trace]\n"
                                "dataset = alpaca\n"
                                "max_len = 512\n"
                                "seed = 7\n"
                                "rate_per_device = 1.25\n"
                                "requests_per_device = 20\n"
                                "requests_per_device_quick = 10\n"
                                "[disagg]\n"
                                "prefill_replicas = 1\n"
                                "chunk_kib = 512\n"
                                "pipeline_depth = 8\n"
                                "[faults]\n"
                                "seed = 99\n"
                                "replica_restart_rate = 0.25\n"
                                "migration_tag_rate = 0.001\n"
                                "migration_stall_rate = 0.002\n"
                                "dest_crash_rate = 0.0005\n"
                                "migration_stall_timeout_us = 120\n"
                                "max_migration_attempts = 6\n"
                                "crash_devices = 1 3\n"
                                "scales = 0 1 2\n"
                                "scales_quick = 0 1\n");
    auto parsed = parseScenario(disagg_text);
    ASSERT_TRUE(parsed.ok())
        << (parsed.errors.empty() ? "" : parsed.errors.front());
    ASSERT_TRUE(parsed.spec.validate().empty())
        << parsed.spec.validate().front();

    const auto &spec = parsed.spec;
    EXPECT_EQ(spec.disagg.prefill_replicas, 1u);
    EXPECT_EQ(spec.disagg.chunk_kib, 512.0);
    EXPECT_EQ(spec.disagg.pipeline_depth, 8u);
    EXPECT_EQ(spec.faults.migration_stall_timeout_us, 120.0);
    EXPECT_EQ(spec.faults.max_migration_attempts, 6u);
    EXPECT_EQ(spec.faults.crash_devices,
              (std::vector<unsigned>{1, 3}));

    auto again = parseScenario(dumpScenario(spec), "round-trip");
    ASSERT_TRUE(again.ok())
        << (again.errors.empty() ? "" : again.errors.front());
    EXPECT_EQ(spec, again.spec);

    std::set<std::pair<std::string, std::string>> keys_set;
    for (const std::string &text : {disagg_text, soakEverythingText()}) {
        auto full = parseScenario(text, "full");
        ASSERT_TRUE(full.ok()) << full.errors.front();
        auto back = parseScenario(dumpScenario(full.spec), "dump");
        ASSERT_TRUE(back.ok()) << back.errors.front();
        EXPECT_EQ(full.spec, back.spec);

        // Every key line must land in the spec with a non-default
        // value: dropping it has to change what parses.
        std::vector<std::string> lines;
        std::istringstream is(text);
        for (std::string line; std::getline(is, line);)
            lines.push_back(line);
        std::string section;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string &line = lines[i];
            if (line.front() == '[') {
                section = line.substr(1, line.find_first_of(" ]") - 1);
                continue;
            }
            keys_set.insert({section, line.substr(0, line.find(' '))});
            std::string without;
            for (std::size_t j = 0; j < lines.size(); ++j) {
                if (j != i)
                    without += lines[j] + "\n";
            }
            auto dropped = parseScenario(without, "dropped");
            ASSERT_TRUE(dropped.ok()) << line;
            EXPECT_NE(dropped.spec, full.spec)
                << "'" << line << "' sets its default value";
        }
    }
    // 62 keys across 13 sections ([host <name>] counted once).
    EXPECT_EQ(keys_set.size(), 62u);
}

TEST(ScenarioSpec, NonFiniteNumbersAreRejectedNamingTheKey)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = f\n"
                                "kind = fault_sweep\n"
                                "[trace]\n"
                                "rate_per_device = nan\n"
                                "[faults]\n"
                                "tag_corruption_rate = -nan\n"
                                "scales = 0 inf\n"
                                "[soak]\n"
                                "phase = 4 2 inf\n",
                                "f");
    ASSERT_EQ(parsed.errors.size(), 4u);
    EXPECT_TRUE(anyContains(parsed.errors,
                            "f:5: bad value 'nan' for rate_per_device"));
    EXPECT_TRUE(anyContains(parsed.errors,
                            "'-nan' for tag_corruption_rate"));
    EXPECT_TRUE(anyContains(parsed.errors, "'inf' for scales"));
    EXPECT_TRUE(anyContains(parsed.errors, "'4 2 inf' for phase"));
    // The rejected values never reach the spec.
    EXPECT_EQ(parsed.spec.trace.rate_per_device,
              TraceSpec{}.rate_per_device);
    EXPECT_EQ(parsed.spec.faults.scales, FaultSpec{}.scales);
}

TEST(ScenarioSpec, RepeatedKeyIsRejected)
{
    auto parsed =
        parseScenario(minimalText() + "modes = Pipe\n", "mini");
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_TRUE(anyContains(parsed.errors, "mini:7"));
    EXPECT_TRUE(anyContains(parsed.errors,
                            "repeated key 'modes' in [cluster] (first "
                            "set on line 6)"));
}

TEST(ScenarioSpec, RepeatedSectionIsRejected)
{
    auto parsed = parseScenario(minimalText() +
                                "[faults]\n"
                                "seed = 3\n"
                                "[faults]\n"
                                "seed = 4\n",
                                "mini");
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_TRUE(anyContains(parsed.errors,
                            "mini:9: repeated section [faults] (first "
                            "opened on line 7)"));
}

TEST(ScenarioSpec, PhaseLinesAndHostSectionsMayRepeat)
{
    auto parsed = parseScenario(soakEverythingText() +
                                "[host second]\n"
                                "bridge_gbps = 40\n");
    ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
    const auto &phases = parsed.spec.soak.phases;
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0], (SoakPhaseSpec{48, 16, 0.8}));
    EXPECT_EQ(phases[1], (SoakPhaseSpec{48, 16, 3.2}));
    ASSERT_EQ(parsed.spec.hosts.size(), 2u);
    EXPECT_EQ(parsed.spec.hosts[1].name, "second");
    EXPECT_EQ(parsed.spec.hosts[1].bridge_gbps, 40.0);
}

TEST(ScenarioSpec, EmptyListWithNonEmptyDefaultSurvivesTheDump)
{
    // [faults] scales defaults to "0"; a soak scenario may clear it,
    // and the dump must not silently restore the default.
    auto parsed = parseScenario("[scenario]\n"
                                "name = s\n"
                                "kind = soak\n"
                                "[cluster]\n"
                                "devices = 2\n"
                                "modes = Pipe\n"
                                "[faults]\n"
                                "scales =\n"
                                "[soak]\n"
                                "phase = 8 4 1\n");
    ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
    ASSERT_TRUE(parsed.spec.validate().empty());
    ASSERT_TRUE(parsed.spec.faults.scales.empty());
    auto again = parseScenario(dumpScenario(parsed.spec), "dump");
    ASSERT_TRUE(again.ok()) << again.errors.front();
    EXPECT_EQ(parsed.spec, again.spec);
}

TEST(ScenarioSpec, RangeRulesCoverListEntries)
{
    auto parsed = parseScenario("[scenario]\n"
                                "name = f\n"
                                "kind = fault_sweep\n"
                                "[cluster]\n"
                                "devices = 0 2\n"
                                "modes = Cc\n"
                                "[faults]\n"
                                "scales = 0 -1\n");
    ASSERT_TRUE(parsed.ok());
    auto problems = parsed.spec.validate();
    EXPECT_TRUE(anyContains(problems,
                            "[cluster] devices must be at least 1 "
                            "(got 0)"));
    EXPECT_TRUE(anyContains(problems,
                            "[faults] scales is negative (got -1)"));
}

TEST(ScenarioSpec, DisaggSectionAndRatesRejectedOutsideDisaggKind)
{
    // A [disagg] section on a cluster_scale scenario is a mistake.
    auto parsed = parseScenario(minimalText() +
                                "[disagg]\n"
                                "chunk_kib = 128\n");
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(anyContains(parsed.spec.validate(), "[disagg]"));

    // Migration fault rates on a fault_sweep scenario never fire.
    auto sweep = parseScenario("[scenario]\n"
                               "name = f\n"
                               "kind = fault_sweep\n"
                               "[cluster]\n"
                               "devices = 1 2\n"
                               "modes = Cc\n"
                               "[faults]\n"
                               "scales = 0 1\n"
                               "migration_tag_rate = 0.1\n");
    ASSERT_TRUE(sweep.ok());
    EXPECT_TRUE(anyContains(sweep.spec.validate(),
                            "nothing migrates"));
}

TEST(ScenarioSpec, DisaggKindNeedsRoomForBothRoles)
{
    // A single-device disagg scenario has no decode side to migrate
    // to; prefill_replicas must leave at least one decode replica.
    auto parsed = parseScenario("[scenario]\n"
                                "name = d\n"
                                "kind = disagg\n"
                                "[cluster]\n"
                                "devices = 1 2\n"
                                "modes = Cc\n"
                                "[disagg]\n"
                                "prefill_replicas = 1\n");
    ASSERT_TRUE(parsed.ok());
    auto problems = parsed.spec.validate();
    EXPECT_TRUE(anyContains(problems,
                            "devices entry must be at least 2"));

    auto hog = parseScenario("[scenario]\n"
                             "name = d\n"
                             "kind = disagg\n"
                             "[cluster]\n"
                             "devices = 2\n"
                             "modes = Cc\n"
                             "[disagg]\n"
                             "prefill_replicas = 2\n");
    ASSERT_TRUE(hog.ok());
    EXPECT_TRUE(anyContains(hog.spec.validate(), "prefill_replicas"));
}
