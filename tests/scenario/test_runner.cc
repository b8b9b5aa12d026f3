/**
 * @file
 * End-to-end runScenario smoke over every committed .scenario file —
 * exactly what `pipellm_run --quick` executes in CI — plus the
 * byte-identity pin: the quick cluster_scale sweep must reproduce the
 * committed bench_results/cluster_scale.csv bit for bit (the
 * committed file IS the quick run's output; see EXPERIMENTS.md).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "scenario/runner.hh"
#include "scenario/spec.hh"

using namespace pipellm;
using namespace pipellm::scenario;

namespace {

/** Repo root, derived from the committed scenario directory. */
const std::filesystem::path repoRoot =
    std::filesystem::path(PIPELLM_SCENARIO_DIR).parent_path()
        .parent_path();

ScenarioSpec
load(const std::string &name)
{
    auto parsed = loadScenario(std::string(PIPELLM_SCENARIO_DIR) +
                               "/" + name + ".scenario");
    PIPELLM_ASSERT(parsed.ok(), "cannot load scenario ", name);
    PIPELLM_ASSERT(parsed.spec.validate().empty(),
                   "scenario ", name, " fails validation");
    return parsed.spec;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A fresh output directory per test, cleaned up after. */
struct TempOutDir
{
    std::filesystem::path dir;

    explicit TempOutDir(const char *tag)
        : dir(std::filesystem::path("scenario_runner_out") / tag)
    {
        std::filesystem::remove_all(dir);
    }
    // Remove only this test's tagged directory: ctest runs the tests
    // in this suite as parallel processes sharing a cwd, so removing
    // the common parent would delete a sibling's CSVs mid-test.
    ~TempOutDir() { std::filesystem::remove_all(dir); }
};

RunOptions
quickOpts(const TempOutDir &out)
{
    RunOptions opts;
    opts.quick = true;
    opts.out_dir = out.dir.string();
    return opts;
}

} // namespace

TEST(ScenarioRunner, QuickClusterScaleReproducesCommittedCsv)
{
    TempOutDir out("cluster_scale");
    auto summary = runScenario(load("cluster_scale"), quickOpts(out));

    // 2 hosts x 3 modes x 2 device counts, one row per replica.
    EXPECT_EQ(summary.runs, 12u);
    EXPECT_EQ(summary.rows, 18u);
    ASSERT_EQ(summary.csv_paths.size(), 1u);

    auto produced = slurp(summary.csv_paths.front());
    auto committed =
        slurp(repoRoot / "bench_results" / "cluster_scale.csv");
    EXPECT_EQ(produced, committed);
}

TEST(ScenarioRunner, QuickFaultSweepWritesRows)
{
    TempOutDir out("faults");
    auto summary = runScenario(load("faults"), quickOpts(out));

    // 2 modes x 2 device counts x 2 scales, one row per replica.
    EXPECT_EQ(summary.runs, 8u);
    EXPECT_EQ(summary.rows, 12u);
    ASSERT_EQ(summary.csv_paths.size(), 1u);
    EXPECT_TRUE(std::filesystem::exists(summary.csv_paths.front()));

    // The header row is the frozen 31-column prefix plus the appended
    // recovery metrics.
    std::istringstream in(slurp(summary.csv_paths.front()));
    std::string header;
    std::getline(in, header);
    EXPECT_NE(header.find("replica_lost_tokens"), std::string::npos);
    EXPECT_NE(header.find("goodput_dip_depth"), std::string::npos);
}

TEST(ScenarioRunner, QuickSoakWritesAllThreeCsvs)
{
    TempOutDir out("soak");
    auto summary = runScenario(load("soak"), quickOpts(out));

    // One soak run + 2 shed settings x 2 quick multipliers.
    EXPECT_EQ(summary.runs, 5u);
    ASSERT_EQ(summary.csv_paths.size(), 3u);
    for (const auto &path : summary.csv_paths)
        EXPECT_TRUE(std::filesystem::exists(path)) << path;
    EXPECT_NE(summary.csv_paths[1].find("soak_disturbances.csv"),
              std::string::npos);
    EXPECT_NE(summary.csv_paths[2].find("soak_overload.csv"),
              std::string::npos);
}

TEST(ScenarioRunner, ProgressSinkReceivesSweepNarration)
{
    TempOutDir out("progress");
    auto opts = quickOpts(out);
    std::vector<std::string> lines;
    opts.progress = [&](const std::string &line) {
        lines.push_back(line);
    };
    runScenario(load("cluster_scale"), opts);

    ASSERT_FALSE(lines.empty());
    bool saw_mode = false;
    for (const auto &line : lines)
        saw_mode = saw_mode || line.find("PipeLLM") != std::string::npos;
    EXPECT_TRUE(saw_mode);
}
