/**
 * @file
 * pipellm_run: the one driver binary for declarative scenarios.
 *
 * The cluster-scaling, fault, soak and disaggregation experiments live
 * in committed .scenario files under bench/scenarios/; this binary
 * loads any number of them and runs their sweep matrices through
 * scenario::runScenario. Adding a sweep point (a 5th replica count,
 * another fault scale) is a scenario-file edit — no C++ changes, no
 * new binary. The scenario library never prints (src/ bans the printf
 * family), so progress lines go to stdout from here.
 *
 *   pipellm_run bench/scenarios/cluster_scale.scenario
 *   pipellm_run --quick cluster_scale faults soak
 *   pipellm_run --validate my_new_sweep.scenario
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/runner.hh"
#include "scenario/spec.hh"

namespace {

/**
 * Resolve @p arg to a scenario path: an existing file wins; a bare
 * name falls back to <scenario-dir>/<name>[.scenario] so
 * `pipellm_run cluster_scale` works from any build directory.
 */
std::string
resolveScenarioPath(const std::string &arg)
{
    if (std::ifstream(arg).good() || arg.find('/') != std::string::npos)
        return arg;
    std::string name = arg;
    if (std::filesystem::path(name).extension() != ".scenario")
        name += ".scenario";
    std::string fallback = std::string(PIPELLM_SCENARIO_DIR) + "/" + name;
    return std::ifstream(fallback).good() ? fallback : arg;
}

/** Load @p path or exit(1) with every parse and validation error. */
pipellm::scenario::ScenarioSpec
loadScenarioOrDie(const std::string &path)
{
    auto parsed = pipellm::scenario::loadScenario(path);
    if (!parsed.ok()) {
        for (const auto &e : parsed.errors)
            std::fprintf(stderr, "%s\n", e.c_str());
        std::exit(1);
    }
    auto problems = parsed.spec.validate();
    if (!problems.empty()) {
        for (const auto &e : problems)
            std::fprintf(stderr, "%s: %s\n", path.c_str(), e.c_str());
        std::exit(1);
    }
    return parsed.spec;
}

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--quick] [--out DIR] [--validate] "
        "[--dump] <scenario>...\n"
        "       %s --list\n"
        "  <scenario>   a .scenario file, or a bare name resolved\n"
        "               against the repo's bench/scenarios/\n"
        "  --quick      use the *_quick sweep axes (CI smoke)\n"
        "  --out DIR    CSV output directory (default bench_results)\n"
        "  --validate   parse + validate only, run nothing\n"
        "  --dump       print the canonical round-trip text, run\n"
        "               nothing\n"
        "  --list       list scenario kinds and committed scenarios\n",
        prog, prog);
    return 2;
}

int
listScenarios()
{
    std::printf("scenario kinds:\n");
    for (const auto &info : pipellm::scenario::scenarioKinds())
        std::printf("  %-14s %s\n", info.name, info.summary);

    std::printf("\ncommitted scenarios (%s):\n", PIPELLM_SCENARIO_DIR);
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(
             PIPELLM_SCENARIO_DIR, ec)) {
        if (entry.path().extension() == ".scenario")
            names.push_back(entry.path().filename().string());
    }
    if (ec) {
        std::fprintf(stderr, "cannot list %s: %s\n",
                     PIPELLM_SCENARIO_DIR, ec.message().c_str());
        return 1;
    }
    std::sort(names.begin(), names.end());
    for (const auto &name : names) {
        auto spec = loadScenarioOrDie(std::string(PIPELLM_SCENARIO_DIR) +
                                      "/" + name);
        std::printf("  %-24s kind %s\n", name.c_str(),
                    pipellm::scenario::toString(spec.kind));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    pipellm::scenario::RunOptions opts;
    opts.progress = [](const std::string &line) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    };
    bool validate_only = false;
    bool dump_only = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            opts.quick = true;
        } else if (arg == "--out" && i + 1 < argc) {
            opts.out_dir = argv[++i];
        } else if (arg == "--validate") {
            validate_only = true;
        } else if (arg == "--dump") {
            dump_only = true;
        } else if (arg == "--list") {
            return listScenarios();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty())
        return usage(argv[0]);

    for (const auto &file : files) {
        std::string path = resolveScenarioPath(file);
        auto spec = loadScenarioOrDie(path);
        if (dump_only) {
            std::fputs(pipellm::scenario::dumpScenario(spec).c_str(),
                       stdout);
            continue;
        }
        if (validate_only) {
            std::printf("%s: OK (%s, kind %s)\n", path.c_str(),
                        spec.name.c_str(),
                        pipellm::scenario::toString(spec.kind));
            continue;
        }
        auto summary = pipellm::scenario::runScenario(spec, opts);
        std::printf("scenario %s: %zu runs, %zu rows\n",
                    spec.name.c_str(), summary.runs, summary.rows);
        for (const auto &csv : summary.csv_paths)
            std::printf("  wrote %s\n", csv.c_str());
    }
    return 0;
}
