/**
 * @file
 * perfbench: run one benchmark workload and print every metric.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out <dir>]
 *
 * A run builds the workload's inputs from the seed. It first times
 * set-up slices (set-up-only passes repeated for a fixed time each),
 * then runs one full pass over every unit of the workload, then
 * repeats single units in turn (fresh platforms each time) while the
 * next one still ends within --seconds. Every simulation runs on the
 * main thread, and host time is that thread's CPU time. A fixed
 * calibration workload, timed before every slice and simulation,
 * gives the machine's speed at the moment: setup_s (the median of the
 * slices' means) and host_ref_us_per_xfer (the median over all unit
 * runs of host microseconds per simulated transfer) are scaled by the
 * calibrations' median to the reference machine's speed. Simulated
 * values come from the full pass; every repeat must reproduce its
 * runs exactly. --trace 1 adds one traced full pass whose spans go to
 * <out>/<workload>-seed<n>.trace.json and prints the per-layer
 * metrics instead of the end-to-end ones. The last line of stdout is
 * one JSON object; the exit code is non-zero when an output check
 * fails, the metric arithmetic fails its self-tests, or the build is
 * not optimised.
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "metrics.hh"
#include "registry.hh"
#include "spans.hh"
#include "workloads.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/** Unit runs per run at the least, however long each one takes. */
constexpr std::size_t kMinUnitRuns = 5;

/**
 * Host seconds of one set-up slice: set-up-only passes repeated this
 * long and timed as a batch. One set-up takes under a millisecond, so
 * a slice's mean is steadier than any single sample.
 */
constexpr double kSetupSliceSeconds = 0.1;

/** Set-up slices per run. They come first, so every run times set-up
 *  on a heap that no simulation has churned yet. */
constexpr std::size_t kSetupSlices = 10;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".bench_out";
};

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc) {
            err = "missing value after " + k;
            return false;
        }
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                err = "--trace takes 0 or 1";
        } else if (k == "--out") {
            a.out = v;
        } else {
            err = "unknown argument " + k;
        }
        if (end && *end)
            err = "malformed number for " + k + ": " + v;
        if (!err.empty())
            return false;
    }
    if (a.workload.empty())
        err = "--workload is required";
    if (a.seconds <= 0)
        err = "--seconds must be positive";
    return err.empty();
}

/** Host facts every result is stamped with. */
struct HostStamp
{
    unsigned cores = std::thread::hardware_concurrency();
    std::string cpu = "unknown";
    bool aes = false, vaes = false, vpclmulqdq = false;
    std::string compiler =
#if defined(__clang__)
        "clang " __clang_version__;
#elif defined(__GNUC__)
        "gcc " __VERSION__;
#else
        "unknown";
#endif
    std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
    bool optimised = true;
#else
    bool optimised = false;
#endif

    HostStamp()
    {
#if defined(__x86_64__) || defined(__i386__)
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (__get_cpuid(1, &a, &b, &c, &d))
            aes = c & (1u << 25);
        if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
            vaes = c & (1u << 9);
            vpclmulqdq = c & (1u << 10);
        }
        char brand[49] = {};
        if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
            for (unsigned i = 0; i < 3; ++i) {
                __get_cpuid(0x80000002 + i, &a, &b, &c, &d);
                std::memcpy(brand + 16 * i, &a, 4);
                std::memcpy(brand + 16 * i + 4, &b, 4);
                std::memcpy(brand + 16 * i + 8, &c, 4);
                std::memcpy(brand + 16 * i + 12, &d, 4);
            }
            cpu = brand;
            cpu.erase(0, cpu.find_first_not_of(' '));
        }
#endif
    }

    void
    print() const
    {
        std::printf("host cores=%u cpu=\"%s\" aes=%d vaes=%d "
                    "vpclmulqdq=%d compiler=\"%s\" build=%s "
                    "optimised=%d\n",
                    cores, cpu.c_str(), aes, vaes, vpclmulqdq,
                    compiler.c_str(), build_type.c_str(), optimised);
    }
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void
printMetric(const std::string &name, double value)
{
    const MetricInfo *m = findMetric(name);
    std::printf("metric %-28s %.9g %s\n", name.c_str(), value,
                m ? m->unit : "?");
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const NamedValues &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    bool first = true;
    for (const auto &[name, value] : metrics) {
        const MetricInfo *m = findMetric(name);
        // JSON has no NaN or infinity; main() fails the run on them.
        std::printf("%s%s: {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", jsonString(name).c_str(),
                    std::isfinite(value) ? value : 0.0, m ? m->unit : "?");
        first = false;
    }
    std::printf("}}\n");
}

/**
 * The first run-level simulated value of @p part (the per-layer
 * "layer." entries aside, which pool a pass's runs) that @p whole
 * lacks or holds with another value; empty when there is none.
 */
std::string
firstMismatch(const NamedValues &part, const NamedValues &whole)
{
    std::map<std::string, double> all(whole.begin(), whole.end());
    for (const auto &[name, value] : part) {
        if (name.rfind("layer.", 0) == 0)
            continue;
        auto it = all.find(name);
        if (it == all.end() || it->second != value)
            return name;
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string err;
    if (!parseArgs(argc, argv, args, err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 2;
    }

    std::string failure;
    if (runSelfTests(failure) != 0) {
        std::fprintf(stderr, "perfbench: metric self-test failed: %s\n",
                     failure.c_str());
        return 2;
    }

    HostStamp host;
    host.print();
    if (!host.optimised) {
        std::fprintf(stderr, "perfbench: refusing to report host metrics "
                             "from a non-optimised build\n");
        return 3;
    }

    bool known = false;
    for (const auto &w : workloads())
        known |= args.workload == w;
    if (!known) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                args.seconds, int(args.trace));

    std::vector<std::string> failures;
    // Inputs: the same seed must give the same inputs, another seed
    // other inputs.
    std::uint64_t inputs = inputFingerprint(args.workload, args.seed);
    if (inputs != inputFingerprint(args.workload, args.seed))
        failures.push_back("the same seed gave different inputs");
    if (inputs == inputFingerprint(args.workload, args.seed + 1))
        failures.push_back("a different seed gave the same inputs");

    using Clock = std::chrono::steady_clock;
    auto seconds_since = [](Clock::time_point t0) {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    // Calibrations: the same fixed work, timed before every set-up
    // slice and every timed simulation. Their median against the
    // reference machine's time scales the host metrics to that
    // machine's speed, so a shared host's drift cancels.
    std::vector<double> calib;

    // setup_s: set-up slices, before any simulation has churned the
    // heap.
    std::vector<double> setup;
    std::size_t setups = 0;
    while (setup.size() < kSetupSlices) {
        calib.push_back(calibrationSeconds());
        double sum = 0;
        std::size_t n = 0;
        for (auto t0 = Clock::now();
             n == 0 || seconds_since(t0) < kSetupSliceSeconds; ++n)
            sum += runPass(args.workload, args.seed, nullptr, true).setup_s;
        setup.push_back(sum / double(n));
        setups += n;
    }

    // The full pass: every unit once. Its runs give the simulated
    // metrics and are the reference every repeat must reproduce.
    auto start = Clock::now();
    const PassResult full = runPass(args.workload, args.seed, nullptr);
    const std::uint64_t sim_fp = fingerprint(full.sim);
    for (const auto &f : full.check_failures)
        failures.push_back(f);

    // Each unit run's host CPU microseconds per simulated transfer.
    std::vector<double> unit_us;
    auto add_units = [&](const PassResult &p) {
        for (const auto &u : p.units) {
            if (u.transfers <= 0)
                failures.push_back("a unit made no simulated transfers");
            unit_us.push_back(ratio(u.host_s, u.transfers) * 1e6);
        }
        calib.insert(calib.end(), p.calib_s.begin(), p.calib_s.end());
    };
    add_units(full);
    const unsigned units = unitCount(args.workload);
    if (full.units.size() != units)
        failures.push_back("the full pass did not run every unit");

    // Repeat the units in turn while the next one, at its full-pass
    // host time, still ends within --seconds.
    std::size_t repeats = 0;
    for (unsigned k = 0; failures.empty(); k = (k + 1) % units) {
        double next = full.units[k].host_s;
        if (unit_us.size() >= kMinUnitRuns &&
            seconds_since(start) + next > args.seconds)
            break;
        PassResult r = runPass(args.workload, args.seed, nullptr, false,
                               int(k));
        ++repeats;
        for (const auto &f : r.check_failures)
            failures.push_back(f);
        std::string diff = firstMismatch(r.sim, full.sim);
        if (!diff.empty())
            failures.push_back("unit " + std::to_string(k) +
                               " repeated: " + diff +
                               " differs from the full pass");
        add_units(r);
    }

    const double calib_median = median(calib);
    const double speed = kCalibRefSeconds / calib_median;
    NamedValues e2e = {{"setup_s", median(setup) * speed},
                       {"host_ref_us_per_xfer", median(unit_us) * speed},
                       {"peak_rss_mb", peakRssMb()}};
    for (const auto &kv : full.end_to_end)
        e2e.push_back(kv);

    NamedValues report;
    if (!args.trace) {
        report = e2e;
    } else {
        Tracer tracer;
        PassResult traced = runPass(args.workload, args.seed, &tracer);
        for (const auto &f : traced.check_failures)
            failures.push_back("traced: " + f);
        for (const auto &note : traced.notes)
            std::printf("%s\n", note.c_str());
        std::string diff = firstMismatch(full.sim, traced.sim);
        if (!diff.empty())
            failures.push_back("tracing changed the simulated statistic " +
                               diff);

        // Values the full pass measured come from it; traced-only ones
        // (probes, transfer traces, CC references) from the traced
        // pass. Both time the same runs.
        std::map<std::string, double> layer;
        for (const auto &[name, value] : traced.layers)
            layer[name] = value;
        for (const auto &[name, value] : full.layers)
            layer[name] = value;
        layer["host_s"] = full.host_s;
        layer["host_us_per_xfer"] = median(unit_us);
        layer["calib_ms"] = calib_median * 1e3;
        layer["trace.host_s"] = traced.host_s;
        layer["trace.overhead_s"] = traced.host_s - full.host_s;
        layer["trace.spans"] = double(tracer.size());

        for (const auto &[name, value] : layer)
            if (!findMetric(name))
                failures.push_back("unregistered metric " + name);

        std::printf("%-28s %-14s %-10s %-22s %s\n", "layer metric",
                    "value", "unit", "module", "should move / where");
        for (const auto &m : layerMetrics()) {
            double v = layer.count(m.name) ? layer[m.name] : 0;
            report.emplace_back(m.name, v);
            std::printf("%-28s %-14.6g %-10s %-22s %s / %s\n", m.name, v,
                        m.unit, m.module, m.moves, m.where);
        }

        std::filesystem::create_directories(args.out);
        std::string path = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
        std::vector<std::pair<std::string, std::string>> info = {
            {"workload", args.workload},
            {"seed", std::to_string(args.seed)},
            {"cpu", host.cpu},
            {"cores", std::to_string(host.cores)},
            {"compiler", host.compiler},
            {"build", host.build_type},
            {"sim_fingerprint", hex64(sim_fp)},
        };
        if (!tracer.writeChromeJson(path, report, info))
            failures.push_back("cannot write " + path);
        else
            std::printf("trace written to %s (%zu spans)\n", path.c_str(),
                        tracer.size());
    }

    for (const auto &[name, value] : full.sim)
        std::printf("sim %s %.17g\n", name.c_str(), value);
    for (const auto &[name, value] : e2e)
        printMetric(name, value);
    std::printf("full pass %.4f s + %zu unit repeats  fingerprint sim=%s "
                "inputs=%s\n",
                full.host_s, repeats, hex64(sim_fp).c_str(),
                hex64(inputs).c_str());
    std::printf("host_us_per_xfer per unit run (median %.4f):",
                median(unit_us));
    for (double v : unit_us)
        std::printf(" %.3f", v);
    std::printf("\ncalibration ms (median %.4f):", calib_median * 1e3);
    for (double v : calib)
        std::printf(" %.2f", v * 1e3);
    std::printf("\nset-up s per slice (%zu set-ups):", setups);
    for (double v : setup)
        std::printf(" %.6f", v);
    std::printf("\n");
    std::printf("requests offered %llu completed %llu failed %llu\n",
                (unsigned long long)full.attempted,
                (unsigned long long)(full.attempted - full.failed),
                (unsigned long long)full.failed);
    for (const auto &[name, value] : report)
        if (!std::isfinite(value))
            failures.push_back("metric " + name + " is not finite");
    for (const auto &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    bool correct = failures.empty();
    printJson(correct, full.attempted, full.failed, report);
    return correct ? 0 : 1;
}
