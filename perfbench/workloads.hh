/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the
 * seed, drives the simulator through its public APIs only (scenario
 * builder, runtimes, ClusterRouter, the vLLM/FlexGen/PEFT engines
 * and the public stats of every layer), and times those calls from
 * outside.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hh"
#include "spans.hh"

namespace perfbench {

/** Every workload the program runs (BENCHMARK.json lists the steady
 *  ones; README.md says why each exists). */
const std::vector<std::string> &workloads();

/**
 * Units of @p workload: a serving workload's unit k is its sub-trace
 * k with every timed run on it; offload is one unit.
 */
unsigned unitCount(const std::string &workload);

/** CPU seconds the calling thread has used: the host clock. */
double threadCpuSeconds();

/**
 * Host CPU seconds of a fixed piece of work that shares no code with
 * the simulator (a sort, a pointer chase and a table-lookup hash).
 * Timed right before each simulation, it tells how fast the machine
 * runs at that moment.
 */
double calibrationSeconds();

/**
 * calibrationSeconds() on the reference machine. Host seconds times
 * this over the run's median calibration are seconds at that
 * machine's speed.
 */
constexpr double kCalibRefSeconds = 0.012;

/** What the timed runs of one unit cost in a pass. */
struct UnitCost
{
    double host_s = 0;    ///< host CPU seconds inside the runs
    double transfers = 0; ///< simulated H2D + D2H transfers they made
};

/** What one pass over a workload produced. */
struct PassResult
{
    /**
     * Every simulated statistic the pass read, in a fixed order. It
     * repeats exactly for a seed; its fingerprint is the
     * determinism check.
     */
    NamedValues sim;
    /** Simulated end-to-end metrics: goodput_tok_s, overhead_pct. */
    NamedValues end_to_end;
    /** Per-layer metrics (simulated ones, plus host timings of layer
     *  calls when the pass was traced). */
    NamedValues layers;
    /** Host seconds building platforms, runtimes, engines, traces. */
    double setup_s = 0;
    /** Host seconds inside the timed simulation calls. */
    double host_s = 0;
    /** The timed cost of each unit the pass ran, in unit order. */
    std::vector<UnitCost> units;
    /** Every calibration the pass took, in seconds. */
    std::vector<double> calib_s;
    /** Requests (or sequences) offered, and those not completed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Human-readable detail lines (the SLO ladder's rungs). */
    std::vector<std::string> notes;
    /** Output checks that did not hold; empty = correct. */
    std::vector<std::string> check_failures;
};

/**
 * Run one pass of @p workload from @p seed: every unit, or only
 * @p unit when it is not -1. With a @p tracer, every runtime carries a
 * TransferTrace, layer calls record spans, and the layer probes and
 * CC references run. A @p setup_only pass stops after the set-up
 * phase; only its setup_s is meaningful. Host seconds are CPU seconds
 * of this thread, which runs every simulation.
 */
PassResult runPass(const std::string &workload, std::uint64_t seed,
                   Tracer *tracer, bool setup_only = false, int unit = -1);

/** Fingerprint of the inputs (traces, fault plan) @p seed makes. */
std::uint64_t inputFingerprint(const std::string &workload,
                               std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
