/**
 * @file
 * Chaos soak harness: one seeded long-horizon timeline that
 * interleaves replica crashes, restarts, fault storms and overload
 * bursts against a cluster, then measures whether goodput recovered
 * after every disturbance.
 *
 * The harness is deliberately a *library* (linked by the scenario
 * runner and the chaos tests) rather than a binary: the same plan/runner/metrics
 * run in CI smoke mode, under ASan, and under -DPIPELLM_AUDIT=ON,
 * where the invariant auditor traps on any (key, IV, epoch) reuse or
 * tag-ledger leak the chaos provokes — a soak that finishes IS the
 * audit assertion.
 *
 * Recovery is judged from the cluster's completion-event timeline:
 * goodput is bucketed into fixed windows, each disturbance (storm
 * start, every crash) gets a dip measurement — baseline before, worst
 * window after, time below the recovery bar — and the soak passes
 * when every dip climbs back above the bar before the run ends.
 */

#ifndef PIPELLM_CHAOS_CHAOS_HH
#define PIPELLM_CHAOS_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "llm/model.hh"
#include "serving/cluster.hh"
#include "trace/generator.hh"

namespace pipellm {
namespace chaos {

/** Goodput over one fixed bucket of the run. */
struct GoodputWindow
{
    Tick start = 0;
    Tick end = 0;
    /** Completed-request tokens retired in [start, end) per second. */
    double tokens_per_sec = 0;
};

/**
 * Bucket @p completions (sorted by time) into @p window -sized
 * goodput windows covering [0, last completion].
 */
std::vector<GoodputWindow> goodputTimeline(
    const std::vector<serving::CompletionEvent> &completions,
    Tick window);

/**
 * How goodput behaved around one disturbance. The recovery bar is
 * recover_frac * baseline; depth and duration measure the excursion
 * below it.
 */
struct DipMetrics
{
    /** Mean windowed goodput strictly before the disturbance. */
    double baseline_tps = 0;
    /** Worst window at/after the disturbance. */
    double min_tps = 0;
    /** 1 - min/baseline, clamped to [0, 1]; 0 = no dip. */
    double dip_depth = 0;
    /** Total time the windows spent below the recovery bar. */
    Tick dip_duration = 0;
    /** True when the last window is back above the bar. */
    bool recovered = false;
    /** Start of the first post-dip window above the bar. */
    Tick recovery_at = 0;
};

/**
 * Measure the dip after @p disturbance on @p timeline, judging
 * recovery against @p recover_frac of the pre-disturbance baseline.
 * With no pre-disturbance baseline (disturbance before the first
 * completion) the dip is reported as recovered with zero depth: there
 * is no level to fall from.
 */
DipMetrics dipAfter(const std::vector<GoodputWindow> &timeline,
                    Tick disturbance, double recover_frac);

/** One arrival-rate phase of the soak trace (calm / burst / calm). */
struct SoakPhase
{
    std::size_t requests = 0;
    double requests_per_sec = 1;
};

/** The classic soak workload shape: ShareGPT clipped to 1024. */
trace::DatasetProfile defaultSoakProfile();

/** Everything one soak run needs; seeded, so replays bit-identically. */
struct SoakPlan
{
    unsigned n_devices = 2;
    /** PipeLLM replicas when true, plain CC replicas when false. */
    bool use_pipellm = true;
    std::uint64_t trace_seed = 42;
    llm::ModelConfig model;
    unsigned parallel_sampling = 6;
    /** Arrival workload shape (dataset distribution + length clip). */
    trace::DatasetProfile profile = defaultSoakProfile();
    /** Functional-crypto sampling cap (timing is unaffected). */
    unsigned channel_sample_limit = 512;
    /** Arrival phases, played back to back on one timeline. */
    std::vector<SoakPhase> phases;
    /** Crashes, restarts and the storm window; armed when nonzero. */
    fault::FaultPlan faults;
    /** Front-end overload protection for the run. */
    serving::AdmissionConfig admission;
    /** Disaggregated prefill/decode split; migration faults in
     *  `faults` only fire when this is enabled. */
    serving::DisaggConfig disagg;
    /** Deadline stamped per request: arrival + floor + len * per_token
     *  (both zero = no deadlines). */
    Tick slo_floor = 0;
    Tick slo_per_token = 0;
    /** Goodput bucketing for the recovery analysis. */
    Tick goodput_window = seconds(2);
    /** Recovery bar as a fraction of pre-disturbance goodput. */
    double recover_frac = 0.5;
};

/**
 * The standard chaos mix: three arrival phases (calm, 4x overload
 * burst, calm), crashes with restarts armed, and a fault storm
 * window early in the run. @p quick shrinks the trace for CI smoke.
 */
SoakPlan defaultSoakPlan(bool quick);

/** One disturbance on the soak timeline and its measured dip. */
struct Disturbance
{
    /** "storm" or "crash(d)". */
    std::string what;
    Tick at = 0;
    DipMetrics dip;
};

/** Outcome of one soak run. */
struct SoakResult
{
    serving::ClusterResult cluster;
    std::vector<GoodputWindow> timeline;
    std::vector<Disturbance> disturbances;
    /** Invariant violations the auditor recorded (always 0 unless a
     *  test disarms trapping; without -DPIPELLM_AUDIT=ON the hooks
     *  are compiled out and this is trivially 0). */
    std::uint64_t audit_violations = 0;

    /** Every disturbance's goodput climbed back above the bar. */
    bool allRecovered() const;
};

/** Execute @p plan: build the cluster, serve the phased trace under
 *  the armed fault plan, and measure recovery per disturbance. */
SoakResult runSoak(const SoakPlan &plan);

} // namespace chaos
} // namespace pipellm

#endif // PIPELLM_CHAOS_CHAOS_HH
