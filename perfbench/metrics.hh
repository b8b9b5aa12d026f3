/**
 * @file
 * The benchmark's metric arithmetic, kept apart from the simulator so
 * the self-tests can check it on synthetic inputs: the percentile
 * rule, the rate-ladder and drain rules behind max_rate_at_slo, the
 * overhead formulas, ratios with their bases, medians and the
 * fingerprint of a run's simulated statistics.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
constexpr std::size_t kMinSamplesBeyond = 10;

/** True when @p n samples leave at least 10 beyond quantile @p q. */
bool percentileSupported(std::size_t n, double q);

/**
 * Nearest-rank quantile @p q in (0, 1) of @p samples (the smallest
 * value with at least q*n samples at or below it). Empty input gives
 * 0; callers check percentileSupported() before reporting.
 */
double quantile(std::vector<double> samples, double q);

/** quantile(), or 0 when fewer than 10 samples lie beyond it: an
 *  unsupported percentile reads 0 rather than a guess. */
double reportedQuantile(const std::vector<double> &samples, double q);

/** Median by the same nearest-rank rule, averaging the middle pair. */
double median(std::vector<double> samples);

/** num / base, or 0 when the base is 0 (the base is printed too). */
double ratio(double num, double base);

/**
 * Latency overhead of a system against the no-CC baseline on the
 * same inputs: 100 * (system / baseline - 1).
 */
double latencyOverheadPct(double system, double baseline);

/**
 * Throughput loss of a system against the no-CC baseline on the same
 * inputs: 100 * (1 - system / baseline) (the paper's Fig. 3/7 form).
 */
double throughputOverheadPct(double system, double baseline);

/**
 * Requests still outstanding at tick @p t: arrivals at or before @p t
 * minus completions at or before @p t. Both lists sorted ascending.
 */
std::size_t backlogAt(const std::vector<std::uint64_t> &arrivals,
                      const std::vector<std::uint64_t> &completions,
                      std::uint64_t t);

/**
 * Drain rule: a run has no growing backlog when the mean backlog its
 * arrivals meet in the last quarter of the trace is at most 1.5 times
 * that of the second quarter, plus two requests per replica (Poisson
 * noise). The first quarter is the ramp-up from an empty system. A
 * backlog growing linearly from an empty start reads about 2.3 times
 * higher in the last quarter than in the second.
 */
bool drainsWithoutGrowingBacklog(
    const std::vector<std::uint64_t> &arrivals,
    const std::vector<std::uint64_t> &completions, unsigned replicas);

/** One rung of the arrival-rate ladder. */
struct Rung
{
    double rate_per_device = 0;
    double p90_ms = 0;
    bool p90_supported = false;
    bool drained = false;
};

/**
 * Highest rung (in ladder order) below the first rung that misses
 * @p slo_ms on a supported p90 or fails the drain rule; 0 when the
 * lowest rung already fails. Rungs must be in ascending rate order.
 */
double maxRateAtSlo(const std::vector<Rung> &ladder, double slo_ms);

/** Ordered (name, value) list, the unit of fingerprinting. */
using NamedValues = std::vector<std::pair<std::string, double>>;

/** FNV-1a over the names and full-precision values, in order. */
std::uint64_t fingerprint(const NamedValues &values);

/** 64-bit FNV-1a accumulation step over raw bytes. */
std::uint64_t fnv1a(std::uint64_t h, const void *data, std::size_t len);

/** Sixteen hex digits. */
std::string hex64(std::uint64_t v);

/** Fails fast with a message on the first broken rule; 0 on success. */
int runSelfTests(std::string &failure);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
