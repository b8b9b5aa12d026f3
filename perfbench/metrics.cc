#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

bool
percentileSupported(std::size_t n, double q)
{
    // Samples strictly beyond the nearest-rank q-quantile.
    std::size_t rank = std::size_t(std::ceil(q * double(n)));
    return n >= rank && n - rank >= kMinSamplesBeyond;
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    std::size_t rank = std::size_t(std::ceil(q * double(samples.size())));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

double
reportedQuantile(const std::vector<double> &samples, double q)
{
    return percentileSupported(samples.size(), q) ? quantile(samples, q) : 0;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
ratio(double num, double base)
{
    return base == 0 ? 0 : num / base;
}

double
latencyOverheadPct(double system, double baseline)
{
    return baseline == 0 ? 0 : 100.0 * (system / baseline - 1.0);
}

double
throughputOverheadPct(double system, double baseline)
{
    return baseline == 0 ? 0 : 100.0 * (1.0 - system / baseline);
}

std::size_t
backlogAt(const std::vector<std::uint64_t> &arrivals,
          const std::vector<std::uint64_t> &completions, std::uint64_t t)
{
    auto arrived = std::size_t(
        std::upper_bound(arrivals.begin(), arrivals.end(), t) -
        arrivals.begin());
    auto done = std::size_t(
        std::upper_bound(completions.begin(), completions.end(), t) -
        completions.begin());
    return arrived > done ? arrived - done : 0;
}

bool
drainsWithoutGrowingBacklog(const std::vector<std::uint64_t> &arrivals,
                            const std::vector<std::uint64_t> &completions,
                            unsigned replicas)
{
    // Mean backlog seen by the arrivals of quarter [lo, hi) of the
    // trace.
    auto mean = [&](std::size_t lo, std::size_t hi) {
        double sum = 0;
        for (std::size_t i = lo; i < hi; ++i)
            sum += double(backlogAt(arrivals, completions, arrivals[i]));
        return hi > lo ? sum / double(hi - lo) : 0.0;
    };
    std::size_t n = arrivals.size();
    double second = mean(n / 4, n / 2);
    double last = mean(3 * n / 4, n);
    return last <= 1.5 * second + 2.0 * replicas;
}

double
maxRateAtSlo(const std::vector<Rung> &ladder, double slo_ms)
{
    double best = 0;
    for (const auto &r : ladder) {
        bool meets = r.p90_supported && r.p90_ms <= slo_ms && r.drained;
        if (!meets)
            break;
        best = r.rate_per_device;
    }
    return best;
}

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fingerprint(const NamedValues &values)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &[name, value] : values) {
        h = fnv1a(h, name.data(), name.size());
        char buf[32];
        int n = std::snprintf(buf, sizeof(buf), "=%.17g;", value);
        h = fnv1a(h, buf, std::size_t(n));
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

namespace {

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

} // namespace

int
runSelfTests(std::string &failure)
{
    auto fail = [&](const char *what) {
        failure = what;
        return 1;
    };

    // Percentile rule: p90 needs >= 10 samples beyond it, so 100
    // samples support it and 99 do not; the median needs 20.
    if (!percentileSupported(100, 0.9) || percentileSupported(99, 0.9))
        return fail("p90 support must start at 100 samples");
    if (!percentileSupported(20, 0.5) || percentileSupported(19, 0.5))
        return fail("p50 support must start at 20 samples");
    std::vector<double> ramp;
    for (int i = 1; i <= 100; ++i)
        ramp.push_back(double(101 - i)); // 100..1, unsorted input
    if (!near(quantile(ramp, 0.9), 90) || !near(quantile(ramp, 0.5), 50))
        return fail("nearest-rank quantile of 1..100");
    if (!near(median({3, 1, 2}), 2) || !near(median({4, 1, 3, 2}), 2.5))
        return fail("median of odd and even counts");

    // Overhead formulas and ratio bases.
    if (!near(latencyOverheadPct(1.25, 1.0), 25))
        return fail("latency overhead 1.25 vs 1.0 must be 25%");
    if (!near(throughputOverheadPct(80, 100), 20))
        return fail("throughput overhead 80 vs 100 must be 20%");
    if (latencyOverheadPct(1, 0) != 0 || ratio(5, 0) != 0)
        return fail("a zero base must give 0, not inf");
    if (!near(ratio(99, 100), 0.99))
        return fail("ratio 99/100");

    // Drain rule: a steady backlog drains, a linearly growing one
    // does not, and the per-replica floor absorbs a final burst.
    std::vector<std::uint64_t> arr, steady, growing;
    for (std::uint64_t i = 0; i < 100; ++i) {
        arr.push_back(i * 10);
        steady.push_back(i * 10 + 15);   // ~2 outstanding throughout
        growing.push_back(i * 20 + 15);  // serves at half the rate
    }
    if (backlogAt(arr, steady, 500) != 2)
        return fail("backlog at t=500 of the steady trace");
    if (backlogAt(arr, growing, 990) != 51)
        return fail("backlog at t=990 of the growing trace");
    if (!drainsWithoutGrowingBacklog(arr, steady, 1))
        return fail("steady backlog must drain");
    if (drainsWithoutGrowingBacklog(arr, growing, 1))
        return fail("growing backlog must not drain");
    if (!drainsWithoutGrowingBacklog(arr, growing, 50))
        return fail("per-replica floor must absorb small backlogs");

    // Ladder: the answer is the rung before the first miss, even
    // when a later rung happens to pass again.
    std::vector<Rung> ladder = {{0.5, 40, true, true},
                                {1.0, 55, true, true},
                                {1.5, 90, true, true},
                                {2.0, 50, true, true}};
    if (!near(maxRateAtSlo(ladder, 60), 1.0))
        return fail("ladder must stop at the first missed rung");
    ladder[1].drained = false;
    if (!near(maxRateAtSlo(ladder, 60), 0.5))
        return fail("an undrained rung must fail the ladder");
    ladder[0].p90_supported = false;
    if (maxRateAtSlo(ladder, 60) != 0)
        return fail("an unsupported p90 must fail its rung");

    // Fingerprint: order- and digit-sensitive.
    NamedValues a = {{"x", 1.0}, {"y", 2.0}};
    NamedValues b = {{"y", 2.0}, {"x", 1.0}};
    NamedValues c = {{"x", 1.0}, {"y", 2.0000000000000004}};
    if (fingerprint(a) == fingerprint(b) ||
        fingerprint(a) == fingerprint(c) || fingerprint(a) != fingerprint(a))
        return fail("fingerprint must see order and every digit");
    return 0;
}

} // namespace perfbench
