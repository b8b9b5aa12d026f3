/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator draws from an explicitly
 * seeded Rng so that whole experiments are bit-reproducible. The core
 * is splitmix64 feeding xoshiro256**, which is small, fast, and has no
 * global state.
 */

#ifndef PIPELLM_COMMON_RNG_HH
#define PIPELLM_COMMON_RNG_HH

#include <cstdint>

#include "common/units.hh"

namespace pipellm {

/** Seedable xoshiro256** generator with distribution helpers. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformReal();

    /** Exponential variate with the given rate (events per unit). */
    double exponential(double rate);

    /** Normal variate via Box-Muller. */
    double normal(double mean, double stddev);

    /** Log-normal variate parameterized by the underlying normal. */
    double logNormal(double mu, double sigma);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /**
     * Exponential inter-arrival time in simulated ticks for a rate
     * given in events per simulated second (fault and crash arrivals
     * draw from this). Saturates at maxTick for vanishing rates.
     */
    Tick exponentialTicks(double events_per_sec);

    /** Uniform jitter in [0, span] ticks; 0 when span is 0. */
    Tick jitterTicks(Tick span);

    /**
     * Deterministic byte for synthetic memory content: a hash of the
     * (region identity, offset) pair, stable across runs.
     */
    static std::uint8_t
    syntheticByte(std::uint64_t region_id, std::uint64_t offset)
    {
        // Inline so page-filling loops over it can vectorize.
        std::uint64_t x = region_id * 0x9e3779b97f4a7c15ull + offset;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        x ^= x >> 31;
        return std::uint8_t(x);
    }

  private:
    std::uint64_t state_[4];
};

} // namespace pipellm

#endif // PIPELLM_COMMON_RNG_HH
