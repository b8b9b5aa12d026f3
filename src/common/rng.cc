#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace pipellm {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    PIPELLM_ASSERT(lo <= hi, "uniformInt bounds reversed");
    std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    // Rejection sampling to avoid modulo bias.
    std::uint64_t limit = ~std::uint64_t(0) - (~std::uint64_t(0) % span);
    std::uint64_t draw;
    do {
        draw = next();
    } while (draw >= limit && limit != 0);
    return lo + draw % span;
}

double
Rng::uniformReal()
{
    return double(next() >> 11) * (1.0 / 9007199254740992.0);
}

double
Rng::exponential(double rate)
{
    PIPELLM_ASSERT(rate > 0, "exponential rate must be positive");
    double u;
    do {
        u = uniformReal();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

double
Rng::normal(double mean, double stddev)
{
    double u1;
    do {
        u1 = uniformReal();
    } while (u1 <= 0.0);
    double u2 = uniformReal();
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    return mean + stddev * z;
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(normal(mu, sigma));
}

bool
Rng::bernoulli(double p)
{
    return uniformReal() < p;
}

Tick
Rng::exponentialTicks(double events_per_sec)
{
    double ns = exponential(events_per_sec) * 1e9;
    if (ns >= double(maxTick))
        return maxTick;
    return Tick(ns);
}

Tick
Rng::jitterTicks(Tick span)
{
    if (span == 0)
        return 0;
    return uniformInt(0, span);
}

} // namespace pipellm
