#include "sim/random.hh"

#include <cmath>

#include "sim/logging.hh"

namespace vstream
{

std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

/** One xoshiro256** step.  The bulk draws run it on a local copy of
 * the state so the four words stay in registers. */
inline std::uint64_t
step(std::array<std::uint64_t, 4> &s)
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

} // namespace

Random::Random(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Random::seed(std::uint64_t seed_value)
{
    std::uint64_t sm = seed_value;
    for (auto &word : s_) {
        word = splitMix64(sm);
    }
    have_spare_ = false;
    spare_ = 0.0;
}

std::uint64_t
Random::next()
{
    return step(s_);
}

// vstream:hot
void
Random::fillLowBytes(std::uint8_t *dst, std::size_t n)
{
    std::array<std::uint64_t, 4> s = s_;
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(step(s));
    }
    s_ = s;
}

double
Random::uniform()
{
    // 53 bits of mantissa, standard conversion.
    return (next() >> 11) * 0x1.0p-53;
}

double
Random::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Random::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    vs_assert(lo <= hi, "uniformInt range inverted");
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) { // [0, 2^64-1]: full range
        return next();
    }
    // Draws at or above limit = max - max % span are rejected.  limit
    // is at least 2^64 - span, so a draw below that is accepted
    // without paying for the division.
    std::uint64_t v = next();
    if (v >= std::uint64_t(0) - span) {
        const std::uint64_t max = ~std::uint64_t(0);
        const std::uint64_t limit = max - max % span;
        while (v >= limit) {
            v = next();
        }
    }
    return lo + v % span;
}

bool
Random::chance(double p)
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return uniform() < p;
}

double
Random::gaussian()
{
    if (have_spare_) {
        have_spare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    have_spare_ = true;
    return u * mul;
}

double
Random::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Random::logNormal(double mu, double sigma)
{
    return std::exp(gaussian(mu, sigma));
}

// vstream:hot
std::uint64_t
Random::burstLength(double continue_prob, std::uint64_t cap)
{
    if (cap <= 1 || continue_prob <= 0.0) {
        return 1;
    }
    if (continue_prob >= 1.0) {
        return cap;
    }
    // chance(p) is (x >> 11) * 2^-53 < p.  Scaling p by 2^53 is
    // exact and x >> 11 is an integer, so the test is exactly
    // (x >> 11) < ceil(p * 2^53).  A NaN p gives threshold 0: one
    // draw, then stop, as chance(NaN) would.
    const double scaled = std::ceil(continue_prob * 0x1.0p53);
    const std::uint64_t threshold =
        scaled > 0.0 ? static_cast<std::uint64_t>(scaled) : 0;
    std::array<std::uint64_t, 4> s = s_;
    std::uint64_t len = 1;
    while (len < cap && (step(s) >> 11) < threshold) {
        ++len;
    }
    s_ = s;
    return len;
}

} // namespace vstream
