/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the simulator (synthetic video content,
 * per-frame decode complexity, bank conflicts injected by the traffic
 * shuffler) draws from an explicitly seeded Random instance so that a
 * simulation is exactly reproducible from its seed.  The generator is
 * xoshiro256**, seeded through SplitMix64 per the reference
 * recommendation.
 */

#ifndef VSTREAM_SIM_RANDOM_HH
#define VSTREAM_SIM_RANDOM_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace vstream
{

/** SplitMix64 step; used for seeding and cheap hashing of seeds. */
std::uint64_t splitMix64(std::uint64_t &state);

/**
 * xoshiro256** PRNG with convenience distributions.
 *
 * Not thread-safe; each simulated component owns its own instance.
 */
class Random
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Re-seed in place, restarting the sequence. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /**
     * Write the low byte of each of the next @p n draws to @p dst:
     * exactly what @p n calls of next() would give, at the speed of
     * the generator's dependency chain (noise macroblocks).
     */
    void fillLowBytes(std::uint8_t *dst, std::size_t n);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Uniform integer in the inclusive range [lo, hi].
     *
     * Uses rejection sampling, so the distribution is exactly uniform.
     */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli trial: true with probability @p p. */
    bool chance(double p);

    /** Standard normal deviate (Marsaglia polar method). */
    double gaussian();

    /** Normal deviate with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Log-normal deviate parameterized by the underlying normal's
     * mu/sigma.  Used for heavy-tailed per-frame decode complexity.
     */
    double logNormal(double mu, double sigma);

    /**
     * Geometric-ish burst length in [1, cap]: one plus the number of
     * successive chance(@p continue_prob) successes, stopping at
     * @p cap.  Consumes exactly the draws that loop would, none when
     * the outcome is certain (p <= 0, p >= 1 or cap <= 1).
     */
    std::uint64_t burstLength(double continue_prob, std::uint64_t cap);

  private:
    std::array<std::uint64_t, 4> s_;
    bool have_spare_ = false;
    double spare_ = 0.0;
};

} // namespace vstream

#endif // VSTREAM_SIM_RANDOM_HH
