/**
 * @file
 * Tests for the deterministic PRNG: reproducibility and basic
 * distributional sanity (the synthetic videos inherit both).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/random.hh"

namespace vstream
{
namespace
{

TEST(Random, SameSeedSameSequence)
{
    Random a(123), b(123);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(a.next(), b.next()) << "diverged at " << i;
    }
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Random, ReseedRestarts)
{
    Random r(99);
    const auto first = r.next();
    r.next();
    r.seed(99);
    EXPECT_EQ(r.next(), first);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Random, UniformMeanNearHalf)
{
    Random r(6);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        sum += r.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Random, UniformRangeRespectsBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 7.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 7.0);
    }
}

TEST(Random, UniformIntCoversRangeExactly)
{
    Random r(8);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i) {
        ++seen[r.uniformInt(0, 9)];
    }
    for (int v = 0; v < 10; ++v) {
        EXPECT_GT(seen[v], 800) << "value " << v;
    }
}

/** Same draws as the plain rejection loop, including spans large
 * enough that draws are rejected often. */
TEST(Random, UniformIntMatchesRejectionLoop)
{
    const std::uint64_t max = ~std::uint64_t(0);
    for (const std::uint64_t span :
         {std::uint64_t(3), std::uint64_t(1000), (max / 3) * 2,
          max / 2 + 2, max - 5}) {
        Random fast(21);
        Random ref(21);
        const std::uint64_t limit = max - max % span;
        for (int i = 0; i < 2000; ++i) {
            std::uint64_t v;
            do {
                v = ref.next();
            } while (v >= limit);
            ASSERT_EQ(fast.uniformInt(2, span + 1), 2 + v % span)
                << "span " << span << " draw " << i;
        }
    }
}

TEST(Random, UniformIntSingleton)
{
    Random r(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.uniformInt(42, 42), 42u);
    }
}

TEST(RandomDeath, UniformIntInvertedRange)
{
    Random r(10);
    EXPECT_DEATH(r.uniformInt(5, 4), "range inverted");
}

TEST(Random, ChanceExtremes)
{
    Random r(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-0.5));
        EXPECT_TRUE(r.chance(1.5));
    }
}

TEST(Random, ChanceFrequency)
{
    Random r(12);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        if (r.chance(0.3)) {
            ++hits;
        }
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Random, GaussianMoments)
{
    Random r(13);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Random, GaussianShifted)
{
    Random r(14);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        sum += r.gaussian(10.0, 2.0);
    }
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Random, LogNormalMeanMatchesTheory)
{
    // E[exp(N(mu, sigma))] = exp(mu + sigma^2/2); with mu = -s^2/2
    // the mean is 1 (the pipeline relies on this for calibration).
    Random r(15);
    const double sigma = 0.2;
    const double mu = -0.5 * sigma * sigma;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        sum += r.logNormal(mu, sigma);
    }
    EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(Random, BurstLengthBounds)
{
    Random r(16);
    for (int i = 0; i < 10000; ++i) {
        const auto len = r.burstLength(0.5, 8);
        ASSERT_GE(len, 1u);
        ASSERT_LE(len, 8u);
    }
}

TEST(Random, BurstLengthDegenerate)
{
    Random r(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.burstLength(0.0, 8), 1u);
        EXPECT_EQ(r.burstLength(1.0, 8), 8u);
    }
}

/** The next 8 raw draws: compares the state a fast path leaves. */
std::vector<std::uint64_t>
nextDraws(Random &r)
{
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 8; ++i) {
        out.push_back(r.next());
    }
    return out;
}

TEST(Random, FillLowBytesMatchesPerDrawLoop)
{
    const std::size_t sizes[] = {0, 1, 47, 48, 768};
    for (const std::size_t n : sizes) {
        Random fast(21), ref(21);
        std::vector<std::uint8_t> got(n + 1, 0xa5), want(n + 1, 0xa5);
        fast.fillLowBytes(got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            want[i] = static_cast<std::uint8_t>(ref.next());
        }
        EXPECT_EQ(got, want) << "n=" << n; // the guard byte included
        EXPECT_EQ(nextDraws(fast), nextDraws(ref)) << "n=" << n;
    }
}

TEST(Random, BurstLengthMatchesChanceLoop)
{
    const double ps[] = {0.0,
                         0x1.0p-53,
                         0.6,
                         0.97,
                         0.1, // not dyadic: p * 2^53 is not an integer
                         std::nextafter(1.0, 0.0),
                         1.0};
    const std::uint64_t caps[] = {0, 1, 2, 256};
    std::uint64_t seed = 100;
    for (const double p : ps) {
        for (const std::uint64_t cap : caps) {
            Random fast(seed), ref(seed);
            ++seed;
            for (int trial = 0; trial < 200; ++trial) {
                std::uint64_t want = 1;
                while (want < cap && ref.chance(p)) {
                    ++want;
                }
                ASSERT_EQ(fast.burstLength(p, cap), want)
                    << "p=" << p << " cap=" << cap << " trial=" << trial;
            }
            EXPECT_EQ(nextDraws(fast), nextDraws(ref))
                << "p=" << p << " cap=" << cap;
        }
    }
}

TEST(Random, BurstLengthThresholdIsExactAtTheBoundary)
{
    // A draw with x >> 11 == k succeeds iff k * 2^-53 < p.  Take k
    // from the seed's first draw and try p at and just above
    // k * 2^-53.  Below one half the value above scales to a
    // non-integer, so this pins both the strict comparison and the
    // rounding up of p * 2^53.
    Random probe(30);
    const std::uint64_t k = probe.next() >> 11;
    const double at = static_cast<double>(k) * 0x1.0p-53;
    ASSERT_LT(at, 0.5);
    const double above = std::nextafter(at, 1.0);
    for (const double p : {at, above}) {
        Random fast(30), ref(30);
        std::uint64_t want = 1;
        while (want < 2 && ref.chance(p)) {
            ++want;
        }
        EXPECT_EQ(fast.burstLength(p, 2), want) << "p=" << p;
        EXPECT_EQ(want, p > at ? 2u : 1u);
    }
}

TEST(SplitMix, KnownProgression)
{
    std::uint64_t state = 0;
    const auto a = splitMix64(state);
    const auto b = splitMix64(state);
    EXPECT_NE(a, b);
    // Reference value of SplitMix64 from seed 0, first output.
    EXPECT_EQ(a, 0xe220a8397b1dcdafULL);
}

class RandomSeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomSeedSweep, UniformIntStaysInBounds)
{
    Random r(GetParam());
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniformInt(100, 199);
        ASSERT_GE(v, 100u);
        ASSERT_LE(v, 199u);
    }
}

TEST_P(RandomSeedSweep, UniformMeanStable)
{
    Random r(GetParam());
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += r.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL,
                                           0xdeadbeefULL,
                                           ~0ULL));

} // namespace
} // namespace vstream
