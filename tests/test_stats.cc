/**
 * @file
 * Tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/stats.hh"

namespace vstream
{
namespace
{

TEST(Scalar, AccumulatesAndResets)
{
    stats::Scalar s("s", "a counter");
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(10.0);
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(s.name(), "s");
}

TEST(Distribution, EmptyIsZero)
{
    stats::Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Distribution, WelfordMatchesDirect)
{
    stats::Distribution d;
    const double vals[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    double sum = 0.0;
    for (double v : vals) {
        d.sample(v);
        sum += v;
    }
    const double mean = sum / 8.0;
    double m2 = 0.0;
    for (double v : vals) {
        m2 += (v - mean) * (v - mean);
    }
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), mean);
    EXPECT_NEAR(d.variance(), m2 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_DOUBLE_EQ(d.total(), sum);
}

TEST(Distribution, SingleSample)
{
    stats::Distribution d;
    d.sample(-3.5);
    EXPECT_DOUBLE_EQ(d.mean(), -3.5);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), -3.5);
    EXPECT_DOUBLE_EQ(d.max(), -3.5);
}

TEST(Distribution, ResetClears)
{
    stats::Distribution d;
    d.sample(1.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    d.sample(5.0);
    EXPECT_DOUBLE_EQ(d.min(), 5.0);
}

TEST(SampleSeries, PercentilesOnSortedCopy)
{
    stats::SampleSeries s;
    for (int i = 10; i >= 1; --i) {
        s.sample(i);
    }
    EXPECT_EQ(s.count(), 10u);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 6.0); // nearest rank
    EXPECT_DOUBLE_EQ(s.mean(), 5.5);
    EXPECT_DOUBLE_EQ(s.total(), 55.0);
}

TEST(SampleSeries, EmptyPercentileIsZero)
{
    stats::SampleSeries s;
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.fractionAbove(1.0), 0.0);
}

TEST(SampleSeries, FractionAboveStrict)
{
    stats::SampleSeries s;
    for (double v : {1.0, 2.0, 3.0, 4.0}) {
        s.sample(v);
    }
    EXPECT_DOUBLE_EQ(s.fractionAbove(2.0), 0.5);  // 3 and 4
    EXPECT_DOUBLE_EQ(s.fractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.fractionAbove(4.0), 0.0);
}

TEST(SampleSeries, SortedIsAscendingAndPreservesSource)
{
    stats::SampleSeries s;
    s.sample(3.0);
    s.sample(1.0);
    s.sample(2.0);
    const auto sorted = s.sorted();
    EXPECT_EQ(sorted, (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(s.samples()[0], 3.0); // original order untouched
}

TEST(PrintStat, FormatsNameValueDesc)
{
    std::ostringstream os;
    stats::printStat(os, "vd.frames", 120.0, "frames decoded");
    const std::string line = os.str();
    EXPECT_NE(line.find("vd.frames"), std::string::npos);
    EXPECT_NE(line.find("120"), std::string::npos);
    EXPECT_NE(line.find("# frames decoded"), std::string::npos);
}

} // namespace
} // namespace vstream
