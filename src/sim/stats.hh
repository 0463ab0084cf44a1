/**
 * @file
 * Lightweight statistics package.
 *
 * Three flavours cover the paper's reporting needs: Scalar counters,
 * streaming Distributions (mean/stddev/min/max), and SampleSeries,
 * which retains every sample so the figure benches can print exact
 * CDFs (Fig. 2b-e, Fig. 4c-d).
 */

#ifndef VSTREAM_SIM_STATS_HH
#define VSTREAM_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace vstream
{
namespace stats
{

/** A named monotonically adjustable counter. */
class Scalar
{
  public:
    explicit Scalar(std::string name = "", std::string desc = "");

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1.0; return *this; }

    void set(double v) { value_ = v; }
    void reset() { value_ = 0.0; }

    double value() const { return value_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    double value_ = 0.0;
};

/** Streaming distribution: O(1) memory, Welford mean/variance. */
class Distribution
{
  public:
    explicit Distribution(std::string name = "", std::string desc = "");

    void sample(double v);
    void reset();

    std::uint64_t count() const { return count_; }
    double mean() const;
    double variance() const;
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }
    double total() const { return total_; }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double total_ = 0.0;
};

/**
 * Distribution that retains all samples, for percentiles and CDFs.
 */
class SampleSeries
{
  public:
    explicit SampleSeries(std::string name = "", std::string desc = "");

    void sample(double v) { samples_.push_back(v); }
    void reset() { samples_.clear(); }

    /** Pre-size for @p n samples (hot loops pre-reserve so sampling
     * never reallocates mid-run). */
    void reserve(std::size_t n) { samples_.reserve(n); }

    std::uint64_t count() const { return samples_.size(); }
    double total() const;
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1] (nearest-rank on the sorted
     * copy).  Returns 0 when empty.
     */
    double percentile(double q) const;

    /** Fraction of samples strictly greater than @p threshold. */
    double fractionAbove(double threshold) const;

    /** Sorted copy of the samples (ascending) for CDF printing. */
    std::vector<double> sorted() const;

    const std::vector<double> &samples() const { return samples_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::vector<double> samples_;
};

/** Print "name value  # desc" in fixed columns. */
void printStat(std::ostream &os, const std::string &name, double value,
               const std::string &desc = "");

} // namespace stats
} // namespace vstream

#endif // VSTREAM_SIM_STATS_HH
