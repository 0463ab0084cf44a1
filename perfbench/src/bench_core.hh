/**
 * @file
 * Pure helpers of the repository benchmark: percentiles with the
 * "ten samples beyond" rule, the simulated-result digest, per-unit
 * verification accounting, and the span recorder with its self-time
 * ledger.  Nothing here touches a clock or the simulator's state, so
 * perfbench/tests covers all of it directly.
 */

#ifndef VSTREAM_PERFBENCH_BENCH_CORE_HH
#define VSTREAM_PERFBENCH_BENCH_CORE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/video_pipeline.hh"

namespace perfbench
{

// ---- percentiles -----------------------------------------------------

/** Samples that must lie strictly beyond a reported percentile. */
constexpr std::size_t kMinBeyond = 10;

struct Percentile
{
    double value = 0.0;
    /** Samples strictly greater than value. */
    std::size_t beyond = 0;
    std::size_t n = 0;

    /** At least kMinBeyond samples lie beyond the value. */
    bool resolved() const { return beyond >= kMinBeyond; }
};

/** Nearest-rank percentile of @p samples, @p q in (0, 1]. */
Percentile percentile(std::vector<double> samples, double q);

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> samples);

/** Smallest sample count whose nearest-rank @p q percentile leaves
 * kMinBeyond distinct-rank samples beyond it. */
std::size_t minSamplesFor(double q);

// ---- simulated-result digest ------------------------------------------

/** FNV-1a over named fields appended in a fixed order. */
class Digest
{
  public:
    void add(std::string_view name, std::uint64_t v);
    /** Doubles are hashed by bit pattern: the check is exact. */
    void add(std::string_view name, double v);
    void addBytes(std::string_view name, std::string_view bytes);

    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    void mix(std::string_view bytes);

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Hex form of a digest value (16 lowercase digits). */
std::string digestHex(std::uint64_t v);

/**
 * Fold the canonical simulated fields of one playback into @p d:
 * energy breakdown, frames and drops, writeback totals, DRAM counts,
 * MACH and display counters.  Host-side measurements never enter.
 */
void addResult(Digest &d, const vstream::PipelineResult &r);

/** Canonical digest of one playback unit. */
std::uint64_t resultDigest(const vstream::PipelineResult &r);

/**
 * Remove every `"wall_clock_seconds": <number>` member from a report
 * document, so two runs that differ only in host time hash alike.
 */
std::string stripHostTimes(std::string_view report);

// ---- verification accounting -------------------------------------------

/** Frame-checksum outcome of one unit or session. */
struct UnitCheck
{
    std::string label;
    /** The unit stores MACH digests (collisions can explain a
     * mismatch there and nowhere else). */
    bool mach = false;
    /** Scanned-out frames whose checksum did not match. */
    std::uint64_t mismatches = 0;
    /** Undetected digest collisions in this unit's MACH. */
    std::uint64_t collisions = 0;
};

enum class Verdict : std::uint8_t
{
    kExact,     ///< no mismatch
    kExplained, ///< MACH unit whose own collisions explain it
    kFailed,    ///< mismatch with nothing to explain it
};

/** Judge one unit by itself; another unit's collisions never excuse
 * it. */
Verdict classify(const UnitCheck &c);

const char *verdictName(Verdict v);

UnitCheck unitCheck(std::string label, const vstream::PipelineResult &r);

// ---- spans and the self-time ledger -----------------------------------

/** One timed call: [start_ns, end_ns) on the steady clock. */
struct Span
{
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span, -1 for a root. */
    std::int32_t parent = -1;

    std::int64_t duration() const { return end_ns - start_ns; }
};

/**
 * In-memory span and count store; nothing is written until
 * writeTo(), which the benchmark calls once at exit.
 */
class SpanRecorder
{
  public:
    /** Interned id of @p name. */
    std::uint32_t intern(const std::string &name);
    const std::string &nameOf(std::uint32_t id) const
    {
        return names_[id];
    }

    /** Record a finished span; returns its index. */
    std::int32_t add(std::uint32_t name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int32_t parent);

    /** Open a span whose end is filled in by close(). */
    std::int32_t open(std::uint32_t name, std::int64_t start_ns,
                      std::int32_t parent);
    void close(std::int32_t idx, std::int64_t end_ns);

    void count(const std::string &name, std::uint64_t n = 1)
    {
        counts_[name] += n;
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, std::uint64_t> &counts() const
    {
        return counts_;
    }

    /** Span table (name,start_ns,end_ns,parent) then the counts. */
    void writeTo(std::ostream &os) const;

  private:
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::vector<Span> spans_;
    std::map<std::string, std::uint64_t> counts_;
};

/** Self time per span name, and the total of the root spans. */
struct Ledger
{
    /** Root spans' own self time lands under their name too. */
    std::map<std::string, double> self_s;
    double total_s = 0.0;

    /** self_s[name], 0 when absent. */
    double self(const std::string &name) const;
    /** self(name) / total_s. */
    double share(const std::string &name) const;
};

/**
 * Self time of every span (its duration minus its direct children's
 * durations), summed per name.  Because each child is subtracted from
 * exactly one parent, the self times sum to the root durations.
 */
Ledger buildLedger(const SpanRecorder &rec);

} // namespace perfbench

#endif // VSTREAM_PERFBENCH_BENCH_CORE_HH
