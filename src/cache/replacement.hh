/**
 * @file
 * Victim selection for one cache set.
 */

#ifndef VSTREAM_CACHE_REPLACEMENT_HH
#define VSTREAM_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "sim/random.hh"

namespace vstream
{

/**
 * Per-way recency/insertion metadata for victim selection.
 *
 * One instance serves all sets of a cache; callers pass the slice of
 * way-state for the set being operated on.
 */
class ReplacementState
{
  public:
    ReplacementState(ReplPolicy policy, std::uint32_t sets,
                     std::uint32_t ways, std::uint64_t seed = 0x5eedULL);

    /** Note a hit on (set, way).  FIFO and Random ignore hits. */
    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        if (policy_ == ReplPolicy::kLru) {
            stamps_[index(set, way)] = ++clock_;
        }
    }

    /** Note a fill into (set, way). */
    void
    fill(std::uint32_t set, std::uint32_t way)
    {
        if (policy_ != ReplPolicy::kRandom) {
            stamps_[index(set, way)] = ++clock_;
        }
    }

    /** Choose the victim way in @p set (all ways assumed valid). */
    std::uint32_t victim(std::uint32_t set);

    /**
     * Restore the freshly constructed state (stamps, clock, rng) so a
     * recycled cache replays the exact victim sequence a new one
     * would.  Keeps the stamp storage.
     */
    void reset(std::uint64_t seed = 0x5eedULL);

    ReplPolicy policy() const { return policy_; }

  private:
    std::size_t
    index(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    ReplPolicy policy_;
    std::uint32_t ways_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
    Random rng_;
};

} // namespace vstream

#endif // VSTREAM_CACHE_REPLACEMENT_HH
