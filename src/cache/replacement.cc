#include "cache/replacement.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vstream
{

ReplacementState::ReplacementState(ReplPolicy policy, std::uint32_t sets,
                                   std::uint32_t ways, std::uint64_t seed)
    : policy_(policy), ways_(ways),
      stamps_(static_cast<std::size_t>(sets) * ways, 0), rng_(seed)
{
    vs_assert(sets > 0 && ways > 0, "empty replacement state");
}

void
ReplacementState::reset(std::uint64_t seed)
{
    std::fill(stamps_.begin(), stamps_.end(), 0);
    clock_ = 0;
    rng_.seed(seed);
}

std::uint32_t
ReplacementState::victim(std::uint32_t set)
{
    if (policy_ == ReplPolicy::kRandom) {
        return static_cast<std::uint32_t>(rng_.uniformInt(0, ways_ - 1));
    }

    const std::uint64_t *stamps = &stamps_[index(set, 0)];
    std::uint32_t best = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
        if (stamps[w] < stamps[best]) {
            best = w;
        }
    }
    return best;
}

} // namespace vstream
