#include "cache/set_assoc_cache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/stats_registry.hh"

namespace vstream
{

namespace
{

std::uint32_t
log2u(std::uint64_t v)
{
    std::uint32_t bits = 0;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg), sets_(cfg.numSets()),
      ways_(cfg.assoc), line_shift_(log2u(cfg.line_bytes)),
      tags_(cfg.numLines(), kInvalidTag), dirty_(cfg.numLines(), 0),
      repl_(cfg.policy, sets_, ways_)
{
    cfg_.validate();
}

std::uint32_t
SetAssocCache::findWay(std::uint32_t set, Addr line) const
{
    // Branchless match over the set's tags: no way-dependent branch
    // to mispredict, and a line sits in at most one way.
    const std::uint64_t *tags =
        &tags_[static_cast<std::size_t>(set) * ways_];
    std::uint32_t way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        way = tags[w] == line ? w : way;
    }
    return way;
}

void
SetAssocCache::invalidateWay(std::size_t i)
{
    tags_[i] = kInvalidTag;
    dirty_[i] = 0;
}

// vstream:allow(no-hotpath-alloc) appends into the caller's reused
// summary scratch; its vectors keep their capacity across accesses
[[gnu::noinline]] void
SetAssocCache::missFill(std::uint32_t set, Addr line, MemOp op,
                        CacheAccessSummary &summary)
{
    if (op == MemOp::kWrite && !cfg_.write_allocate) {
        // Streaming store: bypass, no state change.
        return;
    }

    // Take the first invalid way; otherwise evict the policy's victim.
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    std::uint32_t way = 0;
    while (way < ways_ && tags_[base + way] != kInvalidTag) {
        ++way;
    }
    if (way == ways_) {
        way = repl_.victim(set);
        ++evictions_;
        if (dirty_[base + way] != 0) {
            ++writebacks_;
            summary.writebacks.push_back(tags_[base + way] << line_shift_);
        }
    }

    tags_[base + way] = line;
    dirty_[base + way] = op == MemOp::kWrite && cfg_.write_back;
    repl_.fill(set, way);
    // A read miss fetches the line; so does an allocating write
    // (fetch-on-write brings the whole line in).
    summary.fills.push_back(line << line_shift_);
}

CacheAccessSummary
SetAssocCache::access(Addr addr, std::uint32_t size, MemOp op)
{
    CacheAccessSummary summary;
    accessInto(addr, size, op, summary);
    return summary;
}

// vstream:hot
void
SetAssocCache::accessInto(Addr addr, std::uint32_t size, MemOp op,
                          CacheAccessSummary &summary)
{
    vs_assert(size > 0, "zero-size cache access");

    summary.writebacks.clear();
    summary.fills.clear();
    const Addr first = addr >> line_shift_;
    const Addr last = (addr + size - 1) >> line_shift_;
    const std::uint32_t set_mask = sets_ - 1;
    const std::uint8_t hit_dirty = cfg_.write_back ? 1 : 0;
    std::uint32_t hits = 0;
    for (Addr line = first; line <= last; ++line) {
        const auto set = static_cast<std::uint32_t>(line & set_mask);
        const std::uint32_t way = findWay(set, line);
        if (way == ways_) {
            missFill(set, line, op, summary);
            continue;
        }
        ++hits;
        repl_.touch(set, way);
        if (op == MemOp::kWrite) {
            dirty_[static_cast<std::size_t>(set) * ways_ + way] =
                hit_dirty;
        }
    }
    const auto lines = static_cast<std::uint32_t>(last - first + 1);
    summary.lines = lines;
    summary.hits = hits;
    summary.misses = lines - hits;
    hits_ += hits;
    misses_ += lines - hits;
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr line = addr >> line_shift_;
    return findWay(static_cast<std::uint32_t>(line & (sets_ - 1)),
                   line) != ways_;
}

void
SetAssocCache::invalidateAll()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

std::uint64_t
SetAssocCache::invalidateRange(Addr addr, std::uint64_t size)
{
    if (size == 0) {
        return 0;
    }
    std::uint64_t invalidated = 0;
    const Addr first = addr >> line_shift_;
    const Addr last = (addr + size - 1) >> line_shift_;

    // For ranges larger than the cache, walking the cache itself is
    // cheaper than walking the address range.
    if (last - first + 1 >= tags_.size()) {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (tags_[i] != kInvalidTag && tags_[i] >= first &&
                tags_[i] <= last) {
                invalidateWay(i);
                ++invalidated;
            }
        }
        return invalidated;
    }

    for (Addr line = first; line <= last; ++line) {
        const auto set = static_cast<std::uint32_t>(line & (sets_ - 1));
        const std::uint32_t way = findWay(set, line);
        if (way != ways_) {
            invalidateWay(static_cast<std::size_t>(set) * ways_ + way);
            ++invalidated;
        }
    }
    return invalidated;
}

std::vector<Addr>
SetAssocCache::flush()
{
    // Flat order is set-major, way-minor.
    std::vector<Addr> dirty_lines;
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        if (tags_[i] != kInvalidTag && dirty_[i] != 0) {
            dirty_lines.push_back(tags_[i] << line_shift_);
        }
    }
    invalidateAll();
    writebacks_ += dirty_lines.size();
    return dirty_lines;
}

double
SetAssocCache::missRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) /
                       static_cast<double>(total)
                 : 0.0;
}

void
SetAssocCache::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    writebacks_ = 0;
}

void
SetAssocCache::regStats(StatsRegistry &r) const
{
    r.addCallback(name_ + ".hits", "lines hit",
                  [this] { return static_cast<double>(hits_); });
    r.addCallback(name_ + ".misses", "lines missed",
                  [this] { return static_cast<double>(misses_); });
    r.addCallback(name_ + ".missRate", "misses / accesses",
                  [this] { return missRate(); });
    r.addCallback(name_ + ".evictions", "valid lines evicted",
                  [this] { return static_cast<double>(evictions_); });
    r.addCallback(name_ + ".writebacks", "dirty lines written back",
                  [this] { return static_cast<double>(writebacks_); });
}

} // namespace vstream
