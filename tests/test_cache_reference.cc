/**
 * @file
 * Differential test of SetAssocCache against a slow reference model.
 *
 * The reference keeps every set as a vector of way slots plus a
 * std::list of way indices in victim order (front = next victim):
 * LRU moves a hit way to the back, FIFO leaves it where it was filled.
 * Fills take the lowest invalid way, as the real cache does, so flush
 * order (set-major, way-minor) is comparable too.  Random streams of
 * reads, writes, range invalidations, invalidate-all and flushes run
 * through both models over a sweep of geometries and every
 * write_allocate / write_back combination; every call must agree.
 */

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "sim/random.hh"

namespace vstream
{
namespace
{

/** List-based LRU/FIFO set-associative reference cache. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &cfg)
        : cfg_(cfg), sets_(cfg.numSets()),
          ways_(sets_, std::vector<std::optional<Way>>(cfg.assoc)),
          order_(sets_)
    {
    }

    CacheAccessSummary
    access(Addr addr, std::uint32_t size, MemOp op)
    {
        CacheAccessSummary s;
        const Addr first = addr / cfg_.line_bytes;
        const Addr last = (addr + size - 1) / cfg_.line_bytes;
        for (Addr ln = first; ln <= last; ++ln) {
            ++s.lines;
            if (accessLine(ln, op, s)) {
                ++s.hits;
            } else {
                ++s.misses;
            }
        }
        return s;
    }

    bool
    contains(Addr addr) const
    {
        const Addr ln = addr / cfg_.line_bytes;
        return findWay(ln).has_value();
    }

    std::uint64_t
    invalidateRange(Addr addr, std::uint64_t size)
    {
        if (size == 0) {
            return 0;
        }
        const Addr first = addr / cfg_.line_bytes;
        const Addr last = (addr + size - 1) / cfg_.line_bytes;
        std::uint64_t n = 0;
        for (std::uint32_t set = 0; set < sets_; ++set) {
            for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
                auto &slot = ways_[set][w];
                if (slot && slot->line >= first && slot->line <= last) {
                    drop(set, w);
                    ++n;
                }
            }
        }
        return n;
    }

    void
    invalidateAll()
    {
        for (std::uint32_t set = 0; set < sets_; ++set) {
            for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
                if (ways_[set][w]) {
                    drop(set, w);
                }
            }
        }
    }

    std::vector<Addr>
    flush()
    {
        std::vector<Addr> dirty;
        for (std::uint32_t set = 0; set < sets_; ++set) {
            for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
                const auto &slot = ways_[set][w];
                if (slot && slot->dirty) {
                    dirty.push_back(slot->line * cfg_.line_bytes);
                }
            }
        }
        invalidateAll();
        writebacks_ += dirty.size();
        return dirty;
    }

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;

  private:
    struct Way
    {
        Addr line = 0;
        bool dirty = false;
    };

    std::uint32_t setOf(Addr ln) const { return ln % sets_; }

    std::optional<std::uint32_t>
    findWay(Addr ln) const
    {
        const std::uint32_t set = setOf(ln);
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (ways_[set][w] && ways_[set][w]->line == ln) {
                return w;
            }
        }
        return std::nullopt;
    }

    void
    drop(std::uint32_t set, std::uint32_t w)
    {
        ways_[set][w].reset();
        order_[set].remove(w);
    }

    bool
    accessLine(Addr ln, MemOp op, CacheAccessSummary &s)
    {
        const std::uint32_t set = setOf(ln);
        if (const auto w = findWay(ln)) {
            ++hits_;
            if (cfg_.policy == ReplPolicy::kLru) {
                order_[set].remove(*w);
                order_[set].push_back(*w);
            }
            if (op == MemOp::kWrite) {
                ways_[set][*w]->dirty = cfg_.write_back;
            }
            return true;
        }
        ++misses_;
        if (op == MemOp::kWrite && !cfg_.write_allocate) {
            return false;
        }
        std::uint32_t way = cfg_.assoc;
        for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
            if (!ways_[set][w]) {
                way = w;
                break;
            }
        }
        if (way == cfg_.assoc) {
            way = order_[set].front();
            ++evictions_;
            if (ways_[set][way]->dirty) {
                ++writebacks_;
                s.writebacks.push_back(ways_[set][way]->line *
                                       cfg_.line_bytes);
            }
            drop(set, way);
        }
        ways_[set][way] =
            Way{ln, op == MemOp::kWrite && cfg_.write_back};
        order_[set].push_back(way);
        s.fills.push_back(ln * cfg_.line_bytes);
        return false;
    }

    CacheConfig cfg_;
    std::uint32_t sets_;
    std::vector<std::vector<std::optional<Way>>> ways_;
    std::vector<std::list<std::uint32_t>> order_;
};

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t assoc;
    std::uint32_t line_bytes;
    ReplPolicy policy;
    bool write_allocate;
    bool write_back;
};

std::string
describe(const Geometry &g)
{
    return std::to_string(g.sets) + " sets x " + std::to_string(g.assoc) +
           " ways x " + std::to_string(g.line_bytes) + " B, " +
           replPolicyName(g.policy) + ", wa=" +
           std::to_string(g.write_allocate) +
           " wb=" + std::to_string(g.write_back);
}

/** Events a stream exercised, so sweeps can check they had teeth. */
struct Exercised
{
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Drive one random stream through both models, comparing after every
 * call, and add the events it exercised to @p seen.
 */
void
runStream(const Geometry &g, std::uint64_t seed, std::uint32_t ops,
          Exercised &seen)
{
    SCOPED_TRACE(describe(g));
    CacheConfig cfg;
    cfg.line_bytes = g.line_bytes;
    cfg.assoc = g.assoc;
    cfg.size_bytes = static_cast<std::uint64_t>(g.sets) * g.assoc *
                     g.line_bytes;
    cfg.policy = g.policy;
    cfg.write_allocate = g.write_allocate;
    cfg.write_back = g.write_back;

    SetAssocCache dut("dut", cfg);
    ReferenceCache ref(cfg);
    Random rng(seed);

    // Addresses span a few cache capacities so sets see conflicts,
    // from a far base so tags are not all small.
    const Addr span = cfg.size_bytes * 3 + g.line_bytes * 5;
    const Addr base = (rng.next() & 0xffffULL) * cfg.size_bytes * 64;
    CacheAccessSummary scratch;

    for (std::uint32_t i = 0; i < ops; ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        const Addr addr = base + rng.uniformInt(0, span - 1);
        const std::uint64_t kind = rng.uniformInt(0, 99);
        if (kind < 88) {
            const MemOp op = kind < 55 ? MemOp::kRead : MemOp::kWrite;
            const auto size = static_cast<std::uint32_t>(
                rng.uniformInt(1, 4ULL * g.line_bytes));
            const CacheAccessSummary want = ref.access(addr, size, op);
            dut.accessInto(addr, size, op, scratch);
            ASSERT_EQ(scratch.lines, want.lines);
            ASSERT_EQ(scratch.hits, want.hits);
            ASSERT_EQ(scratch.misses, want.misses);
            ASSERT_EQ(scratch.fills, want.fills);
            ASSERT_EQ(scratch.writebacks, want.writebacks);
        } else if (kind < 95) {
            const std::uint64_t size =
                rng.uniformInt(0, 2 * cfg.size_bytes);
            ASSERT_EQ(dut.invalidateRange(addr, size),
                      ref.invalidateRange(addr, size));
        } else if (kind < 97) {
            dut.invalidateAll();
            ref.invalidateAll();
        } else {
            ASSERT_EQ(dut.flush(), ref.flush());
        }
        const Addr probe = base + rng.uniformInt(0, span - 1);
        ASSERT_EQ(dut.contains(probe), ref.contains(probe));
        ASSERT_EQ(dut.hitCount(), ref.hits_);
        ASSERT_EQ(dut.missCount(), ref.misses_);
        ASSERT_EQ(dut.evictionCount(), ref.evictions_);
        ASSERT_EQ(dut.writebackCount(), ref.writebacks_);
    }
    seen.hits += dut.hitCount();
    seen.evictions += dut.evictionCount();
    seen.writebacks += dut.writebackCount();
}

TEST(CacheReference, MatchesAcrossGeometries)
{
    Exercised seen;
    std::uint64_t seed = 1;
    for (const std::uint32_t sets : {1u, 2u, 8u, 64u, 256u}) {
        for (const std::uint32_t assoc :
             {1u, 2u, 3u, 4u, 5u, 8u, 12u, 16u}) {
            for (const ReplPolicy policy :
                 {ReplPolicy::kLru, ReplPolicy::kFifo}) {
                for (int mode = 0; mode < 4; ++mode) {
                    const Geometry g{sets, assoc, 64, policy,
                                     (mode & 1) != 0, (mode & 2) != 0};
                    runStream(g, seed++, 1500, seen);
                    if (HasFatalFailure()) {
                        return;
                    }
                }
            }
        }
    }
    EXPECT_GT(seen.hits, 0u);
    EXPECT_GT(seen.evictions, 0u);
    EXPECT_GT(seen.writebacks, 0u);
}

TEST(CacheReference, MatchesAcrossLineSizes)
{
    Exercised seen;
    std::uint64_t seed = 1000;
    for (const std::uint32_t line : {16u, 32u, 128u}) {
        for (const std::uint32_t assoc : {1u, 4u, 16u}) {
            for (int mode = 0; mode < 4; ++mode) {
                const Geometry g{16, assoc, line, ReplPolicy::kLru,
                                 (mode & 1) != 0, (mode & 2) != 0};
                runStream(g, seed++, 1500, seen);
                if (HasFatalFailure()) {
                    return;
                }
            }
        }
    }
    EXPECT_GT(seen.evictions, 0u);
}

TEST(CacheReference, ProductionGeometries)
{
    // The VD cache (64 KB, 4-way, streaming writes) and a 16 KB
    // direct-mapped cache like the display's, with long streams.
    Exercised seen;
    runStream(Geometry{256, 4, 64, ReplPolicy::kLru, false, true}, 77,
              20000, seen);
    ASSERT_FALSE(HasFatalFailure());
    runStream(Geometry{256, 1, 64, ReplPolicy::kLru, true, true}, 78,
              20000, seen);
    EXPECT_GT(seen.evictions, 0u);
    EXPECT_GT(seen.writebacks, 0u);
}

} // namespace
} // namespace vstream
