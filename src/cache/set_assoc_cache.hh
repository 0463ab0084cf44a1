/**
 * @file
 * Generic address-indexed set-associative cache model.
 *
 * Instantiated as the video decoder's internal cache (Fig. 7a sweeps
 * it from 32 KB to 512 KB) and, with assoc=1, as the 16 KB display
 * cache.  The model tracks tags and dirty bits only; data correctness
 * is the client's concern (the simulator keeps pixel data in Frame
 * objects).
 */

#ifndef VSTREAM_CACHE_SET_ASSOC_CACHE_HH
#define VSTREAM_CACHE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache_config.hh"
#include "cache/replacement.hh"
#include "mem/mem_request.hh"

namespace vstream
{

class StatsRegistry;

/** Outcome of a (possibly multi-line) cache access. */
struct CacheAccessSummary
{
    std::uint32_t lines = 0;
    std::uint32_t hits = 0;
    std::uint32_t misses = 0;
    /** Line addresses of dirty victims that must be written back. */
    std::vector<Addr> writebacks;
    /** Line addresses that must be fetched from memory. */
    std::vector<Addr> fills;

    bool allHit() const { return misses == 0; }
};

/** Tag-only set-associative cache. */
class SetAssocCache
{
  public:
    SetAssocCache(std::string name, const CacheConfig &cfg);

    /**
     * Access [addr, addr+size) with operation @p op.
     *
     * Reads allocate on miss.  Writes allocate only when the config
     * enables write_allocate; otherwise write misses bypass the cache
     * entirely (streaming store).
     */
    CacheAccessSummary access(Addr addr, std::uint32_t size, MemOp op);

    /**
     * Zero-alloc variant of access(): results land in @p summary,
     * whose vectors are cleared and reused (hot paths pass a member
     * scratch so steady-state accesses never allocate).
     */
    void accessInto(Addr addr, std::uint32_t size, MemOp op,
                    CacheAccessSummary &summary);

    /** Probe without updating any state. */
    bool contains(Addr addr) const;

    /** Invalidate everything (dirty contents dropped). */
    void invalidateAll();

    /**
     * Invalidate every line covering [addr, addr+size) (dirty data
     * dropped) - the coherence action for a DMA engine overwriting
     * memory behind the cache.
     *
     * @return number of lines invalidated.
     */
    std::uint64_t invalidateRange(Addr addr, std::uint64_t size);

    /**
     * Flush: returns dirty line addresses and leaves the cache
     * clean+empty.
     */
    std::vector<Addr> flush();

    const CacheConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }

    std::uint64_t hitCount() const { return hits_; }
    std::uint64_t missCount() const { return misses_; }
    std::uint64_t evictionCount() const { return evictions_; }
    std::uint64_t writebackCount() const { return writebacks_; }
    double missRate() const;

    void resetStats();

    /** Register hit/miss/eviction stats under this cache's name. */
    void regStats(StatsRegistry &r) const;

  private:
    /** Tag of an invalid way.  Tags are line numbers and lines are
     * at least 2 bytes (CacheConfig::validate), so no line has it. */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    /** Way of @p line in @p set, or ways_ on a miss. */
    std::uint32_t findWay(std::uint32_t set, Addr line) const;

    /** Miss path of accessInto: allocate @p line (unless a write
     * bypasses), evicting the policy's victim when the set is full. */
    void missFill(std::uint32_t set, Addr line, MemOp op,
                  CacheAccessSummary &summary);

    /** Drop the way at flat index @p i (dirty data discarded). */
    void invalidateWay(std::size_t i);

    std::string name_;
    CacheConfig cfg_;
    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t line_shift_;
    /**
     * Structure-of-arrays way state, indexed set * ways_ + way.  The
     * tag is the full line number (addr >> line_shift_): the set
     * index is its low bits, and the line address is the tag shifted
     * back, so neither a probe nor a writeback divides.
     */
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> dirty_;
    ReplacementState repl_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace vstream

#endif // VSTREAM_CACHE_SET_ASSOC_CACHE_HH
