/**
 * @file
 * Frame-buffer pool and simulated block store.
 *
 * Allocates per-frame buffer slots (metadata + data regions) out of
 * simulated DRAM, recycles them once a frame is both displayed and
 * outside the MACH reference window, and tracks the peak number of
 * simultaneously live buffers - the quantity behind the paper's
 * memory-capacity discussion (5.3x for 16-frame batching, Fig. 12a's
 * extra-buffer counts).
 *
 * The manager also plays the role of "what the bytes in DRAM are":
 * block contents written by the decoder are stored here so the
 * display model can reconstruct frames and the test suite can verify
 * losslessness end to end.  Loads go by address, because pointer
 * records and dumped MACH images point into other frames' slots.
 */

#ifndef VSTREAM_CORE_FRAME_BUFFER_MANAGER_HH
#define VSTREAM_CORE_FRAME_BUFFER_MANAGER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "core/surface_pool.hh"
#include "mem/memory_system.hh"

namespace vstream
{

/** One reusable frame-buffer slot. */
struct BufferSlot
{
    Addr meta_base = 0;
    Addr data_base = 0;
    Addr mach_dump_base = 0;
    std::uint64_t meta_capacity = 0;
    std::uint64_t data_capacity = 0;
    std::uint64_t mach_dump_capacity = 0;
    std::uint64_t frame_index = 0;
    /**
     * Simulated contents.  Writers append blocks in ascending address
     * order; block k's bytes sit at k * mab_bytes in the arena and
     * its offset from data_base at offsets[k].  Both are sized for a
     * frame's worth of blocks when the slot is created.
     */
    std::vector<std::uint8_t> arena;
    std::vector<std::uint32_t> offsets;
    std::uint32_t blocks = 0;
};

/** Pool of frame buffers plus the simulated block store. */
class FrameBufferManager
{
  public:
    /**
     * @param mem             owner of the simulated address space
     * @param mab_count       mabs per frame
     * @param mab_bytes       decoded bytes per mab (every block's size)
     * @param mach_dump_bytes capacity reserved for a MACH dump image
     */
    FrameBufferManager(MemorySystem &mem, std::uint32_t mab_count,
                       std::uint32_t mab_bytes,
                       std::uint64_t mach_dump_bytes);

    /** Acquire a slot for @p frame_index (recycles a free slot or
     * grows the pool). */
    BufferSlot &acquire(std::uint64_t frame_index);

    /** Release the slot holding @p frame_index (no-op if absent). */
    void release(std::uint64_t frame_index);

    /**
     * Record a block at @p addr, which must fall inside some slot:
     * either overwrite the block already stored there or append past
     * the slot's last block.  @p bytes must be mab_bytes long.
     */
    void storeBlock(Addr addr, std::span<const std::uint8_t> bytes);

    /**
     * Bytes of the block stored at @p addr; empty when nothing is.
     * Valid until the next storeBlock() or acquire().
     */
    std::span<const std::uint8_t> loadBlock(Addr addr) const;

    /** Slots ever allocated (== peak simultaneous buffers). */
    std::uint32_t slotsAllocated() const
    {
        return static_cast<std::uint32_t>(slots_.allocated());
    }

    /** Total DRAM footprint of the pool, bytes. */
    std::uint64_t poolBytes() const;

  private:
    /** Where an address lands: its slot (allocated() when none) and
     * the ordinal of the block stored exactly there (the slot's block
     * count when none is). */
    struct Location
    {
        std::size_t slot;
        std::uint32_t block;
    };
    Location locate(Addr addr) const;

    MemorySystem &mem_;
    std::uint32_t mab_count_;
    std::uint32_t mab_bytes_;
    std::uint64_t meta_capacity_;
    std::uint64_t data_capacity_;
    std::uint64_t mach_dump_capacity_;
    /**
     * Slot-stable recycled pool; lowest-index-first acquisition
     * preserves the DRAM address assignment order the simulated
     * timing (and golden outputs) depend on.
     */
    SurfacePool<BufferSlot> slots_{"fbm.slots"};
};

} // namespace vstream

#endif // VSTREAM_CORE_FRAME_BUFFER_MANAGER_HH
