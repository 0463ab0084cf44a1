#include "core/frame_buffer_manager.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sim/logging.hh"

namespace vstream
{

FrameBufferManager::FrameBufferManager(MemorySystem &mem,
                                       std::uint32_t mab_count,
                                       std::uint32_t mab_bytes,
                                       std::uint64_t mach_dump_bytes)
    : mem_(mem), mab_count_(mab_count), mab_bytes_(mab_bytes),
      // Worst-case metadata: a 4 B pointer/digest stream and a 3 B
      // base stream (kept in disjoint halves with slack so the two
      // write-combining cursors never collide) plus the 1 bit/mab
      // pointer-vs-digest bitmap.
      meta_capacity_(static_cast<std::uint64_t>(mab_count) * 9 +
                     (mab_count + 7) / 8 + 128),
      data_capacity_(static_cast<std::uint64_t>(mab_count) * mab_bytes),
      mach_dump_capacity_(mach_dump_bytes)
{
    vs_assert(data_capacity_ <= std::numeric_limits<std::uint32_t>::max(),
              "frame data region exceeds 32-bit block offsets: ",
              data_capacity_);
}

BufferSlot &
FrameBufferManager::acquire(std::uint64_t frame_index)
{
    // The pool recycles the lowest-indexed free slot (preserving the
    // historical first-free scan order) or constructs a new one; the
    // make callback runs only on growth, so the DRAM regions and the
    // block storage are allocated exactly once per slot.
    BufferSlot &slot = slots_.acquire([this] {
        BufferSlot fresh;
        fresh.arena.reserve(data_capacity_);
        fresh.offsets.resize(mab_count_);
        fresh.meta_base = mem_.allocate(meta_capacity_, "fb.meta");
        fresh.data_base = mem_.allocate(data_capacity_, "fb.data");
        fresh.mach_dump_base =
            mach_dump_capacity_
                ? mem_.allocate(mach_dump_capacity_, "fb.machdump")
                : 0;
        fresh.meta_capacity = meta_capacity_;
        fresh.data_capacity = data_capacity_;
        fresh.mach_dump_capacity = mach_dump_capacity_;
        return fresh;
    });
    slot.frame_index = frame_index;
    slot.arena.clear();
    slot.blocks = 0;
    return slot;
}

void
FrameBufferManager::release(std::uint64_t frame_index)
{
    for (std::size_t i = 0; i < slots_.allocated(); ++i) {
        BufferSlot &slot = slots_.at(i);
        if (slots_.liveAt(i) && slot.frame_index == frame_index) {
            slots_.release(slot);
            return;
        }
    }
}

// vstream:hot
FrameBufferManager::Location
FrameBufferManager::locate(Addr addr) const
{
    for (std::size_t i = 0; i < slots_.allocated(); ++i) {
        const BufferSlot &slot = slots_.at(i);
        if (addr < slot.data_base ||
            addr >= slot.data_base + data_capacity_) {
            continue;
        }
        const auto off = static_cast<std::uint32_t>(addr - slot.data_base);
        const std::uint32_t *first = slot.offsets.data();
        // Linear, pointer and pointer+digest frames store their k-th
        // block at k * mab_bytes, so the probe is exact.  DCC-compacted
        // frames pack blocks at prefix sums of their compressed sizes;
        // only they fall back to the binary search.
        std::uint32_t k = off / mab_bytes_;
        if (k >= slot.blocks || first[k] != off) {
            k = static_cast<std::uint32_t>(
                std::lower_bound(first, first + slot.blocks, off) -
                first);
            if (k < slot.blocks && first[k] != off) {
                k = slot.blocks;
            }
        }
        return {i, k};
    }
    return {slots_.allocated(), 0};
}

// vstream:hot
void
FrameBufferManager::storeBlock(Addr addr,
                               std::span<const std::uint8_t> bytes)
{
    const Location at = locate(addr);
    vs_assert(at.slot < slots_.allocated(),
              "block store outside any frame buffer: addr=", addr);
    vs_assert(bytes.size() == mab_bytes_, "block of ", bytes.size(),
              " bytes stored; blocks are ", mab_bytes_);
    BufferSlot &slot = slots_.at(at.slot);
    if (at.block < slot.blocks) {
        std::memcpy(slot.arena.data() +
                        static_cast<std::size_t>(at.block) * mab_bytes_,
                    bytes.data(), mab_bytes_);
        return;
    }
    const auto off = static_cast<std::uint32_t>(addr - slot.data_base);
    vs_assert(slot.blocks == 0 || off > slot.offsets[slot.blocks - 1],
              "out-of-order block append at offset ", off);
    vs_assert(slot.blocks < slot.offsets.size(),
              "more blocks than a frame holds");
    slot.offsets[slot.blocks++] = off;
    slot.arena.insert(slot.arena.end(), bytes.begin(), bytes.end());
}

// vstream:hot
std::span<const std::uint8_t>
FrameBufferManager::loadBlock(Addr addr) const
{
    const Location at = locate(addr);
    if (at.slot == slots_.allocated()) {
        return {};
    }
    const BufferSlot &slot = slots_.at(at.slot);
    if (at.block == slot.blocks) {
        return {};
    }
    return {slot.arena.data() +
                static_cast<std::size_t>(at.block) * mab_bytes_,
            mab_bytes_};
}

std::uint64_t
FrameBufferManager::poolBytes() const
{
    return static_cast<std::uint64_t>(slots_.allocated()) *
           (meta_capacity_ + data_capacity_ + mach_dump_capacity_);
}

} // namespace vstream
