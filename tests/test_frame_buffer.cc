/**
 * @file
 * Tests for the frame-buffer pool and its block store: slot
 * recycling, the store/load contract, and a differential check of
 * the store against a std::map reference over linear, MACH and
 * DCC-compacted frames.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "core/frame_buffer_manager.hh"
#include "core/writeback_stage.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "video/synthetic_video.hh"

namespace vstream
{
namespace
{

constexpr std::uint32_t kMabBytes = 48;

struct Rig
{
    EventQueue queue;
    MemorySystem mem;
    FrameBufferManager fbm;

    explicit Rig(std::uint32_t mabs = 32)
        : mem("mem", &queue, DramConfig{}),
          fbm(mem, mabs, kMabBytes, 4096)
    {
    }
};

std::vector<std::uint8_t>
bytesOf(std::span<const std::uint8_t> s)
{
    return {s.begin(), s.end()};
}

std::vector<std::uint8_t>
randomBlock(Random &rng)
{
    std::vector<std::uint8_t> b(kMabBytes);
    for (auto &byte : b) {
        byte = static_cast<std::uint8_t>(rng.next());
    }
    return b;
}

TEST(FrameBufferManager, AcquireReleaseRecycles)
{
    Rig rig;
    BufferSlot &a = rig.fbm.acquire(0);
    const Addr data0 = a.data_base;
    rig.fbm.release(0);
    BufferSlot &b = rig.fbm.acquire(1);
    EXPECT_EQ(b.data_base, data0); // recycled slot
    EXPECT_EQ(rig.fbm.slotsAllocated(), 1u);
}

TEST(FrameBufferManager, GrowsWhenAllBusy)
{
    Rig rig;
    rig.fbm.acquire(0);
    rig.fbm.acquire(1);
    EXPECT_EQ(rig.fbm.slotsAllocated(), 2u);
    EXPECT_GT(rig.fbm.poolBytes(), 0u);
}

TEST(FrameBufferManager, ReleaseGoesByFrameIndex)
{
    Rig rig;
    rig.fbm.acquire(3);
    rig.fbm.release(4); // no such frame: the slot stays busy
    rig.fbm.acquire(5);
    EXPECT_EQ(rig.fbm.slotsAllocated(), 2u);
    rig.fbm.release(3);
    rig.fbm.acquire(6); // reuses frame 3's slot
    EXPECT_EQ(rig.fbm.slotsAllocated(), 2u);
}

TEST(FrameBufferManager, BlockStoreRoundTrip)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    const std::vector<std::uint8_t> bytes(kMabBytes, 0x5a);
    rig.fbm.storeBlock(slot.data_base + 96, bytes);
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(slot.data_base + 96)), bytes);
    EXPECT_TRUE(rig.fbm.loadBlock(slot.data_base + 97).empty());
    EXPECT_TRUE(rig.fbm.loadBlock(slot.data_base).empty());
}

TEST(FrameBufferManager, OverwriteInPlace)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    rig.fbm.storeBlock(slot.data_base, std::vector<std::uint8_t>(48, 1));
    rig.fbm.storeBlock(slot.data_base + 48,
                       std::vector<std::uint8_t>(48, 2));
    rig.fbm.storeBlock(slot.data_base, std::vector<std::uint8_t>(48, 3));
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(slot.data_base)),
              std::vector<std::uint8_t>(48, 3));
    EXPECT_EQ(bytesOf(rig.fbm.loadBlock(slot.data_base + 48)),
              std::vector<std::uint8_t>(48, 2));
}

TEST(FrameBufferManager, RecycleClearsBlocks)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    rig.fbm.storeBlock(slot.data_base, std::vector<std::uint8_t>(48, 1));
    rig.fbm.release(0);
    rig.fbm.acquire(5);
    EXPECT_TRUE(rig.fbm.loadBlock(slot.data_base).empty());
}

TEST(FrameBufferManagerDeath, StoreOutsideSlotsPanics)
{
    Rig rig;
    EXPECT_DEATH(rig.fbm.storeBlock(0xdeadbeef,
                                    std::vector<std::uint8_t>(48, 1)),
                 "outside any frame buffer");
}

TEST(FrameBufferManagerDeath, OutOfOrderAppendPanics)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    rig.fbm.storeBlock(slot.data_base + 96,
                       std::vector<std::uint8_t>(48, 1));
    EXPECT_DEATH(rig.fbm.storeBlock(slot.data_base + 48,
                                    std::vector<std::uint8_t>(48, 2)),
                 "out-of-order block append");
}

TEST(FrameBufferManagerDeath, WrongBlockSizePanics)
{
    Rig rig;
    BufferSlot &slot = rig.fbm.acquire(0);
    EXPECT_DEATH(rig.fbm.storeBlock(slot.data_base,
                                    std::vector<std::uint8_t>(47, 1)),
                 "blocks are 48");
}

/**
 * Differential check against a std::map<Addr, bytes> reference.
 * Frames cycle through the three ways writers place blocks - every
 * block at k * mab_bytes (linear), a unique subset packed at
 * k * mab_bytes (MACH), and a subset packed at prefix sums of
 * compressed sizes (DCC) - interleaved with in-place overwrites,
 * loads from every slot that still holds data, probes of unstored
 * addresses and slot recycling through a three-frame window.
 */
TEST(FrameBufferManager, MatchesMapReference)
{
    constexpr std::uint32_t kMabs = 24;
    constexpr std::uint32_t kWindow = 3;
    Rig rig(kMabs);
    Random rng(2024);
    std::map<Addr, std::vector<std::uint8_t>> ref;
    std::uint64_t loads = 0;

    auto checkAll = [&](Addr lo, Addr hi) {
        for (Addr a = lo; a < hi; ++a) {
            const auto it = ref.find(a);
            const auto got = rig.fbm.loadBlock(a);
            if (it == ref.end()) {
                ASSERT_TRUE(got.empty()) << "phantom block at " << a;
            } else {
                ASSERT_EQ(bytesOf(got), it->second) << "addr " << a;
            }
            ++loads;
        }
    };

    std::vector<const BufferSlot *> slots;
    for (std::uint64_t f = 0; f < 30; ++f) {
        if (f >= kWindow) {
            rig.fbm.release(f - kWindow);
        }
        BufferSlot &slot = rig.fbm.acquire(f);
        // A recycled slot forgets everything it held.
        ref.erase(ref.lower_bound(slot.data_base),
                  ref.lower_bound(slot.data_base + slot.data_capacity));
        if (std::find(slots.begin(), slots.end(), &slot) == slots.end()) {
            slots.push_back(&slot);
        }

        std::uint64_t off = 0;
        for (std::uint32_t k = 0; k < kMabs; ++k) {
            const int layout = static_cast<int>(f % 3);
            if (layout != 0 && rng.chance(0.4)) {
                continue; // a MACH hit: nothing stored for this mab
            }
            const Addr addr = slot.data_base + off;
            const auto block = randomBlock(rng);
            rig.fbm.storeBlock(addr, block);
            ref[addr] = block;
            off += layout == 2 ? rng.uniformInt(1, kMabBytes) : kMabBytes;
            if (rng.chance(0.2)) {
                // Overwrite an earlier block of this frame in place.
                const auto first = ref.lower_bound(slot.data_base);
                const auto n = static_cast<std::size_t>(
                    std::distance(first, ref.upper_bound(addr)));
                auto victim = first;
                std::advance(victim, rng.uniformInt(0, n - 1));
                victim->second = randomBlock(rng);
                rig.fbm.storeBlock(victim->first, victim->second);
            }
        }
        for (const BufferSlot *s : slots) {
            checkAll(s->data_base, s->data_base + s->data_capacity);
        }
    }
    EXPECT_EQ(rig.fbm.slotsAllocated(), kWindow);
    EXPECT_GT(loads, 0u);
}

/** Every unique block a DCC-compacting MachWriteback stores loads
 * back as the block it wrote, at its compacted address. */
TEST(FrameBufferManager, DccCompactedFramesLoadBack)
{
    VideoProfile p;
    p.key = "F";
    p.width = 96;
    p.height = 48;
    p.frame_count = 4;
    p.seed = 5;
    const std::uint32_t mab_bytes = p.mab_dim * p.mab_dim * 3;
    EventQueue queue;
    MemorySystem mem("mem", &queue, DramConfig{});
    FrameBufferManager fbm(mem, p.mabsPerFrame(), mab_bytes, 4096);
    MachConfig mcfg;
    MachArray machs(mcfg);
    MachWriteback wb(mem, fbm, machs, LayoutKind::kPointer,
                     /*use_dcc=*/true);
    SyntheticVideo video(p);
    std::vector<FrameLayout> layouts(p.frame_count);
    std::uint64_t packed = 0;
    for (std::uint32_t fi = 0; fi < p.frame_count; ++fi) {
        const Frame &f = video.nextFrame();
        BufferSlot &slot = fbm.acquire(fi);
        wb.beginFrame(f, slot, 0, layouts[fi]);
        std::uint32_t unique = 0;
        for (std::uint32_t i = 0; i < f.mabCount(); ++i) {
            wb.writeMab(f.mab(i), i, 0);
            const MabRecord &rec = layouts[fi].record(i);
            if (rec.storage != MabStorage::kUnique) {
                continue;
            }
            if (rec.data_addr != slot.data_base + unique * mab_bytes) {
                ++packed; // off the k * mab_bytes grid
            }
            ++unique;
            ASSERT_EQ(bytesOf(fbm.loadBlock(rec.data_addr)),
                      f.mab(i).bytes());
        }
        wb.finishFrame(0);
    }
    EXPECT_GT(packed, 0u);
}

} // namespace
} // namespace vstream
