/**
 * @file
 * Tests for the recycled surface allocator (core/surface_pool.hh):
 * warmup-only construction, lowest-indexed-free acquisition order
 * (the slot-selection order simulation output depends on),
 * slot-stability of borrowed references across growth, stats
 * accounting, and the discipline panics (double release, foreign
 * release, exhaustion).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/surface_pool.hh"

namespace vstream
{
namespace
{

/** A surface heavy enough to make recycling observable. */
struct TestSurface
{
    std::vector<int> storage;
    int generation = 0;
};

TEST(SurfacePool, ConstructsOnGrowthOnlyThenRecycles)
{
    SurfacePool<TestSurface> pool("test");
    int made = 0;
    const auto make = [&] {
        ++made;
        TestSurface s;
        s.storage.assign(64, made);
        return s;
    };

    TestSurface &a = pool.acquire(make);
    EXPECT_EQ(made, 1);
    a.generation = 1;
    pool.release(a);

    // The free surface is recycled as-is: same slot, same storage,
    // logical state untouched by the pool.
    TestSurface &b = pool.acquire(make);
    EXPECT_EQ(made, 1);
    EXPECT_EQ(&b, &a);
    EXPECT_EQ(b.generation, 1);
    EXPECT_EQ(b.storage.size(), 64u);

    const SurfacePoolStats &st = pool.stats();
    EXPECT_EQ(st.acquires, 2u);
    EXPECT_EQ(st.recycles, 1u);
    EXPECT_EQ(st.constructed, 1u);
    EXPECT_EQ(st.releases, 1u);
    EXPECT_EQ(st.live, 1u);
    EXPECT_EQ(st.peak_live, 1u);
}

TEST(SurfacePool, AcquireReturnsLowestIndexedFreeSurface)
{
    SurfacePool<TestSurface> pool("order");
    TestSurface &s0 = pool.acquire();
    TestSurface &s1 = pool.acquire();
    TestSurface &s2 = pool.acquire();
    ASSERT_EQ(pool.allocated(), 3u);

    // Free slots 0 and 2: the next acquires must hand them back in
    // index order (0 first), not release order or LIFO.
    pool.release(s2);
    pool.release(s0);
    EXPECT_EQ(&pool.acquire(), &s0);
    EXPECT_EQ(&pool.acquire(), &s2);

    // All slots live again: the next acquire grows a fresh slot.
    // Acquire first: at(3) only exists once the pool has grown.
    TestSurface &s3 = pool.acquire();
    EXPECT_EQ(&s3, &pool.at(3));
    EXPECT_EQ(pool.allocated(), 4u);
    (void)s1;
}

TEST(SurfacePool, BorrowedReferencesSurviveGrowth)
{
    SurfacePool<TestSurface> pool("stable");
    std::vector<TestSurface *> borrowed;
    for (int i = 0; i < 100; ++i) {
        TestSurface &s = pool.acquire();
        s.generation = i;
        borrowed.push_back(&s);
    }
    // Growth to 100 slots must not have moved any earlier surface.
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(borrowed[static_cast<std::size_t>(i)],
                  &pool.at(static_cast<std::size_t>(i)));
        EXPECT_EQ(pool.at(static_cast<std::size_t>(i)).generation, i);
        EXPECT_TRUE(pool.liveAt(static_cast<std::size_t>(i)));
    }
    EXPECT_EQ(pool.stats().peak_live, 100u);
}

TEST(SurfacePool, SteadyStateChurnConstructsNothingNew)
{
    SurfacePool<TestSurface> pool("churn");
    // Warmup: high-water mark of 8 simultaneous borrows.
    std::vector<TestSurface *> live;
    for (int i = 0; i < 8; ++i) {
        live.push_back(&pool.acquire());
    }
    for (TestSurface *s : live) {
        pool.release(*s);
    }
    ASSERT_EQ(pool.stats().constructed, 8u);

    // Steady state: any churn pattern at or below the high-water
    // mark recycles; constructed stays flat.
    for (int round = 0; round < 50; ++round) {
        live.clear();
        for (int i = 0; i < 1 + round % 8; ++i) {
            live.push_back(&pool.acquire());
        }
        for (TestSurface *s : live) {
            pool.release(*s);
        }
    }
    EXPECT_EQ(pool.stats().constructed, 8u);
    EXPECT_EQ(pool.allocated(), 8u);
    EXPECT_EQ(pool.stats().live, 0u);
}

using SurfacePoolDeath = ::testing::Test;

TEST(SurfacePoolDeath, DoubleReleasePanics)
{
    SurfacePool<TestSurface> pool("dbl");
    TestSurface &s = pool.acquire();
    pool.release(s);
    EXPECT_DEATH(pool.release(s), "double release");
}

TEST(SurfacePoolDeath, ForeignSurfacePanics)
{
    SurfacePool<TestSurface> pool("foreign");
    (void)pool.acquire();
    TestSurface outsider;
    EXPECT_DEATH(pool.release(outsider), "does not own");
}

TEST(SurfacePoolDeath, ExceedingMaxLivePanics)
{
    SurfacePool<TestSurface> pool("bounded", 2);
    (void)pool.acquire();
    (void)pool.acquire();
    EXPECT_DEATH((void)pool.acquire(), "exhausted");
}

} // namespace
} // namespace vstream
