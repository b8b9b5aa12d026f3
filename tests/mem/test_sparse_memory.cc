#include <gtest/gtest.h>

#include <vector>

#include "mem/sparse_memory.hh"

using namespace pipellm;
using namespace pipellm::mem;

TEST(SparseMemory, AllocTracksCapacity)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(100 * MiB, "weights");
    EXPECT_EQ(arena.bytesAllocated(), 100 * MiB);
    EXPECT_EQ(arena.bytesFree(), 1 * GiB - 100 * MiB);
    arena.free(r);
    EXPECT_EQ(arena.bytesAllocated(), 0u);
}

TEST(SparseMemory, HugeRegionsCostNoBacking)
{
    // A 300 GiB arena with a 150 GiB region: no real pages used.
    SparseMemory arena("host", 300 * GiB);
    auto r = arena.alloc(150 * GiB, "opt175b");
    EXPECT_EQ(arena.materializedPages(), 0u);
    // Reading anywhere inside works and is deterministic.
    auto a = arena.readSample(r.base + 100 * GiB, 64);
    auto b = arena.readSample(r.base + 100 * GiB, 64);
    EXPECT_EQ(a, b);
    EXPECT_EQ(arena.materializedPages(), 0u);
}

TEST(SparseMemory, OutOfMemoryIsFatal)
{
    SparseMemory arena("host", 1 * MiB);
    EXPECT_EXIT(arena.alloc(2 * MiB, "too-big"),
                ::testing::ExitedWithCode(1), "out of memory");
}

TEST(SparseMemory, WriteReadRoundTrip)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(1 * MiB, "buf");
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    arena.write(r.base + 10, data.data(), data.size());
    auto out = arena.readSample(r.base + 10, 5);
    EXPECT_EQ(out, data);
    EXPECT_EQ(arena.materializedPages(), 1u);
}

TEST(SparseMemory, WritePreservesSurroundingSyntheticBytes)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(1 * MiB, "buf");
    auto before = arena.readSample(r.base, 64);
    std::uint8_t v = 0xff;
    arena.write(r.base + 32, &v, 1);
    auto after = arena.readSample(r.base, 64);
    for (int i = 0; i < 64; ++i) {
        if (i == 32)
            EXPECT_EQ(after[i], 0xff);
        else
            EXPECT_EQ(after[i], before[i]) << "byte " << i;
    }
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(1 * MiB, "buf");
    std::vector<std::uint8_t> data(3 * pageBytes, 0xab);
    arena.write(r.base + 100, data.data(), data.size());
    auto out = arena.readSample(r.base + 100, data.size());
    EXPECT_EQ(out, data);
    EXPECT_EQ(arena.materializedPages(), 4u);
}

TEST(SparseMemory, DistinctRegionsHaveDistinctContent)
{
    SparseMemory arena("host", 1 * GiB);
    auto a = arena.alloc(64 * KiB, "a");
    auto b = arena.alloc(64 * KiB, "b");
    auto sa = arena.readSample(a.base, 256);
    auto sb = arena.readSample(b.base, 256);
    EXPECT_NE(sa, sb);
}

TEST(SparseMemory, DiscardPagesRestoresSyntheticContent)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(64 * KiB, "buf");
    auto synthetic = arena.readSample(r.base, 32);
    std::vector<std::uint8_t> junk(32, 0xee);
    arena.write(r.base, junk.data(), junk.size());
    EXPECT_EQ(arena.readSample(r.base, 32), junk);
    arena.discardPages(r.base, pageBytes);
    EXPECT_EQ(arena.readSample(r.base, 32), synthetic);
}

namespace {

/** Overwrite one byte in page @p page of @p r with 0xee. */
void
dirtyPage(SparseMemory &arena, const Region &r, std::uint64_t page)
{
    std::uint8_t v = 0xee;
    arena.write(r.base + page * pageBytes + 7, &v, 1);
}

bool
pageDirty(SparseMemory &arena, const Region &r, std::uint64_t page)
{
    return arena.readSample(r.base + page * pageBytes + 7, 1)[0] == 0xee;
}

} // namespace

TEST(SparseMemory, DiscardRangeSmallerThanMaterializedSet)
{
    // 64 + 4 materialized pages; the discard spans 3 page indices,
    // starting and ending mid-page, so the range itself is walked.
    SparseMemory arena("host", 1 * GiB);
    auto a = arena.alloc(64 * pageBytes, "a");
    auto b = arena.alloc(4 * pageBytes, "b");
    for (std::uint64_t p = 0; p < 64; ++p)
        dirtyPage(arena, a, p);
    for (std::uint64_t p = 0; p < 4; ++p)
        dirtyPage(arena, b, p);
    ASSERT_EQ(arena.materializedPages(), 68u);

    arena.discardPages(a.base + 10 * pageBytes + 100,
                       2 * pageBytes + 10);
    EXPECT_EQ(arena.materializedPages(), 65u);
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_EQ(pageDirty(arena, a, p), p < 10 || p > 12) << p;
    for (std::uint64_t p = 0; p < 4; ++p)
        EXPECT_TRUE(pageDirty(arena, b, p)) << p;
}

TEST(SparseMemory, DiscardRangeLargerThanMaterializedSet)
{
    // 5 materialized pages; the discard spans 63 page indices,
    // starting and ending mid-page, so the materialized set is walked.
    SparseMemory arena("host", 1 * GiB);
    auto a = arena.alloc(64 * pageBytes, "a");
    auto b = arena.alloc(4 * pageBytes, "b");
    for (std::uint64_t p : {0, 5, 63})
        dirtyPage(arena, a, p);
    dirtyPage(arena, b, 0);
    dirtyPage(arena, b, 1);
    ASSERT_EQ(arena.materializedPages(), 5u);

    arena.discardPages(a.base + 100, 62 * pageBytes + 7);
    EXPECT_EQ(arena.materializedPages(), 3u);
    EXPECT_FALSE(pageDirty(arena, a, 0));
    EXPECT_FALSE(pageDirty(arena, a, 5));
    EXPECT_TRUE(pageDirty(arena, a, 63));
    EXPECT_TRUE(pageDirty(arena, b, 0));
    EXPECT_TRUE(pageDirty(arena, b, 1));
}

TEST(SparseMemory, FreeDropsOnlyItsOwnPages)
{
    SparseMemory arena("host", 4 * GiB);
    // Freed region smaller than the materialized set.
    auto small = arena.alloc(2 * pageBytes - 100, "small");
    auto busy = arena.alloc(16 * pageBytes, "busy");
    dirtyPage(arena, small, 0);
    dirtyPage(arena, small, 1);
    for (std::uint64_t p = 0; p < 16; ++p)
        dirtyPage(arena, busy, p);
    arena.free(small);
    EXPECT_EQ(arena.materializedPages(), 16u);

    // Freed region larger than the materialized set; its neighbour
    // on the other side keeps its pages too.
    auto big = arena.alloc(1 * GiB, "big");
    auto after = arena.alloc(pageBytes, "after");
    dirtyPage(arena, big, 0);
    dirtyPage(arena, big, 1000);
    dirtyPage(arena, after, 0);
    arena.free(big);
    EXPECT_EQ(arena.materializedPages(), 17u);
    for (std::uint64_t p = 0; p < 16; ++p)
        EXPECT_TRUE(pageDirty(arena, busy, p)) << p;
    EXPECT_TRUE(pageDirty(arena, after, 0));
}

TEST(SparseMemory, FreeOfTebibyteRegionDropsItsFewPages)
{
    // 2^28 page indices, 3 of them materialized (the last one a
    // partial page): free() must drop exactly those 3.
    SparseMemory arena("host", 2 * 1024 * GiB);
    auto huge = arena.alloc(1024 * GiB - 100, "huge");
    auto other = arena.alloc(pageBytes, "other");
    std::uint64_t pages = (huge.len + pageBytes - 1) / pageBytes;
    dirtyPage(arena, huge, 0);
    dirtyPage(arena, huge, pages / 2);
    dirtyPage(arena, huge, pages - 1);
    dirtyPage(arena, other, 0);
    ASSERT_EQ(arena.materializedPages(), 4u);
    arena.free(huge);
    EXPECT_EQ(arena.materializedPages(), 1u);
    EXPECT_TRUE(pageDirty(arena, other, 0));
    EXPECT_EQ(arena.bytesAllocated(), pageBytes);
}

TEST(SparseMemory, RegionOfFindsOwner)
{
    SparseMemory arena("host", 1 * GiB);
    auto a = arena.alloc(64 * KiB, "a");
    auto b = arena.alloc(64 * KiB, "b");
    EXPECT_EQ(arena.regionOf(a.base + 100).id, a.id);
    EXPECT_EQ(arena.regionOf(b.base).id, b.id);
    EXPECT_TRUE(arena.covered(a.base, 64 * KiB));
    EXPECT_FALSE(arena.covered(a.base, 65 * KiB));
}

TEST(SparseMemory, SpaceAccounting)
{
    SparseMemory arena("host", 1 * GiB);
    arena.alloc(10 * MiB, "p", MemSpace::CvmPrivate);
    auto s = arena.alloc(2 * MiB, "s", MemSpace::CvmShared);
    EXPECT_EQ(arena.bytesAllocated(MemSpace::CvmPrivate), 10 * MiB);
    EXPECT_EQ(arena.bytesAllocated(MemSpace::CvmShared), 2 * MiB);
    arena.free(s);
    EXPECT_EQ(arena.bytesAllocated(MemSpace::CvmShared), 0u);
}

TEST(SparseMemory, ProtectionIntegratesWithWrite)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(64 * KiB, "buf");
    int faults = 0;
    arena.protection().protect(
        r.base, r.len, Protection::NoWrite,
        [&](Addr, bool) -> Tick {
            ++faults;
            arena.protection().unprotect(r.base, r.len);
            return 42;
        });
    std::uint8_t v = 1;
    // Reads don't fault.
    arena.readSample(r.base, 16);
    EXPECT_EQ(faults, 0);
    // First write faults and is ready at the handler's tick.
    EXPECT_EQ(arena.write(r.base, &v, 1), 42u);
    EXPECT_EQ(faults, 1);
    // Second write is free.
    EXPECT_EQ(arena.write(r.base, &v, 1), 0u);
}

TEST(SparseMemoryDeath, WildAccessPanics)
{
    SparseMemory arena("host", 1 * GiB);
    std::uint8_t buf[4];
    EXPECT_DEATH(arena.read(0xdead0000, buf, 4), "no allocated region");
}

TEST(SparseMemoryDeath, OverrunningRegionPanics)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(100, "tiny");
    std::uint8_t buf[32];
    EXPECT_DEATH(arena.read(r.base + 90, buf, 32), "no allocated region");
}

TEST(SparseMemoryDeath, UseAfterFreePanics)
{
    SparseMemory arena("host", 1 * GiB);
    auto r = arena.alloc(100, "gone");
    arena.free(r);
    std::uint8_t buf[4];
    EXPECT_DEATH(arena.read(r.base, buf, 4), "no allocated region");
}
