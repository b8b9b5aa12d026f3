#include "mem/sparse_memory.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace pipellm {
namespace mem {

namespace {

/** Synthetic content of @p n bytes at @p addr inside @p region. */
void
fillSynthetic(const Region &region, Addr addr, std::uint8_t *out,
              std::uint64_t n)
{
    std::uint64_t offset = addr - region.base;
    for (std::uint64_t i = 0; i < n; ++i)
        out[i] = Rng::syntheticByte(region.id, offset + i);
}

} // namespace

const char *
toString(MemSpace space)
{
    switch (space) {
      case MemSpace::CvmPrivate:
        return "cvm-private";
      case MemSpace::CvmShared:
        return "cvm-shared";
      case MemSpace::Device:
        return "device";
    }
    return "?";
}

SparseMemory::SparseMemory(std::string name, std::uint64_t capacity)
    : name_(std::move(name)), capacity_(capacity)
{
    PIPELLM_ASSERT(capacity_ > 0, "arena needs capacity: ", name_);
}

Region
SparseMemory::alloc(std::uint64_t len, std::string name, MemSpace space)
{
    common::LockGuard lock(mu_);
    PIPELLM_ASSERT(len > 0, "allocating empty region: ", name);
    if (bytes_allocated_ + len > capacity_) {
        FATAL("arena ", name_, " out of memory: need ", len,
              " bytes for '", name, "', free ",
              capacity_ - bytes_allocated_);
    }

    Region region;
    region.base = next_base_;
    region.len = len;
    region.id = next_region_id_++;
    region.name = std::move(name);
    region.space = space;

    // Regions are page-aligned and padded so no two regions ever share
    // a protection page.
    std::uint64_t span = (len + pageBytes - 1) / pageBytes * pageBytes;
    next_base_ += span + pageBytes;

    bytes_allocated_ += len;
    allocated_by_space_[unsigned(space)] += len;
    regions_.emplace(region.base, region);
    return region;
}

void
SparseMemory::free(const Region &region)
{
    common::LockGuard lock(mu_);
    auto it = regions_.find(region.base);
    PIPELLM_ASSERT(it != regions_.end() && it->second.id == region.id,
                   "freeing unknown region '", region.name, "'");
    discardPagesLocked(region.base, region.len);
    protection_.unprotect(region.base, region.len);
    bytes_allocated_ -= it->second.len;
    allocated_by_space_[unsigned(it->second.space)] -= it->second.len;
    regions_.erase(it);
}

const Region &
SparseMemory::findRegionLocked(Addr addr, std::uint64_t len) const
{
    auto it = regions_.upper_bound(addr);
    if (it != regions_.begin()) {
        --it;
        if (it->second.contains(addr, len))
            return it->second;
    }
    PANIC("arena ", name_, ": access [", addr, ", +", len,
          ") hits no allocated region");
}

const Region &
SparseMemory::regionOf(Addr addr) const
{
    common::LockGuard lock(mu_);
    return findRegionLocked(addr, 1);
}

bool
SparseMemory::covered(Addr addr, std::uint64_t len) const
{
    common::LockGuard lock(mu_);
    auto it = regions_.upper_bound(addr);
    if (it == regions_.begin())
        return false;
    --it;
    return it->second.contains(addr, len == 0 ? 1 : len);
}

std::uint64_t
SparseMemory::bytesAllocated(MemSpace space) const
{
    common::LockGuard lock(mu_);
    return allocated_by_space_[unsigned(space)];
}

Tick
SparseMemory::read(Addr addr, std::uint8_t *out, std::uint64_t len)
{
    if (len == 0)
        return 0;
    // Resolve protection faults *before* taking the arena lock: the
    // handlers (synchronous decrypt, speculation invalidation) re-enter
    // the arena, which must be a fresh acquisition, not a recursive one.
    Tick ready = protection_.access(addr, len, /*is_write=*/false);

    common::LockGuard lock(mu_);
    const Region &region = findRegionLocked(addr, len);
    Addr cur = addr;
    std::uint64_t remaining = len;
    while (remaining > 0) {
        std::uint64_t page = pageIndex(cur);
        std::uint64_t off = cur - pageBase(page);
        std::uint64_t chunk = std::min(remaining, pageBytes - off);
        auto it = pages_.find(page);
        if (it != pages_.end()) {
            std::memcpy(out, it->second.data() + off, chunk);
        } else {
            fillSynthetic(region, cur, out, chunk);
        }
        out += chunk;
        cur += chunk;
        remaining -= chunk;
    }
    return ready;
}

std::vector<std::uint8_t>
SparseMemory::readSample(Addr addr, std::uint64_t len)
{
    // read() takes the lock itself.
    std::vector<std::uint8_t> out(len);
    read(addr, out.data(), len);
    return out;
}

Tick
SparseMemory::write(Addr addr, const std::uint8_t *data,
                    std::uint64_t len)
{
    if (len == 0)
        return 0;
    // See read(): fault handlers run before the arena lock is held.
    Tick ready = protection_.access(addr, len, /*is_write=*/true);

    common::LockGuard lock(mu_);
    const Region &region = findRegionLocked(addr, len);
    Addr cur = addr;
    std::uint64_t remaining = len;
    while (remaining > 0) {
        std::uint64_t page = pageIndex(cur);
        std::uint64_t off = cur - pageBase(page);
        std::uint64_t chunk = std::min(remaining, pageBytes - off);
        auto it = pages_.find(page);
        if (it == pages_.end()) {
            // Materialize with the page's synthetic content so bytes
            // outside the written span stay consistent.
            std::vector<std::uint8_t> backing(pageBytes);
            fillSynthetic(region, pageBase(page), backing.data(),
                          pageBytes);
            it = pages_.emplace(page, std::move(backing)).first;
        }
        std::memcpy(it->second.data() + off, data, chunk);
        data += chunk;
        cur += chunk;
        remaining -= chunk;
    }
    return ready;
}

void
SparseMemory::discardPages(Addr addr, std::uint64_t len)
{
    common::LockGuard lock(mu_);
    discardPagesLocked(addr, len);
}

void
SparseMemory::discardPagesLocked(Addr addr, std::uint64_t len)
{
    if (len == 0)
        return;
    std::uint64_t first = pageIndex(addr);
    std::uint64_t last = pageIndex(addr + len - 1);
    // Walk whichever set is smaller. A freed weight or KV-pool region
    // spans millions of page indices of which only a handful were
    // ever materialized, while a small discard inside a busy arena
    // touches a few indices of many pages.
    if (last - first < pages_.size()) {
        for (std::uint64_t p = first; p <= last; ++p)
            pages_.erase(p);
    } else {
        std::erase_if(pages_, [first, last](const auto &page) {
            return page.first >= first && page.first <= last;
        });
    }
}

} // namespace mem
} // namespace pipellm
