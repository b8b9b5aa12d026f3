/**
 * @file
 * Sparse, region-based memory arena used for both CVM host memory and
 * GPU device memory.
 *
 * Simulated LLM workloads declare regions of up to hundreds of GiB
 * (e.g. OPT-175B weights); actually backing them would be impossible,
 * so pages materialize only on first write. Reads of unmaterialized
 * pages return deterministic *synthetic content* — a pure function of
 * (region id, offset) — which lets the sampled AES-GCM path round-trip
 * real bytes end to end without real storage.
 *
 * CVM semantics: each region lives in a MemSpace. CvmPrivate regions
 * are inaccessible to the host/hypervisor (where plaintext and
 * PipeLLM's unvalidated ciphertext live); CvmShared regions are the
 * DMA-visible staging area; Device regions are GPU memory.
 */

#ifndef PIPELLM_MEM_SPARSE_MEMORY_HH
#define PIPELLM_MEM_SPARSE_MEMORY_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.hh"
#include "common/units.hh"
#include "mem/page_protection.hh"

namespace pipellm {
namespace mem {

/** Which protection domain a region belongs to. */
enum class MemSpace : std::uint8_t
{
    CvmPrivate, ///< CVM-encrypted memory, invisible to the host
    CvmShared,  ///< bounce-buffer memory the GPU can DMA
    Device,     ///< GPU HBM inside the GPU enclave
};

const char *toString(MemSpace space);

/** An allocated address range. */
struct Region
{
    Addr base = 0;
    std::uint64_t len = 0;
    /** Stable identity; seeds this region's synthetic content. */
    std::uint64_t id = 0;
    std::string name;
    MemSpace space = MemSpace::CvmPrivate;

    Addr end() const { return base + len; }
    bool
    contains(Addr addr, std::uint64_t n) const
    {
        return addr >= base && addr + n <= end();
    }
};

/** Sparse paged arena with region allocation and synthetic content. */
class SparseMemory
{
  public:
    /**
     * @param name arena name for diagnostics
     * @param capacity total allocatable bytes
     */
    SparseMemory(std::string name, std::uint64_t capacity);

    /** Allocate a region; fatal() when capacity is exhausted. */
    Region alloc(std::uint64_t len, std::string name,
                 MemSpace space = MemSpace::CvmPrivate);

    /** Release a region; accessing it afterwards panics. */
    void free(const Region &region);

    /** Region covering @p addr; panics if the address is wild. */
    const Region &regionOf(Addr addr) const;

    /** True if some allocated region covers [addr, addr+len). */
    bool covered(Addr addr, std::uint64_t len) const;

    /**
     * Read @p len bytes at @p addr into @p out.
     * @return earliest tick the data is usable (nonzero only when a
     *         fault handler had to resolve, e.g. pending decryption)
     */
    Tick read(Addr addr, std::uint8_t *out, std::uint64_t len);

    /** Read a sample as a vector (convenience for the crypto path). */
    std::vector<std::uint8_t> readSample(Addr addr, std::uint64_t len);

    /**
     * Write @p len bytes to @p addr.
     * @return earliest tick the write is considered done (fault
     *         resolution may defer it)
     */
    Tick write(Addr addr, const std::uint8_t *data, std::uint64_t len);

    /**
     * Drop materialized pages in the range, reverting them to
     * synthetic content. Used to model "the placeholder still holds
     * garbage/ciphertext" without storing it. Costs
     * O(min(pages in range, materialized pages)), so is free().
     */
    void discardPages(Addr addr, std::uint64_t len);

    /** Page protection layered over this arena. */
    PageProtection &protection() { return protection_; }
    const PageProtection &protection() const { return protection_; }

    std::uint64_t capacity() const { return capacity_; }

    std::uint64_t
    bytesAllocated() const
    {
        common::LockGuard lock(mu_);
        return bytes_allocated_;
    }

    std::uint64_t
    bytesFree() const
    {
        common::LockGuard lock(mu_);
        return capacity_ - bytes_allocated_;
    }

    /** Bytes allocated per space, for CVM shared-memory accounting. */
    std::uint64_t bytesAllocated(MemSpace space) const;

    /** Number of really-materialized (backed) pages. */
    std::size_t
    materializedPages() const
    {
        common::LockGuard lock(mu_);
        return pages_.size();
    }

    const std::string &name() const { return name_; }

  private:
    const Region &findRegionLocked(Addr addr, std::uint64_t len) const
        REQUIRES(mu_);
    void discardPagesLocked(Addr addr, std::uint64_t len)
        REQUIRES(mu_);

    /**
     * The host arena is shared by every replica shard, so its
     * bookkeeping (region map, bump pointer, page store) must be
     * consistent under concurrent engine stepping. A *plain*
     * capability-annotated mutex: read()/write() dispatch page-fault
     * handlers *before* taking it (via PageProtection::access, which
     * itself runs handlers unlocked), so a handler that re-enters the
     * arena — synchronous decrypt reading the placeholder it is
     * resolving — acquires it like any other caller instead of relying
     * on recursive locking the compile-time analysis cannot follow.
     * Note that parallel shards may interleave alloc() order
     * nondeterministically — region ids and base addresses are
     * simulation-internal identities that never influence timing, so
     * results stay deterministic regardless.
     */
    mutable common::Mutex mu_;
    std::string name_;
    std::uint64_t capacity_;
    std::uint64_t bytes_allocated_ GUARDED_BY(mu_) = 0;
    std::uint64_t allocated_by_space_[3] GUARDED_BY(mu_) = {0, 0, 0};
    Addr next_base_ GUARDED_BY(mu_) =
        pageBytes; // keep address 0 unmapped
    std::uint64_t next_region_id_ GUARDED_BY(mu_) = 1;

    std::map<Addr, Region> regions_ GUARDED_BY(mu_); // keyed by base
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> pages_
        GUARDED_BY(mu_);
    PageProtection protection_; ///< carries its own capability
};

} // namespace mem
} // namespace pipellm

#endif // PIPELLM_MEM_SPARSE_MEMORY_HH
