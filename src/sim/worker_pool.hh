/**
 * @file
 * Fixed-size worker pool for the sharded scheduler.
 *
 * This is the only place in the tree allowed to touch std::thread
 * (enforced by tools/lint/pipellm_lint.py): every other component
 * stays single-threaded and deterministic, and parallelism exists only
 * as "run these disjoint shards somewhere" submitted through
 * parallelFor(). The pool is deliberately minimal — one job at a time,
 * the caller participates in the work, and a barrier at the end of
 * every parallelFor — because the sharded scheduler's determinism
 * argument leans on exactly that bulk-synchronous structure.
 */

#ifndef PIPELLM_SIM_WORKER_POOL_HH
#define PIPELLM_SIM_WORKER_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/mutex.hh"

namespace pipellm {
namespace sim {

/**
 * Persistent worker threads executing one indexed parallel loop at a
 * time. With `threads <= 1` no threads are spawned and parallelFor
 * degenerates to an inline loop, so a 1-worker configuration is
 * bit-for-bit the single-threaded simulator.
 */
class WorkerPool
{
  public:
    /** @p threads counts the caller too; 0 means hardwareConcurrency. */
    explicit WorkerPool(unsigned threads);

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    ~WorkerPool();

    /** Total execution streams, caller included (>= 1). */
    unsigned threads() const { return unsigned(workers_.size()) + 1; }

    /** Detected hardware concurrency, never less than 1. */
    static unsigned hardwareConcurrency();

    /**
     * Run body(i) for i in [0, n), work-stealing across the pool plus
     * the calling thread, and return only when every index finished
     * (full barrier). Indices are claimed dynamically, so @p body must
     * only touch state owned by index i.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

  private:
    void workerLoop();
    void runShare(const std::function<void(std::size_t)> &body,
                  std::size_t n);

    std::vector<std::thread> workers_;

    Mutex mu_;
    CondVar wake_;
    CondVar done_;
    std::uint64_t generation_ GUARDED_BY(mu_) = 0;
    bool stopping_ GUARDED_BY(mu_) = false;

    // Current job; published under mu_, cleared when the job retires.
    const std::function<void(std::size_t)> *job_body_ GUARDED_BY(mu_) =
        nullptr;
    std::size_t job_n_ GUARDED_BY(mu_) = 0;
    std::atomic<std::size_t> next_index_{0};
    unsigned active_runners_ GUARDED_BY(mu_) = 0;
};

} // namespace sim
} // namespace pipellm

#endif // PIPELLM_SIM_WORKER_POOL_HH
