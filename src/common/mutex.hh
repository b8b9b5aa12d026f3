/**
 * @file
 * Capability-annotated mutex primitives.
 *
 * Thin wrappers over std::mutex that carry the Clang Thread Safety
 * Analysis attributes from common/thread_annotations.hh. The std
 * types themselves carry no capability, so a bare std::mutex member
 * makes every GUARDED_BY uncheckable; all lock discipline in the tree
 * goes through these.
 *
 * They live in common/ (not sim/) because the auditor — which sits
 * *below* sim/ in the layering diagram enforced by
 * tools/lint/pipellm_lint.py — also guards its registries with one.
 * sim/mutex.hh re-exports them under the sim:: namespace for the
 * simulator core.
 */

#ifndef PIPELLM_COMMON_MUTEX_HH
#define PIPELLM_COMMON_MUTEX_HH

#include <mutex>

#include "common/thread_annotations.hh"

namespace pipellm {
namespace common {

/**
 * Exclusive capability wrapping std::mutex. Prefer LockGuard over
 * manual lock()/unlock() pairs; the manual interface exists for the
 * analysis-visible LockGuard to build on.
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    std::mutex mu_;
};

/**
 * RAII guard acquiring a Mutex for the enclosing scope. The
 * SCOPED_CAPABILITY attribute teaches the analysis that the capability
 * is held from construction to destruction (early returns included).
 */
class SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~LockGuard() RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

} // namespace common
} // namespace pipellm

#endif // PIPELLM_COMMON_MUTEX_HH
