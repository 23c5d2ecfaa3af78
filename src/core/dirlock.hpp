/**
 * @file
 * DirLock — advisory single-owner lock on a directory, used to keep two
 * runners (or a runner and the mapsd daemon) from interleaving atomic
 * publishes into the same --resume checkpoint directory, and by mapsd to
 * claim its state directory.
 *
 * The lock is a file (".maps-lock" by default) holding
 * "maps-lock-v1 pid <pid>\n" that its owner keeps flock()ed. The kernel
 * lock gives mutual exclusion and is dropped when the owner dies, so a
 * file left by a dead owner is simply taken over. Acquisition fails fast
 * with a descriptive error when a *live* foreign process owns the lock
 * (holds the flock, or is named by an unlocked file). The
 * daemon's out-of-process cell children are let through on purpose: a
 * lock owned by the calling process or by its direct parent is adopted
 * (held but not released by the adopter), so fork/exec'ed driver
 * processes may publish checkpoints into a directory their parent owns.
 *
 * This is cooperation, not security: it guards against accidental
 * double-runs, not against adversaries with write access to the
 * directory.
 */
#ifndef MAPS_CORE_DIRLOCK_HPP
#define MAPS_CORE_DIRLOCK_HPP

#include <string>

namespace maps::runner {

class DirLock
{
  public:
    DirLock() = default;
    ~DirLock() { release(); }

    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;
    DirLock(DirLock &&other) noexcept { *this = std::move(other); }
    DirLock &operator=(DirLock &&other) noexcept;

    /**
     * Try to lock @p dir (created if missing). Returns "" on success or
     * an error message naming the live owner pid on contention. A stale
     * lock (dead owner) is silently taken over; a lock owned by this
     * process or its parent is adopted without taking ownership of the
     * file.
     */
    std::string acquire(const std::string &dir,
                        const std::string &name = ".maps-lock");

    /** Unlink the lock file and drop the lock if this instance owns
     *  it. Idempotent. */
    void release();

    bool held() const { return held_; }
    /** True when acquire() adopted a parent/self-owned lock. */
    bool adopted() const { return adopted_; }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1; ///< Holds the flock while owned (not when adopted).
    bool held_ = false;
    bool adopted_ = false;
};

} // namespace maps::runner

#endif // MAPS_CORE_DIRLOCK_HPP
