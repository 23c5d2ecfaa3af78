#include "core/dirlock.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace maps::runner {

namespace {

constexpr const char *kMagic = "maps-lock-v1 pid ";

/**
 * How long acquire() keeps contending. A holder records its pid right
 * after winning flock(), so waiting for that only spans a descheduled
 * holder on a loaded host.
 */
constexpr auto kContendFor = std::chrono::seconds(10);

/** Parse the owner pid out of a lock file; 0 when unreadable. */
pid_t
lockOwner(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::string line;
    std::getline(in, line);
    if (line.rfind(kMagic, 0) != 0)
        return 0;
    const auto digits = line.substr(std::strlen(kMagic));
    if (digits.empty())
        return 0;
    char *end = nullptr;
    const long pid = std::strtol(digits.c_str(), &end, 10);
    if (end != digits.c_str() + digits.size() || pid <= 0)
        return 0;
    return static_cast<pid_t>(pid);
}

/**
 * Liveness probe. EPERM means the pid exists but belongs to another
 * user — still alive for our purposes.
 */
bool
pidAlive(pid_t pid)
{
    return ::kill(pid, 0) == 0 || errno == EPERM;
}

/** True when @p fd still names the file at @p path (not an unlinked or
 *  replaced inode). */
bool
samePath(int fd, const std::string &path)
{
    struct stat fst{}, pst{};
    return ::fstat(fd, &fst) == 0 && ::stat(path.c_str(), &pst) == 0 &&
           fst.st_dev == pst.st_dev && fst.st_ino == pst.st_ino;
}

} // namespace

DirLock &
DirLock::operator=(DirLock &&other) noexcept
{
    if (this != &other) {
        release();
        path_ = std::move(other.path_);
        fd_ = other.fd_;
        held_ = other.held_;
        adopted_ = other.adopted_;
        other.fd_ = -1;
        other.held_ = false;
        other.adopted_ = false;
        other.path_.clear();
    }
    return *this;
}

std::string
DirLock::acquire(const std::string &dir, const std::string &name)
{
    if (held_)
        return "";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return "cannot create lock directory '" + dir +
               "': " + ec.message();
    const auto path = (std::filesystem::path(dir) / name).string();
    const auto lockedBy = [&](pid_t owner) {
        return "directory '" + dir + "' is locked by running process " +
               std::to_string(owner) + " (" + path +
               "); refusing to interleave — stop the other run or "
               "remove the lock file if it is wrong";
    };

    // Mutual exclusion is the kernel's flock(), which dies with its
    // holder, so a crashed owner can never leave the directory locked
    // and no two contenders can both win. The pid written into the
    // file serves adoption and error messages.
    const auto deadline = std::chrono::steady_clock::now() +
                          kContendFor;
    for (;;) {
        if (std::chrono::steady_clock::now() > deadline)
            return "cannot acquire lock '" + path +
                   "': too much contention";
        const int fd =
            ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd < 0)
            return "cannot create lock file '" + path +
                   "': " + std::strerror(errno);
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            const int err = errno;
            ::close(fd);
            if (err != EWOULDBLOCK)
                return "cannot lock '" + path +
                       "': " + std::strerror(err);
            const pid_t owner = lockOwner(path);
            if (owner == ::getpid() ||
                (owner > 0 && owner == ::getppid())) {
                // Our own (or our parent's) lock: adopt it. The owner
                // keeps responsibility for unlinking it.
                path_ = path;
                held_ = true;
                adopted_ = true;
                return "";
            }
            if (owner > 0 && pidAlive(owner))
                return lockedBy(owner);
            // The holder has not recorded its pid yet (the file is
            // empty or still names the previous, dead owner).
            ::usleep(1000);
            continue;
        }
        // A releasing owner unlinks the file before dropping the lock,
        // so the inode we locked may be gone from the path: contend
        // again on whatever is there now.
        if (!samePath(fd, path)) {
            ::close(fd);
            continue;
        }
        // Nobody holds the kernel lock. A file naming some other live
        // process is still respected: that process may be using the
        // directory without holding the lock right now.
        const pid_t recorded = lockOwner(path);
        if (recorded > 0 && recorded != ::getpid() &&
            pidAlive(recorded)) {
            ::close(fd);
            return lockedBy(recorded);
        }
        char buf[64];
        const int n = std::snprintf(buf, sizeof(buf), "%s%ld\n", kMagic,
                                    static_cast<long>(::getpid()));
        const bool ok = n > 0 && ::ftruncate(fd, 0) == 0 &&
                        ::pwrite(fd, buf, static_cast<std::size_t>(n),
                                 0) == n;
        if (!ok) {
            ::unlink(path.c_str());
            ::close(fd);
            return "cannot write lock file '" + path + "'";
        }
        // Earlier versions serialized stale takeovers through this
        // guard file; one a dead contender left behind is just litter.
        ::unlink((path + ".takeover").c_str());
        path_ = path;
        fd_ = fd;
        held_ = true;
        adopted_ = false;
        return "";
    }
}

void
DirLock::release()
{
    if (held_ && !adopted_) {
        // Unlink while still holding the lock, then drop it: a
        // contender that already opened this inode sees it vanish.
        ::unlink(path_.c_str());
        ::close(fd_);
    }
    fd_ = -1;
    held_ = false;
    adopted_ = false;
    path_.clear();
}

} // namespace maps::runner
