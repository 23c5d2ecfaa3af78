#include "service/child.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

namespace maps::service {

namespace {

/** Open a redirect target (or /dev/null) for a child's stdio. */
int
openRedirect(const std::string &path)
{
    const char *target = path.empty() ? "/dev/null" : path.c_str();
    return ::open(target, O_CREAT | O_WRONLY | O_TRUNC, 0644);
}

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

ChildOutcome
runChild(const ChildSpec &spec, void (*afterSpawn)(pid_t, void *),
         void *hookArg)
{
    ChildOutcome out;
    const auto start = std::chrono::steady_clock::now();

    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(spec.exe.c_str()));
    for (const auto &a : spec.argv)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    // A pipe with CLOEXEC on the write end reports exec failures back
    // to the parent: a successful exec closes it silently, a failed one
    // writes errno. Without this, a missing binary would look like a
    // child that exited 127 — a deterministic failure we could not
    // distinguish from the driver's own exit codes.
    int execPipe[2];
    if (::pipe2(execPipe, O_CLOEXEC) != 0) {
        out.error = std::string("pipe2: ") + std::strerror(errno);
        return out;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        out.error = std::string("fork: ") + std::strerror(errno);
        ::close(execPipe[0]);
        ::close(execPipe[1]);
        return out;
    }
    if (pid == 0) {
        ::close(execPipe[0]);
        const int outFd = openRedirect(spec.stdoutPath);
        const int errFd = openRedirect(spec.stderrPath);
        if (outFd >= 0)
            ::dup2(outFd, STDOUT_FILENO);
        if (errFd >= 0)
            ::dup2(errFd, STDERR_FILENO);
        ::execv(spec.exe.c_str(), argv.data());
        const int e = errno;
        (void)!::write(execPipe[1], &e, sizeof(e));
        ::_exit(127);
    }

    ::close(execPipe[1]);
    // Open the pidfd before the hook can kill the child (a zombie's
    // pidfd is readable at once). Without one (ENOSYS, EMFILE) the loop
    // below sleeps 20 ms per poll. glibc 2.36 declares pidfd_open
    // without C linkage, hence the raw syscall.
    const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (afterSpawn != nullptr)
        afterSpawn(pid, hookArg);

    // Reap first, read the exec pipe second. The order matters: a child
    // stopped or killed before it reaches execv (the chaos hook fires
    // between fork and exec on purpose) never closes the pipe by
    // exec'ing, so a blocking read here would hang the worker and
    // disable the deadline. Once the child is reaped the write end is
    // closed either way and the read below cannot block.
    bool killedForDeadline = false;
    int status = 0;
    for (;;) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            break;
        if (r < 0 && errno != EINTR) {
            out.kind = ChildOutcome::Kind::SpawnFailed;
            out.error = std::string("waitpid: ") + std::strerror(errno);
            out.elapsedMs = msSince(start);
            if (pidfd >= 0)
                ::close(pidfd);
            ::close(execPipe[0]);
            return out;
        }
        if (!killedForDeadline && spec.deadlineMs > 0.0 &&
            msSince(start) >= spec.deadlineMs) {
            // SIGCONT first: SIGKILL works on a stopped process, but
            // any descendants it was meant to reap resume and exit
            // cleanly instead of lingering stopped forever.
            ::kill(pid, SIGCONT);
            ::kill(pid, SIGKILL);
            killedForDeadline = true;
        }
        // The pidfd turns readable when the child exits. A stopped
        // child never does, so the wait is bounded by what is left of
        // the deadline and the next iteration kills it.
        const bool bounded = !killedForDeadline && spec.deadlineMs > 0.0;
        pollfd pfd{pidfd, POLLIN, 0};
        if (pidfd < 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        else
            ::poll(&pfd, 1,
                   bounded ? static_cast<int>(std::clamp(
                                 spec.deadlineMs - msSince(start) + 1.0,
                                 0.0, 1e9))
                           : -1);
    }
    if (pidfd >= 0)
        ::close(pidfd);
    out.elapsedMs = msSince(start);

    int execErrno = 0;
    const ssize_t got =
        ::read(execPipe[0], &execErrno, sizeof(execErrno));
    ::close(execPipe[0]);
    if (got == sizeof(execErrno)) {
        out.kind = ChildOutcome::Kind::SpawnFailed;
        out.error = "exec '" + spec.exe +
                    "': " + std::strerror(execErrno);
        return out;
    }

    if (killedForDeadline) {
        out.kind = ChildOutcome::Kind::TimedOut;
    } else if (WIFEXITED(status)) {
        out.kind = ChildOutcome::Kind::Exited;
        out.exitCode = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        out.kind = ChildOutcome::Kind::Signaled;
        out.termSignal = WTERMSIG(status);
    } else {
        out.kind = ChildOutcome::Kind::Signaled;
    }
    return out;
}

} // namespace maps::service
