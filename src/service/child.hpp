/**
 * @file
 * Out-of-process cell execution for mapsd.
 *
 * The daemon never runs simulation code in its own address space: each
 * cell (or assembly pass) is a fork/exec of the existing driver binary,
 * so a crashing, hanging or memory-hungry cell can at worst cost one
 * child process. The monitor blocks on a pidfd of the child (poll(2)),
 * so a child is reaped the moment it exits rather than on a polling
 * tick; where no pidfd can be opened it falls back to polling waitpid
 * every 20 ms. Either way it enforces a *hard* wall-clock deadline on
 * top of the driver's own cooperative `--cell-timeout`: a child that is
 * stopped (chaos SIGSTOP) or stuck in uninterruptible I/O never makes
 * its pidfd readable, so the poll times out at the deadline and the
 * child is SIGCONT+SIGKILLed, which is what makes per-request deadlines
 * trustworthy.
 */
#ifndef MAPS_SERVICE_CHILD_HPP
#define MAPS_SERVICE_CHILD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace maps::service {

struct ChildOutcome
{
    enum class Kind : std::uint8_t
    {
        Exited,      ///< Ran to completion; see exitCode.
        Signaled,    ///< Killed by a signal (crash or external kill).
        TimedOut,    ///< Hard deadline lapsed; we SIGKILLed it.
        SpawnFailed, ///< fork/exec never produced a running child.
    };

    Kind kind = Kind::SpawnFailed;
    int exitCode = -1;       ///< Valid when kind == Exited.
    int termSignal = 0;      ///< Valid when kind == Signaled.
    double elapsedMs = 0.0;
    std::string error;       ///< Human-readable detail for SpawnFailed.
};

struct ChildSpec
{
    std::string exe;               ///< Absolute path to the binary.
    std::vector<std::string> argv; ///< Arguments (argv[0] excluded).
    std::string stdoutPath;        ///< Redirect target ("" = /dev/null).
    std::string stderrPath;        ///< Redirect target ("" = /dev/null).
    /** Hard wall-clock budget; <= 0 means unbounded. */
    double deadlineMs = 0.0;
};

/**
 * Spawn @p spec and wait for it, enforcing the hard deadline. The hook,
 * if set, runs in the parent right after a successful fork with the
 * child's pid — the chaos harness uses it to SIGKILL/SIGSTOP real
 * workers at deterministic points.
 */
ChildOutcome runChild(const ChildSpec &spec,
                      void (*afterSpawn)(pid_t, void *) = nullptr,
                      void *hookArg = nullptr);

} // namespace maps::service

#endif // MAPS_SERVICE_CHILD_HPP
