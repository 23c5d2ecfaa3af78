/**
 * @file
 * Coordinator-side scheduler for multi-node mapsd.
 *
 * A coordinator mapsd shards a job's pending cells across remote worker
 * daemons speaking maps-svc-v1 over TCP (`op:"run_cells"`). The value of
 * this layer is not the fan-out — it is staying correct and live while
 * the fleet misbehaves:
 *
 *  - health probing: every worker is pinged on a fixed cadence by a
 *    background prober; consecutive failures mark it Dead, a later pong
 *    brings it back. Rounds only dispatch to live workers.
 *  - leases: a dispatched cell holds a lease on its worker with the RPC
 *    read deadline as the hard expiry — a partitioned or SIGSTOPped
 *    worker surfaces as a lease timeout, never a wedged thread.
 *  - work stealing: an idle slot whose queue is empty re-dispatches the
 *    oldest straggling lease (age > stealAfterMs) to a different
 *    worker. First completion wins; the loser's result is a counted
 *    duplicate that merges to the identical bytes.
 *  - retry/backoff: transient failures (dial errors, timeouts, shed
 *    admissions, killed children) requeue the cell with capped
 *    exponential backoff + jitter and a bounded per-cell attempt
 *    budget; deterministic failures fail the round immediately.
 *  - degradation: dead workers shrink the pool and the loss is
 *    surfaced in counters/events — the job stays live as long as one
 *    worker (or the coordinator's local fallback) survives.
 *  - exactly-once merge: completions hand checkpoint files to a merge
 *    callback; the caller publishes them atomically and reports
 *    merged / duplicate-identical / divergent, so stolen and retried
 *    cells collapse deterministically and a divergent worker is a loud
 *    deterministic failure instead of silent corruption.
 *
 * The pool is transport-level only: it never parses checkpoints and
 * never touches the job state machine. Service::coordinate() owns both.
 */
#ifndef MAPS_SERVICE_COORDINATOR_HPP
#define MAPS_SERVICE_COORDINATOR_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/json.hpp"

namespace maps::service {

/** Capped exponential backoff with symmetric jitter: attempt 0 waits
 *  ~base, doubling up to cap, scaled by (1 - jitter/2 + jitter*u) with
 *  @p unitRandom in [0,1). Shared by the client retry loop and the
 *  coordinator dispatch loop so both schedules are testable from one
 *  table. */
double backoffDelayMs(double baseMs, double capMs, int attempt,
                      double jitterFrac, double unitRandom);

/** One remote cell completion, as handed to the merge callback. */
struct RemoteCellResult
{
    std::string cellId;
    std::string worker;       ///< "host:port" that ran it.
    bool stolen = false;      ///< This run was a steal re-dispatch.
    double wallMs = 0.0;
    /** Checkpoint files the coordinator lacked: basename -> raw bytes. */
    std::vector<std::pair<std::string, std::string>> files;
};

/** Merge callback verdicts (exactly-once accounting). */
enum class MergeVerdict : std::uint8_t
{
    Merged,    ///< New checkpoint bytes published.
    Duplicate, ///< Already merged; bytes were byte-identical.
    Divergent, ///< Bytes differ from the merged copy: fail loudly.
    Error,     ///< Local publish I/O failed: fail the round transiently.
};

struct PoolConfig
{
    /** Per-cell lease / RPC read deadline. */
    double leaseMs = 60000.0;
    /** Lease age that makes a cell stealable by an idle slot. */
    double stealAfterMs = 5000.0;
    /** Transient attempts per cell before the round fails. */
    int maxAttempts = 5;
    /** Backoff schedule for transient requeues. */
    double backoffBaseMs = 200.0;
    double backoffCapMs = 5000.0;
    double jitterFrac = 0.25;
    /** Consecutive RPC failures that mark a worker Dead. */
    int deadAfterFailures = 3;
    /** Background health-probe cadence. */
    double probeIntervalMs = 1000.0;
    /** Dial + ping deadline for probes. */
    int probeTimeoutMs = 2000;
    /** Cap on concurrent cells per worker (min'd with the worker's
     *  advertised pool size). */
    int maxSlotsPerWorker = 4;
    /** Pre-shared token sent as the auth preamble on every worker
     *  connection (probe and dispatch). "" = workers are open. */
    std::string authToken;
};

/** Why a round ended. */
struct RoundOutcome
{
    bool ok = false;
    bool transientFailure = false; ///< vs deterministic when !ok.
    std::string error;
    std::uint64_t dispatched = 0;  ///< RPCs attempted (incl. retries).
    std::uint64_t completed = 0;   ///< Cells merged this round.
    std::uint64_t steals = 0;      ///< Steal re-dispatches issued.
    std::uint64_t duplicates = 0;  ///< Duplicate completions collapsed.
    std::uint64_t retries = 0;     ///< Transient requeues.
    std::uint64_t workersLost = 0; ///< Workers marked Dead this round.
};

class WorkerPool
{
  public:
    WorkerPool(std::vector<std::string> addrs, PoolConfig cfg);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Start the background health prober (idempotent). */
    void start();
    /** Stop the prober and abort any in-flight round. */
    void stop();

    /** True when at least one worker is currently believed live. */
    bool anyAlive() const;

    /** The coordinator's checkpoint advertisement: (basename,
     *  content-hash) pairs; an empty hash matches any content. */
    using HaveList = std::vector<std::pair<std::string, std::string>>;

    /**
     * Dispatch @p cells for the request document @p specDoc (the
     * run_cells "spec" value; jobId only labels events) across the live
     * workers, retrying/stealing until every cell is merged or the
     * round fails. @p tenant labels every lease, steal note and
     * per-worker completion so multi-tenant accounting can attribute
     * remote work. @p merge runs on completion threads WITHOUT pool
     * locks held and must be idempotent; Divergent fails the round
     * deterministically. @p event receives human-readable notes for the
     * job log (may be null).
     */
    RoundOutcome runRound(
        const Json &specDoc, const std::string &jobId,
        const std::string &tenant,
        const std::vector<std::string> &cells, double cellTimeoutSec,
        const std::function<HaveList()> &haveFiles,
        const std::function<MergeVerdict(const RemoteCellResult &)>
            &merge,
        const std::function<void(const std::string &)> &event);

    /** Per-worker liveness/lease/steal/retry counters (maps-workers-v1
     *  rows) for the `workers` op and mapsctl status. */
    Json statusJson() const;

    /** Chaos: close the dispatch connection after the Nth run_cells
     *  send (1-based), simulating a partition mid-request. Fires once
     *  per registered ordinal. */
    void injectConnDrops(const std::vector<std::uint64_t> &ordinals);

    /** Chaos: SIGKILL this process right after the Nth steal (1-based,
     *  counted across rounds) has been reported through the round's
     *  event callback — a coordinator crash at a known point mid-job. */
    void injectKillAfterSteal(std::uint64_t nth);

  private:
    enum class WorkerState : std::uint8_t
    {
        Up,
        Suspect, ///< Failing but not yet written off.
        Dead,
    };
    static const char *stateName(WorkerState s);

    struct Worker
    {
        std::string addr;
        WorkerState state = WorkerState::Suspect; ///< Until first pong.
        int slots = 1;              ///< From the worker's ping.
        int consecFailures = 0;
        std::uint64_t inflight = 0;
        std::uint64_t dispatched = 0;
        std::uint64_t completed = 0;
        std::uint64_t transientFailures = 0;
        std::uint64_t stolenFrom = 0; ///< Leases stolen off this worker.
        std::uint64_t stolenRuns = 0; ///< Cells it ran as the thief.
        std::uint64_t probes = 0;
        std::uint64_t probeFailures = 0;
        /** Completed cells per tenant label — makes maps-workers-v1
         *  leases attributable in a multi-tenant deployment. */
        std::map<std::string, std::uint64_t> completedByTenant;
    };

    struct Lease
    {
        std::size_t workerIdx = 0;
        std::chrono::steady_clock::time_point since;
        int duplicates = 0; ///< Steal re-dispatches in flight.
    };

    struct Round; // Shared per-round scheduling state.

    void proberLoop();
    bool probeWorker(Worker &w); // mu_ NOT held.
    void slotLoop(std::shared_ptr<Round> round, std::size_t workerIdx);
    void noteRpcFailure(std::size_t workerIdx, Round &round,
                        const std::function<void(const std::string &)>
                            &event);

    const PoolConfig cfg_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Worker> workers_;
    std::vector<std::uint64_t> connDrops_; ///< Unfired chaos ordinals.
    std::uint64_t sends_ = 0;              ///< run_cells send ordinal.
    std::uint64_t killAfterSteal_ = 0;     ///< Chaos steal ordinal; 0 = off.
    std::uint64_t steals_ = 0;             ///< Steal ordinal.
    bool stopping_ = false;
    bool started_ = false;
    std::thread prober_;
};

} // namespace maps::service

#endif // MAPS_SERVICE_COORDINATOR_HPP
