/**
 * @file
 * Coordinator-side worker pool for multi-node mapsd.
 *
 * A coordinator mapsd runs its jobs' cells on remote worker daemons
 * speaking maps-svc-v1 over TCP (`op:"run_cells"`). Each remote worker
 * slot is one more slot the service's tenant scheduler dispatches to
 * (Service::popCell), beside the local slots; this pool keeps what is
 * particular to remote execution and stays correct and live while the
 * fleet misbehaves:
 *
 *  - health probing: every worker is pinged on a fixed cadence by a
 *    background prober; consecutive failures mark it Dead, a later pong
 *    brings it back. The pong also advertises the worker's pool size.
 *  - slots: slot s of a worker is open while the worker is not Dead and
 *    s is below its advertised pool size (capped at maxSlotsPerWorker).
 *    A slot is its capacity, so a worker never gets more cells than it
 *    advertised.
 *  - leases: a dispatched cell holds a lease on its worker, with the RPC
 *    read deadline as the hard expiry — a partitioned or SIGSTOPped
 *    worker surfaces as a lease timeout, never a wedged thread.
 *  - work stealing: an idle slot with nothing eligible takes a second
 *    copy of the oldest single-copy lease another worker has held for
 *    longer than stealAfterMs. The first completion settles the cell;
 *    the other copy's result is a counted duplicate that merges to the
 *    identical bytes.
 *  - transport classification: only transport failures (dial, auth,
 *    read deadline, a closed connection) count toward marking a worker
 *    Dead. A shed or a refusal is an answer from a live worker.
 *  - exactly-once merge: shipped checkpoint files are hex-decoded and
 *    hash-verified here; Service::mergeRemote publishes them atomically
 *    and byte-compares anything that already landed.
 *
 * The pool never parses checkpoints and never touches the job state
 * machine; the service owns both.
 */
#ifndef MAPS_SERVICE_COORDINATOR_HPP
#define MAPS_SERVICE_COORDINATOR_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/json.hpp"
#include "service/tenants.hpp"

namespace maps::service {

/** Capped exponential backoff with symmetric jitter: attempt 0 waits
 *  ~base, doubling up to cap, scaled by (1 - jitter/2 + jitter*u) with
 *  @p unitRandom in [0,1). Shared by the client retry loop and the
 *  service's cell requeues so both schedules are testable from one
 *  table. */
double backoffDelayMs(double baseMs, double capMs, int attempt,
                      double jitterFrac, double unitRandom);

/** Merge verdicts (exactly-once accounting). */
enum class MergeVerdict : std::uint8_t
{
    Merged,    ///< New checkpoint bytes published.
    Duplicate, ///< Already merged; bytes were byte-identical.
    Divergent, ///< Bytes differ from the merged copy: fail loudly.
    Error,     ///< Local publish I/O failed: retry the cell.
};

struct PoolConfig
{
    /** Per-cell lease / RPC read deadline. */
    double leaseMs = 60000.0;
    /** Lease age that makes a cell stealable by an idle slot. */
    double stealAfterMs = 5000.0;
    /** Consecutive transport failures that mark a worker Dead. */
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

struct Job; // service.hpp

/** One cell of one job, as a local or remote slot runs it. */
struct CellTask
{
    std::shared_ptr<Job> job;
    std::string cellId;
    std::string metrics;    ///< Effective level for this attempt.
    int attempt = 0;        ///< Transient failures so far, either kind.
    int remoteFailures = 0; ///< The remote ones among them.
    std::string tenant;     ///< Effective tenant (never "").
    TenantPriority prio = TenantPriority::Normal;
    /** Backoff gate: a requeued cell waits out of its lane until then. */
    std::chrono::steady_clock::time_point notBefore;
};

/** How one run_cells exchange ended. */
struct DispatchResult
{
    bool ok = false;
    bool deterministic = false; ///< The worker refused for good.
    bool shed = false;          ///< The worker was full: retry later.
    double retryAfterMs = 0.0;  ///< The shed's retry hint.
    bool workerLost = false;    ///< This failure marked the worker Dead.
    std::string error;
    /** Checkpoint files the coordinator lacked: basename -> raw bytes. */
    std::vector<std::pair<std::string, std::string>> files;
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
    /** Stop the prober. */
    void stop();

    const PoolConfig &config() const { return cfg_; }
    std::size_t size() const { return workers_.size(); }
    std::string addr(std::size_t w) const { return workers_[w].addr; }

    /** True when at least one worker is currently believed live. */
    bool anyAlive() const;

    /** True while worker @p w is not Dead and @p slot is below its
     *  advertised pool size. */
    bool slotOpen(std::size_t w, int slot) const;

    /** Record that worker @p w runs @p task; returns the lease id. */
    std::uint64_t lease(std::size_t w, const CellTask &task);

    /** An idle slot on worker @p w takes a second copy of the oldest
     *  single-copy lease another worker has held for longer than
     *  stealAfterMs. Returns its lease id (0 = nothing to steal) and
     *  sets @p task and the @p victim worker's address. */
    std::uint64_t steal(std::size_t w, CellTask &task, std::string &victim);

    /** Worker @p w's copy of lease @p id ended (@p ok = it completed).
     *  True when this copy decides the cell: the first completion, or
     *  the failure of the last copy still running. */
    bool release(std::uint64_t id, std::size_t w, bool ok);

    /** One run_cells exchange with worker @p w. The read deadline
     *  outlives the worker's hard deadline for @p cellTimeoutSec. */
    DispatchResult dispatch(std::size_t w, const Json &request,
                            double cellTimeoutSec);

    /** Per-worker liveness/lease/steal/retry counters (maps-workers-v1
     *  rows) for the `workers` op and mapsctl status. */
    Json statusJson() const;

    /** Chaos: close the dispatch connection after the Nth run_cells
     *  send (1-based), simulating a partition mid-request. Fires once
     *  per registered ordinal. */
    void injectConnDrops(const std::vector<std::uint64_t> &ordinals);

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

    /** A leased cell: in flight on one worker, or on two while
     *  stolen. */
    struct InFlight
    {
        CellTask task;
        std::size_t holder = 0; ///< Worker of the copy a steal may copy.
        std::size_t thief = 0;  ///< Worker of the stolen copy.
        std::chrono::steady_clock::time_point since;
        int copies = 1;
        bool settled = false; ///< A copy completed; the rest are dups.
    };

    void proberLoop();
    bool probeWorker(Worker &w); // mu_ NOT held.

    const PoolConfig cfg_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Worker> workers_;
    std::map<std::uint64_t, InFlight> leases_;
    std::uint64_t nextLease_ = 1;
    std::vector<std::uint64_t> connDrops_; ///< Unfired chaos ordinals.
    std::uint64_t sends_ = 0;              ///< run_cells send ordinal.
    bool stopping_ = false;
    bool started_ = false;
    std::thread prober_;
};

} // namespace maps::service

#endif // MAPS_SERVICE_COORDINATOR_HPP
