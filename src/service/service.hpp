/**
 * @file
 * maps::service — the mapsd experiment service.
 *
 * mapsd turns the batch drivers into a long-running, crash-tolerant
 * service: clients submit an experiment request (any fig/tab/abl
 * driver) over a UNIX socket, the daemon lists the driver's cell grid
 * (`--list-cells --out=FILE --resume=DIR`), executes pending cells out
 * of process on a shared worker pool (`--only-cells=ID --resume=DIR`),
 * and lists again until the grid is complete — that last listing runs
 * entirely from checkpoints and renders a FILE byte-identical to a
 * clean batch run's stdout, which is the result. Robustness features:
 *
 *  - deadlines: the request's per-cell budget is propagated as
 *    `--cell-timeout` (cooperative) plus a hard SIGKILL deadline in the
 *    monitor, so even a SIGSTOPped cell cannot hold a worker forever;
 *  - backpressure: admission is bounded per tenant (queued-job quota)
 *    and globally; beyond either, submits are shed with an honest
 *    `class:"shed"` response and a `retry_after_ms` hint derived from
 *    the shedding queue's actual depth instead of queueing unboundedly;
 *  - multi-tenant fairness: jobs and cells are queued per tenant and
 *    drained by a deficit-weighted round-robin scheduler with strict
 *    priority tiers (see tenants.hpp), so one flooding client cannot
 *    starve the rest; per-tenant accounting is exposed as the
 *    maps-tenants-v1 view;
 *  - graceful degradation: congestion is judged per tenant — when a
 *    tenant's own cell backlog crosses its priority-scaled threshold
 *    (or after a cell timeout), its full-metrics cells are downgraded
 *    to `--metrics=summary` — every downgrade is recorded in the job's
 *    event log and tenant counters, never silent;
 *  - crash safety: every job-state transition is journaled atomically;
 *    a SIGKILLed daemon restarts, re-queues unfinished jobs, and the
 *    per-cell checkpoints guarantee no completed work repeats and no
 *    cell is lost or duplicated;
 *  - drain: SIGTERM stops admission, lets running cells finish and
 *    checkpoints the rest for the next daemon.
 *
 * Failure classification (what mapsctl's retry loop keys on):
 * transient failures (timeouts, killed workers, shed admissions) are
 * safe to retry because checkpoints make re-execution idempotent;
 * deterministic failures (bad request, driver assertion, exec failure)
 * are never retried.
 */
#ifndef MAPS_SERVICE_SERVICE_HPP
#define MAPS_SERVICE_SERVICE_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dirlock.hpp"
#include "service/child.hpp"
#include "service/ckcache.hpp"
#include "service/coordinator.hpp"
#include "service/journal.hpp"
#include "service/json.hpp"
#include "service/tenants.hpp"

namespace maps::service {

/** How a failed step should be treated by retry logic. */
enum class FailureClass : std::uint8_t
{
    None,          ///< No failure.
    Transient,     ///< Safe to retry (timeout, killed worker, shed).
    Deterministic, ///< Retrying reproduces the failure; don't.
    Shed,          ///< Rejected at admission; retry after backoff.
};

const char *failureClassName(FailureClass c);

/**
 * Classify a finished child. @p errText is the child's captured stderr;
 * a cooperative `--cell-timeout` cancellation exits non-zero but names
 * the flag in its failure report, which marks it transient.
 */
FailureClass classifyOutcome(const ChildOutcome &outcome,
                             const std::string &errText);

/**
 * One deterministic chaos injection, mirroring the maps::fault
 * `kind:surface@trigger` spec grammar: `kill:worker@n=3` SIGKILLs the
 * 3rd spawned cell child, `hang:worker@n=5` SIGSTOPs the 5th (the hard
 * deadline later SIGKILLs it) — local and remote (run_cells) children
 * share the spawn ordinal — `drop:conn@n=2` partitions the 2nd
 * coordinator-to-worker dispatch connection after the request is sent,
 * and `kill:coordinator@n=1` SIGKILLs a coordinator daemon itself right
 * after it journals its 1st steal. Each event fires exactly once.
 */
struct ChaosEvent
{
    enum class Kind : std::uint8_t
    {
        KillWorker,
        HangWorker,
        DropConn,        ///< Coordinator-side TCP partition injection.
        KillCoordinator, ///< Coordinator self-SIGKILL, by steal ordinal.
    };
    Kind kind = Kind::KillWorker;
    std::uint64_t nth = 0; ///< 1-based ordinal to hit.
    bool fired = false;
};

/** Parse `ev[,ev...]`. Returns an error string ("" on success). */
std::string parseChaosSpec(const std::string &spec,
                           std::vector<ChaosEvent> &out);

/**
 * A canonicalized experiment request. The job id is a stable hash of
 * the canonical form, so resubmitting the same request attaches to the
 * same job, checkpoints and result — the idempotency that makes client
 * retries safe.
 */
struct RequestSpec
{
    std::string driver;            ///< Driver binary name (no path).
    std::vector<std::string> args; ///< Pass-through driver flags.
    std::string metrics = "off";   ///< off | summary | full.
    double cellTimeoutSec = 0.0;   ///< Per-cell budget; 0 = unlimited.
    /** Tenant label ([A-Za-z0-9_-]{0,64}); "" = the default tenant.
     *  Part of the canonical form, so tenants cannot attach to (or
     *  poach results from) each other's jobs. */
    std::string tenant;
    /** Requested priority: "" (= tenant class) | low | normal | high.
     *  The effective priority never exceeds the tenant class's. */
    std::string priority;

    /** Validate fields; "" on success. Daemon-owned flags (--resume,
     *  --only-cells, --list-cells, --jobs, --metrics, --cell-timeout)
     *  are rejected in @ref args. */
    std::string validate() const;

    std::string canonical() const;
    /** 16-hex FNV-1a of canonical(). */
    std::string jobId() const;

    Json toJson() const;
    static std::string fromJson(const Json &doc, RequestSpec &out);
};

enum class JobState : std::uint8_t
{
    Queued,
    Running,
    Done,
    Failed,
};

const char *jobStateName(JobState s);

/** Resilience counters reported with every job (and journaled). */
struct JobCounters
{
    std::uint64_t cellsRun = 0;        ///< Cells executed by workers.
    std::uint64_t cellsCached = 0;     ///< Cells found checkpointed.
    std::uint64_t workersKilled = 0;   ///< Cell children killed by signal.
    std::uint64_t hungCells = 0;       ///< Hard-deadline SIGKILLs.
    std::uint64_t timedOutCells = 0;   ///< Cooperative --cell-timeout.
    std::uint64_t requeuedCells = 0;   ///< In-daemon single retries.
    std::uint64_t downgradedCells = 0; ///< full -> summary degradations.
    std::uint64_t daemonRestarts = 0;  ///< Recoveries that re-queued us.
    std::uint64_t rounds = 0;          ///< list->run fixpoint iterations.
    // Multi-node accounting (all zero on a single-host daemon).
    std::uint64_t remoteCells = 0;     ///< Cells merged from workers.
    std::uint64_t steals = 0;          ///< Straggler re-dispatches.
    std::uint64_t remoteRetries = 0;   ///< Transient remote requeues.
    std::uint64_t duplicateCells = 0;  ///< Stolen/retried dups collapsed.
    std::uint64_t workersLost = 0;     ///< Workers marked dead (degraded).
    std::uint64_t localFallbackCells = 0; ///< Ran locally, pool down.
    /**
     * Wall-clock milliseconds summed over every cell child this job ran
     * (cached cells contribute nothing). With the per-cell refs from
     * the "maps::metrics runtime" rows this gives per-job simulated
     * throughput; also the denominator for daemon capacity planning.
     */
    std::uint64_t cellWallMs = 0;

    Json toJson() const;
    void fromJson(const Json &doc);
};

struct Job
{
    std::string id;
    RequestSpec spec;
    JobState state = JobState::Queued;
    FailureClass failClass = FailureClass::None;
    std::string error;
    std::vector<std::string> events;
    JobCounters counters;
    std::string resultPath; ///< Published assembly output (when Done).

    /**
     * Held by the daemon for the job's whole active span so parallel
     * cell children (which see the lock owned by their parent) adopt it
     * instead of fighting each other for the checkpoint directory.
     */
    runner::DirLock ckLock;

    // Coordinator-round bookkeeping (guarded by the service mutex).
    std::size_t outstanding = 0;
    std::vector<std::string> roundFailures;
    FailureClass roundWorstClass = FailureClass::None;

    Json toJson() const;
};

struct ServiceConfig
{
    std::string socketPath;
    std::string stateDir;
    std::string driversDir; ///< Directory holding the driver binaries.
    unsigned workers = 4;
    std::size_t queueMax = 16;      ///< Shed submits beyond this depth.
    std::size_t maxActiveJobs = 2;  ///< Concurrent coordinators.
    std::size_t degradeDepth = 32;  ///< Cell-queue depth forcing summary.
    double defaultCellTimeoutSec = 0.0;
    std::string chaosSpec;          ///< "" = no injected chaos.
    /**
     * Also serve maps-svc-v1 on this TCP "host:port" (port 0 = kernel
     * picks; the bound address is published to `<stateDir>/tcp.port`).
     * This is what turns a daemon into a remote worker.
     */
    std::string tcpListen;
    /**
     * Coordinator mode: shard every job's cells across these
     * "host:port" worker daemons instead of the local worker pool
     * (which remains the fallback when all workers are unreachable).
     */
    std::vector<std::string> workerAddrs;
    /** Lease age before an idle worker may steal a straggling cell. */
    double stealAfterMs = 5000.0;
    /** Tenant class config file (--tenants=); "" = defaults only.
     *  SIGHUP re-reads it without restarting the daemon. */
    std::string tenantsPath;
    /** Pre-shared token gating the TCP listener (--auth-token= /
     *  MAPSD_AUTH_TOKEN). "" = open. The unix socket is never gated. */
    std::string authToken;
};

/** Install a SIGHUP handler that latches a reload request (the accept
 *  loop polls takeSighup()). Safe to call more than once. */
void installSighupHandler();

/** True once per SIGHUP received since the last call. */
bool takeSighup();

class Service
{
  public:
    explicit Service(ServiceConfig cfg);

    /**
     * Serve until drained (SIGTERM/SIGINT or a shutdown request).
     * Returns a process exit code; @p err is set on startup failure.
     */
    int run(std::string &err);

    /** Idempotent; also triggered by SIGTERM. */
    void requestDrain();

  private:
    struct CellTask
    {
        std::shared_ptr<Job> job;
        std::string cellId;
        std::string metrics; ///< Effective level for this attempt.
        int attempt = 0;
        std::string tenant;  ///< Effective tenant (never "").
        TenantPriority prio = TenantPriority::Normal;
    };

    // Startup / recovery.
    std::string recoverJobs();
    /** SIGHUP: re-read cfg_.tenantsPath; a parse error keeps the old
     *  config and is logged, never fatal. */
    void reloadTenants();

    // Threads.
    /** Start a coordinator or connection thread (caller holds mu_). It
     *  records its exit so that reapThreads() (takes mu_) can join it:
     *  an exited, unjoined thread keeps its stack mapped, and every
     *  fork() of the daemon copies those mappings. */
    void spawnThread(std::function<void()> fn);
    void reapThreads();
    void acceptLoop(int unixFd, int tcpFd);
    void serveConnection(int fd, bool tcp);
    void schedulerLoop();
    void workerLoop();
    void coordinate(std::shared_ptr<Job> job);

    // Multi-node: one remote list->run round. Returns false with
    // @p err / @p cls when the round failed (transient failures leave
    // the job alive for a local-fallback or journaled retry).
    bool runRemoteRound(const std::shared_ptr<Job> &job,
                        const std::vector<std::string> &pending,
                        std::string &err, FailureClass &cls);
    std::vector<std::string>
    checkpointBasenames(const std::string &jobId) const;
    /** (basename, content-hash) pairs for the merged checkpoints — the
     *  coordinator's "have" advertisement (see ckcache.hpp). */
    std::vector<std::pair<std::string, std::string>>
    checkpointManifest(const std::string &jobId) const;

    // Request handlers (return the response document).
    Json handleRequest(const Json &req);
    Json handleSubmit(const Json &req);
    Json handleWait(const Json &req);
    Json handleStatus(const Json &req);
    Json handlePing() ;
    Json handleWorkers() const;
    Json handleTenants() const;
    Json handleRunCells(const Json &req);

    // Job plumbing. Callers hold mu_ unless noted.
    Json jobSnapshot(const Job &job, bool includeResult) const;
    void journalJob(const Job &job);
    void addEvent(Job &job, const std::string &what);
    void finishJob(Job &job, JobState state, FailureClass c,
                   const std::string &error);

    // Child invocations (no lock held).
    /** One `--list-cells --out=…` child: pending ids and cached count;
     *  when @p complete, its rendered result is published. */
    bool listOrAssemble(const std::shared_ptr<Job> &job,
                        std::vector<std::string> &pending,
                        std::uint64_t &cached, bool &complete,
                        std::string &err, FailureClass &cls);
    void runCell(const CellTask &task);

    std::string ckDir(const std::string &jobId) const;
    std::string logDir(const std::string &jobId) const;
    /** The request's per-cell budget, else the daemon default. */
    double cellTimeout(const RequestSpec &spec) const;
    /** The driver child every mapsd child starts from: `--resume`,
     *  `--metrics`, `--jobs=1`, `--cell-timeout` and the hard deadline
     *  it implies, with stdio in @p logBase `.out`/`.err`. */
    ChildSpec driverChild(const RequestSpec &spec, const std::string &jobId,
                          const std::string &metrics,
                          const std::string &logBase) const;

    ServiceConfig cfg_;
    Journal journal_;
    std::vector<ChaosEvent> chaos_;
    std::unique_ptr<WorkerPool> pool_; ///< Coordinator mode only.
    std::unique_ptr<CheckpointCache> ckCache_; ///< Checkpoint hashes.

    mutable std::mutex mu_;
    std::condition_variable cv_;        ///< Job-state changes.
    std::condition_variable workCv_;    ///< Cell-queue pushes.
    std::map<std::string, std::shared_ptr<Job>> jobs_;
    TenantConfig tenants_; ///< Reloaded in place on SIGHUP (under mu_).
    DrrScheduler<std::shared_ptr<Job>> jobSched_{&tenants_};
    DrrScheduler<CellTask> cellSched_{&tenants_};
    std::map<std::string, TenantStats> tenantStats_;
    std::map<std::string, std::size_t> cellsInflight_; ///< Local cells.
    std::map<std::string, std::size_t> activeJobsByTenant_;
    std::size_t activeJobs_ = 0;
    std::uint64_t cellSpawns_ = 0; ///< Chaos trigger ordinal.
    std::size_t remoteInflight_ = 0; ///< run_cells admissions in flight.
    std::mutex mergeMu_;  ///< Serializes checkpoint merges per daemon.
    bool draining_ = false;

    std::vector<std::thread> workers_;
    std::vector<std::thread> threads_; ///< Coordinators and connections.
    std::vector<std::thread::id> exitedThreads_;
};

} // namespace maps::service

#endif // MAPS_SERVICE_SERVICE_HPP
