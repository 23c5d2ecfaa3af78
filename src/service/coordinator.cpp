#include "service/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <set>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/ckcache.hpp"
#include "service/tcp.hpp"
#include "service/wire.hpp"

namespace maps::service {

double
backoffDelayMs(double baseMs, double capMs, int attempt,
               double jitterFrac, double unitRandom)
{
    if (attempt < 0)
        attempt = 0;
    // Exponentiate by doubling with an early cap so a large attempt
    // count cannot overflow the double before min() applies.
    double nominal = baseMs;
    for (int i = 0; i < attempt && nominal < capMs; ++i)
        nominal *= 2.0;
    nominal = std::min(nominal, capMs);
    const double j = std::clamp(jitterFrac, 0.0, 1.0);
    const double u = std::clamp(unitRandom, 0.0, 1.0);
    return nominal * (1.0 - j / 2.0 + j * u);
}

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

/** One run_cells RPC exchange, fully classified. */
struct RpcResult
{
    bool ok = false;
    bool deterministic = false; ///< Valid only when !ok.
    std::string error;
    Json resp;
};

} // namespace

/**
 * Shared state for one runRound() call. Slot threads coordinate through
 * mu/cv; completion callbacks run with no locks held.
 */
struct WorkerPool::Round
{
    struct Cell
    {
        std::string id;
        int attempts = 0;
        Clock::time_point readyAt; ///< Backoff gate for redispatch.
    };

    /** An in-flight cell: who runs it and since when. */
    struct Flight
    {
        std::size_t workerIdx = 0; ///< Primary (first) dispatcher.
        Clock::time_point since;
        int inflight = 0; ///< Copies running (2 while stolen).
    };

    std::mutex mu;
    std::condition_variable cv;
    std::vector<Cell> cells;
    std::deque<std::size_t> pending;      ///< Indices awaiting dispatch.
    std::map<std::size_t, Flight> flights; ///< Index -> lease.
    std::set<std::size_t> done;
    std::set<int> fds; ///< Sockets to shut down on abort.
    std::size_t remaining = 0;
    bool failed = false;
    bool transientFail = false;
    std::string error;
    RoundOutcome out;
    double leaseMs = 0.0;
    std::mt19937 rng;

    std::string jobId;
    std::string tenant; ///< Accounting label for leases and steals.
    const Json *spec = nullptr;
    double cellTimeoutSec = 0.0;
    const std::function<WorkerPool::HaveList()> *haveFiles = nullptr;
    const std::function<MergeVerdict(const RemoteCellResult &)> *merge =
        nullptr;
    const std::function<void(const std::string &)> *event = nullptr;

    /** mu held. Abort the round and wake every blocked participant. */
    void fail(bool transient, const std::string &why)
    {
        if (failed)
            return;
        failed = true;
        transientFail = transient;
        error = why;
        for (const int fd : fds)
            ::shutdown(fd, SHUT_RDWR);
        cv.notify_all();
    }

    /** mu NOT held. */
    void note(const std::string &what) const
    {
        if (event != nullptr && *event)
            (*event)(what);
    }
};

WorkerPool::WorkerPool(std::vector<std::string> addrs, PoolConfig cfg)
    : cfg_(cfg)
{
    workers_.reserve(addrs.size());
    for (auto &addr : addrs) {
        Worker w;
        w.addr = std::move(addr);
        workers_.push_back(std::move(w));
    }
}

WorkerPool::~WorkerPool()
{
    stop();
}

const char *
WorkerPool::stateName(WorkerState s)
{
    switch (s) {
    case WorkerState::Up:
        return "up";
    case WorkerState::Suspect:
        return "suspect";
    case WorkerState::Dead:
        return "dead";
    }
    return "?";
}

void
WorkerPool::start()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (started_ || workers_.empty())
        return;
    started_ = true;
    stopping_ = false;
    prober_ = std::thread([this] { proberLoop(); });
}

void
WorkerPool::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
        cv_.notify_all();
    }
    if (prober_.joinable())
        prober_.join();
    std::lock_guard<std::mutex> lk(mu_);
    started_ = false;
}

bool
WorkerPool::anyAlive() const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const Worker &w : workers_)
        if (w.state != WorkerState::Dead)
            return true;
    return false;
}

void
WorkerPool::injectConnDrops(const std::vector<std::uint64_t> &ordinals)
{
    std::lock_guard<std::mutex> lk(mu_);
    connDrops_.insert(connDrops_.end(), ordinals.begin(),
                      ordinals.end());
}

void
WorkerPool::injectKillAfterSteal(std::uint64_t nth)
{
    std::lock_guard<std::mutex> lk(mu_);
    killAfterSteal_ = nth;
}

bool
WorkerPool::probeWorker(Worker &w)
{
    std::string err;
    const int fd = connectTcp(w.addr, err, cfg_.probeTimeoutMs);
    if (fd < 0)
        return false;
    if (!cfg_.authToken.empty() &&
        !sendAuthPreamble(fd, cfg_.authToken, err)) {
        ::close(fd);
        return false;
    }
    Json ping = Json::object();
    ping.set("v", kProtocolVersion);
    ping.set("op", "ping");
    std::string payload;
    bool ok = writeFrame(fd, ping.dump(), err) &&
              readFrame(fd, payload, err, cfg_.probeTimeoutMs);
    ::close(fd);
    if (!ok)
        return false;
    auto doc = Json::parse(payload, err);
    if (!doc || !doc->boolean("ok"))
        return false;
    const int advertised = static_cast<int>(doc->num("workers", 1.0));
    std::lock_guard<std::mutex> lk(mu_);
    w.slots = std::clamp(advertised, 1, cfg_.maxSlotsPerWorker);
    return true;
}

void
WorkerPool::proberLoop()
{
    for (;;) {
        // Snapshot under the lock, probe without it: a black-holed
        // worker must only stall its own probe, not the whole pool.
        std::vector<std::size_t> idx;
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (stopping_)
                return;
            for (std::size_t i = 0; i < workers_.size(); ++i)
                idx.push_back(i);
        }
        for (const std::size_t i : idx) {
            const bool pong = probeWorker(workers_[i]);
            std::lock_guard<std::mutex> lk(mu_);
            Worker &w = workers_[i];
            ++w.probes;
            if (pong) {
                w.state = WorkerState::Up;
                w.consecFailures = 0;
            } else {
                ++w.probeFailures;
                ++w.consecFailures;
                if (w.consecFailures >= cfg_.deadAfterFailures)
                    w.state = WorkerState::Dead;
                else if (w.state == WorkerState::Up)
                    w.state = WorkerState::Suspect;
            }
        }
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait_for(lk,
                     std::chrono::duration<double, std::milli>(
                         cfg_.probeIntervalMs),
                     [this] { return stopping_; });
        if (stopping_)
            return;
    }
}

void
WorkerPool::noteRpcFailure(std::size_t workerIdx, Round &round,
                           const std::function<void(const std::string &)>
                               &event)
{
    std::string lost;
    {
        std::lock_guard<std::mutex> lk(mu_);
        Worker &w = workers_[workerIdx];
        ++w.transientFailures;
        ++w.consecFailures;
        if (w.consecFailures >= cfg_.deadAfterFailures &&
            w.state != WorkerState::Dead) {
            w.state = WorkerState::Dead;
            lost = "worker " + w.addr + " marked dead after " +
                   std::to_string(w.consecFailures) +
                   " consecutive failures; pool degraded";
        }
    }
    if (!lost.empty()) {
        {
            std::lock_guard<std::mutex> lk(round.mu);
            ++round.out.workersLost;
        }
        if (event)
            event(lost);
    }
}

RoundOutcome
WorkerPool::runRound(
    const Json &specDoc, const std::string &jobId,
    const std::string &tenant,
    const std::vector<std::string> &cells, double cellTimeoutSec,
    const std::function<HaveList()> &haveFiles,
    const std::function<MergeVerdict(const RemoteCellResult &)> &merge,
    const std::function<void(const std::string &)> &event)
{
    auto round = std::make_shared<Round>();
    round->jobId = jobId;
    round->tenant = tenant;
    round->spec = &specDoc;
    round->cellTimeoutSec = cellTimeoutSec;
    round->haveFiles = &haveFiles;
    round->merge = &merge;
    round->event = &event;
    // A lease must outlive the worker-side hard deadline, or a healthy
    // slow cell reads as a straggler and every cell gets stolen once.
    round->leaseMs =
        cellTimeoutSec > 0.0
            ? std::max(cfg_.leaseMs, cellTimeoutSec * 2000.0 + 5000.0)
            : cfg_.leaseMs;
    // Deterministic jitter: replayable schedules in tests, and no
    // global RNG coupling with the simulation.
    std::seed_seq seed(jobId.begin(), jobId.end());
    round->rng.seed(seed);
    const Clock::time_point epoch = Clock::now();
    round->cells.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Round::Cell c;
        c.id = cells[i];
        c.readyAt = epoch;
        round->cells.push_back(std::move(c));
        round->pending.push_back(i);
    }
    round->remaining = cells.size();
    if (cells.empty()) {
        RoundOutcome out;
        out.ok = true;
        return out;
    }

    std::vector<std::thread> slots;
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Spawn the maximum slot count per worker; slotLoop gates each
        // dispatch against the worker's live (advertised) slot count,
        // so surplus threads just idle cheaply.
        for (std::size_t i = 0; i < workers_.size(); ++i)
            for (int s = 0; s < cfg_.maxSlotsPerWorker; ++s)
                slots.emplace_back(
                    [this, round, i] { slotLoop(round, i); });
    }

    // Monitor: the round finishes when every cell merged, something
    // failed, or the whole pool died with nothing in flight.
    for (;;) {
        std::unique_lock<std::mutex> lk(round->mu);
        round->cv.wait_for(lk, std::chrono::milliseconds(200));
        if (round->failed || round->remaining == 0)
            break;
        if (!round->pending.empty() && round->flights.empty() &&
            !anyAlive()) {
            round->fail(true, "no live workers remain");
            break;
        }
        bool poolStopping;
        {
            std::lock_guard<std::mutex> plk(mu_);
            poolStopping = stopping_;
        }
        if (poolStopping) {
            round->fail(true, "worker pool stopping");
            break;
        }
    }
    for (std::thread &t : slots)
        t.join();

    std::lock_guard<std::mutex> lk(round->mu);
    RoundOutcome out = round->out;
    out.ok = !round->failed && round->remaining == 0;
    if (round->failed) {
        out.transientFailure = round->transientFail;
        out.error = round->error;
    }
    return out;
}

void
WorkerPool::slotLoop(std::shared_ptr<Round> round, std::size_t workerIdx)
{
    for (;;) {
        std::string addr;
        {
            // Liveness + slot gate. Dead workers idle here (cheaply) so
            // a prober-revived worker rejoins the round automatically.
            std::lock_guard<std::mutex> lk(mu_);
            if (stopping_)
                return;
            const Worker &w = workers_[workerIdx];
            if (w.state == WorkerState::Dead ||
                w.inflight >= static_cast<std::uint64_t>(std::max(
                                  1, std::min(w.slots,
                                              cfg_.maxSlotsPerWorker)))) {
                addr.clear();
            } else {
                addr = w.addr;
            }
        }

        std::size_t cellIdx = 0;
        std::string cellId;
        bool stolen = false;
        std::size_t victimIdx = 0;
        {
            std::unique_lock<std::mutex> lk(round->mu);
            if (round->failed || round->remaining == 0)
                return;
            if (addr.empty()) {
                round->cv.wait_for(lk, std::chrono::milliseconds(200));
                continue;
            }
            const Clock::time_point now = Clock::now();
            bool got = false;
            // Ready pending cell first (FIFO among ready ones).
            for (auto it = round->pending.begin();
                 it != round->pending.end(); ++it) {
                if (round->cells[*it].readyAt <= now) {
                    cellIdx = *it;
                    round->pending.erase(it);
                    Round::Flight f;
                    f.workerIdx = workerIdx;
                    f.since = now;
                    f.inflight = 1;
                    round->flights[cellIdx] = f;
                    got = true;
                    break;
                }
            }
            if (!got) {
                // Idle and nothing pending: steal the oldest single-
                // copy straggler from a DIFFERENT worker. inflight==1
                // bounds any cell to two concurrent runs.
                std::size_t best = 0;
                double bestAge = -1.0;
                for (auto &[idx, f] : round->flights) {
                    if (f.workerIdx == workerIdx || f.inflight != 1)
                        continue;
                    const double age = msSince(f.since);
                    if (age > cfg_.stealAfterMs && age > bestAge) {
                        best = idx;
                        bestAge = age;
                    }
                }
                if (bestAge >= 0.0) {
                    cellIdx = best;
                    Round::Flight &f = round->flights[cellIdx];
                    victimIdx = f.workerIdx;
                    ++f.inflight;
                    stolen = true;
                    ++round->out.steals;
                    got = true;
                }
            }
            if (!got) {
                round->cv.wait_for(lk, std::chrono::milliseconds(200));
                continue;
            }
            cellId = round->cells[cellIdx].id;
            ++round->out.dispatched;
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            Worker &w = workers_[workerIdx];
            ++w.inflight;
            ++w.dispatched;
            if (stolen) {
                ++w.stolenRuns;
                ++workers_[victimIdx].stolenFrom;
            }
        }
        if (stolen && round->event != nullptr && *round->event)
            (*round->event)("stole cell " + cellId + " (tenant " +
                            round->tenant + ") from worker " +
                            workers_[victimIdx].addr + " for " + addr);
        if (stolen) {
            bool die = false;
            {
                std::lock_guard<std::mutex> lk(mu_);
                die = ++steals_ == killAfterSteal_;
            }
            // Chaos: crash once the steal is on record but before its
            // copy is dispatched, so the job is mid-flight by
            // construction.
            if (die)
                ::kill(::getpid(), SIGKILL);
        }

        const RpcResult rpc =
            [&]() -> RpcResult {
            RpcResult r;
            std::string err;
            const int fd =
                connectTcp(addr, err, cfg_.probeTimeoutMs);
            if (fd < 0) {
                r.error = "dial " + addr + ": " + err;
                return r;
            }
            if (!cfg_.authToken.empty() &&
                !sendAuthPreamble(fd, cfg_.authToken, err)) {
                ::close(fd);
                r.error = "auth " + addr + ": " + err;
                return r;
            }
            {
                std::lock_guard<std::mutex> lk(round->mu);
                if (round->failed) {
                    ::close(fd);
                    r.error = "round aborted";
                    return r;
                }
                round->fds.insert(fd);
            }
            Json req = Json::object();
            req.set("v", kProtocolVersion);
            req.set("op", "run_cells");
            req.set("job", round->jobId);
            req.set("spec", *round->spec);
            req.set("cell", cellId);
            if (round->cellTimeoutSec > 0.0)
                req.set("cell_timeout_sec", round->cellTimeoutSec);
            req.set("tenant", round->tenant);
            // Advertise held checkpoints as {name, hash} so the worker
            // ships only content we genuinely lack (a stale same-name
            // file must still be re-shipped).
            Json have = Json::array();
            for (const auto &[name, hash] : (*round->haveFiles)()) {
                Json h = Json::object();
                h.set("name", name);
                h.set("hash", hash);
                have.push(std::move(h));
            }
            req.set("have", std::move(have));

            bool dropAfterSend = false;
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++sends_;
                auto it = std::find(connDrops_.begin(),
                                    connDrops_.end(), sends_);
                if (it != connDrops_.end()) {
                    connDrops_.erase(it);
                    dropAfterSend = true;
                }
            }
            std::string payload;
            bool ioOk = writeFrame(fd, req.dump(), err);
            if (ioOk && dropAfterSend) {
                // Chaos: partition the connection after the request is
                // on the wire — the worker runs the cell, we never see
                // the answer. Retry/steal must recover; the checkpoint
                // merge collapses the duplicate.
                ::shutdown(fd, SHUT_RDWR);
            }
            ioOk = ioOk &&
                   readFrame(fd, payload, err,
                             static_cast<int>(round->leaseMs));
            {
                std::lock_guard<std::mutex> lk(round->mu);
                round->fds.erase(fd);
            }
            ::close(fd);
            if (!ioOk) {
                r.error = "rpc " + addr + ": " + err;
                return r;
            }
            auto doc = Json::parse(payload, err);
            if (!doc || !doc->isObject()) {
                r.error = "rpc " + addr + ": bad response: " + err;
                return r;
            }
            if (!doc->boolean("ok")) {
                const std::string cls = doc->str("class");
                r.deterministic =
                    cls != "transient" && cls != "shed";
                r.error = "worker " + addr + ": " +
                          doc->str("error", "unspecified failure");
                return r;
            }
            r.ok = true;
            r.resp = std::move(*doc);
            return r;
        }();

        if (rpc.ok) {
            {
                std::lock_guard<std::mutex> lk(mu_);
                Worker &w = workers_[workerIdx];
                --w.inflight;
                ++w.completed;
                ++w.completedByTenant[round->tenant];
                w.consecFailures = 0;
                if (w.state != WorkerState::Dead)
                    w.state = WorkerState::Up;
            }
            // Decode the shipped checkpoint files and merge with no
            // locks held (the merge callback takes service locks).
            RemoteCellResult result;
            result.cellId = cellId;
            result.worker = addr;
            result.stolen = stolen;
            result.wallMs = rpc.resp.num("wall_ms");
            bool decodeOk = true;
            std::string decodeErr;
            if (const Json *files = rpc.resp.get("files");
                files != nullptr && files->isArray()) {
                for (const Json &f : files->items()) {
                    std::string raw;
                    if (!hexDecode(f.str("data"), raw, decodeErr)) {
                        decodeOk = false;
                        break;
                    }
                    // If the worker stamped the payload with its own
                    // content hash, verify it survived the wire.
                    const std::string stamped = f.str("hash");
                    if (!stamped.empty() &&
                        stamped != CheckpointCache::hashBytes(raw)) {
                        decodeOk = false;
                        decodeErr = "checkpoint hash mismatch for '" +
                                    f.str("name") + "'";
                        break;
                    }
                    result.files.emplace_back(f.str("name"),
                                              std::move(raw));
                }
            }
            MergeVerdict verdict = MergeVerdict::Merged;
            if (decodeOk)
                verdict = (*round->merge)(result);

            std::unique_lock<std::mutex> lk(round->mu);
            if (!decodeOk) {
                round->fail(false, "worker " + addr +
                                       " shipped an undecodable "
                                       "checkpoint: " +
                                       decodeErr);
                return;
            }
            if (verdict == MergeVerdict::Divergent) {
                round->fail(false,
                            "worker " + addr +
                                " returned a divergent checkpoint for "
                                "cell " +
                                cellId +
                                " (exactly-once merge violated)");
                return;
            }
            if (verdict == MergeVerdict::Error) {
                round->fail(true, "publishing checkpoints for cell " +
                                      cellId + " failed locally");
                return;
            }
            auto fit = round->flights.find(cellIdx);
            if (round->done.count(cellIdx) != 0 ||
                verdict == MergeVerdict::Duplicate) {
                ++round->out.duplicates;
            }
            if (round->done.insert(cellIdx).second) {
                --round->remaining;
                ++round->out.completed;
                round->flights.erase(cellIdx);
            } else if (fit != round->flights.end()) {
                // Late copy of an already-done cell: drop our flight.
                if (--fit->second.inflight <= 0)
                    round->flights.erase(fit);
            }
            round->cv.notify_all();
            continue;
        }

        // Failure path. Deterministic worker verdicts fail the round;
        // everything else is transient: requeue with backoff unless the
        // cell's attempt budget is gone or another copy is still out.
        {
            std::lock_guard<std::mutex> lk(mu_);
            --workers_[workerIdx].inflight;
        }
        noteRpcFailure(workerIdx, *round, *round->event);
        std::string requeueNote;
        {
            std::unique_lock<std::mutex> lk(round->mu);
            if (round->failed)
                return;
            if (rpc.deterministic) {
                round->fail(false, rpc.error);
                return;
            }
            if (round->done.count(cellIdx) != 0) {
                // The other (stolen/original) copy already finished.
                auto fit = round->flights.find(cellIdx);
                if (fit != round->flights.end() &&
                    --fit->second.inflight <= 0)
                    round->flights.erase(fit);
                continue;
            }
            auto fit = round->flights.find(cellIdx);
            if (fit != round->flights.end() &&
                fit->second.inflight > 1) {
                // A second copy is still running; let it race.
                --fit->second.inflight;
                if (fit->second.workerIdx == workerIdx)
                    fit->second.since = Clock::now();
                continue;
            }
            round->flights.erase(cellIdx);
            Round::Cell &cell = round->cells[cellIdx];
            ++cell.attempts;
            if (cell.attempts >= cfg_.maxAttempts) {
                round->fail(true, "cell " + cellId + " failed " +
                                      std::to_string(cell.attempts) +
                                      " attempts, last: " + rpc.error);
                return;
            }
            std::uniform_real_distribution<double> uni(0.0, 1.0);
            const double delay = backoffDelayMs(
                cfg_.backoffBaseMs, cfg_.backoffCapMs,
                cell.attempts - 1, cfg_.jitterFrac, uni(round->rng));
            cell.readyAt =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(delay));
            round->pending.push_back(cellIdx);
            ++round->out.retries;
            round->cv.notify_all();
            requeueNote = "requeued cell " + cellId + " (attempt " +
                          std::to_string(cell.attempts) + "/" +
                          std::to_string(cfg_.maxAttempts) + ", " +
                          std::to_string(static_cast<int>(delay)) +
                          "ms backoff): " + rpc.error;
        }
        if (round->event != nullptr && *round->event)
            (*round->event)(requeueNote);
    }
}

Json
WorkerPool::statusJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    Json doc = Json::object();
    doc.set("schema", "maps-workers-v1");
    Json rows = Json::array();
    for (const Worker &w : workers_) {
        Json row = Json::object();
        row.set("addr", w.addr);
        row.set("state", stateName(w.state));
        row.set("slots", w.slots);
        row.set("inflight", w.inflight);
        row.set("dispatched", w.dispatched);
        row.set("completed", w.completed);
        row.set("transient_failures", w.transientFailures);
        row.set("consec_failures",
                static_cast<std::uint64_t>(w.consecFailures));
        row.set("stolen_from", w.stolenFrom);
        row.set("stolen_runs", w.stolenRuns);
        row.set("probes", w.probes);
        row.set("probe_failures", w.probeFailures);
        Json byTenant = Json::object();
        for (const auto &[tenant, count] : w.completedByTenant)
            byTenant.set(tenant, count);
        row.set("completed_by_tenant", std::move(byTenant));
        rows.push(std::move(row));
    }
    doc.set("workers", std::move(rows));
    return doc;
}

} // namespace maps::service
