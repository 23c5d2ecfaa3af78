#include "service/coordinator.hpp"

#include <algorithm>

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

} // namespace

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

bool
WorkerPool::slotOpen(std::size_t w, int slot) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const Worker &worker = workers_[w];
    return worker.state != WorkerState::Dead && slot < worker.slots;
}

std::uint64_t
WorkerPool::lease(std::size_t w, const CellTask &task)
{
    std::lock_guard<std::mutex> lk(mu_);
    InFlight l;
    l.task = task;
    l.holder = w;
    l.since = Clock::now();
    ++workers_[w].inflight;
    ++workers_[w].dispatched;
    leases_.emplace(nextLease_, std::move(l));
    return nextLease_++;
}

std::uint64_t
WorkerPool::steal(std::size_t w, CellTask &task, std::string &victim)
{
    std::lock_guard<std::mutex> lk(mu_);
    // The oldest single-copy straggler on a DIFFERENT worker; copies==1
    // bounds any cell to two concurrent runs.
    auto best = leases_.end();
    for (auto it = leases_.begin(); it != leases_.end(); ++it) {
        const InFlight &l = it->second;
        if (l.holder == w || l.copies != 1 || l.settled ||
            msSince(l.since) <= cfg_.stealAfterMs)
            continue;
        if (best == leases_.end() || l.since < best->second.since)
            best = it;
    }
    if (best == leases_.end())
        return 0;
    InFlight &l = best->second;
    ++l.copies;
    l.thief = w;
    ++workers_[l.holder].stolenFrom;
    ++workers_[w].stolenRuns;
    ++workers_[w].inflight;
    ++workers_[w].dispatched;
    task = l.task;
    victim = workers_[l.holder].addr;
    return best->first;
}

bool
WorkerPool::release(std::uint64_t id, std::size_t w, bool ok)
{
    std::lock_guard<std::mutex> lk(mu_);
    Worker &worker = workers_[w];
    --worker.inflight;
    auto it = leases_.find(id);
    if (it == leases_.end())
        return false;
    InFlight &l = it->second;
    if (ok) {
        ++worker.completed;
        ++worker.completedByTenant[l.task.tenant];
    }
    const bool decides = !l.settled && (ok || l.copies == 1);
    l.settled = l.settled || ok;
    if (--l.copies == 0) {
        leases_.erase(it);
    } else if (!l.settled && w == l.holder) {
        // The original copy failed while the stolen one runs on: the
        // thief now holds the lease, and a fresh age.
        l.holder = l.thief;
        l.since = Clock::now();
    }
    return decides;
}

DispatchResult
WorkerPool::dispatch(std::size_t w, const Json &request,
                     double cellTimeoutSec)
{
    DispatchResult r;
    const std::string &target = workers_[w].addr;
    // A lease must outlive the worker-side hard deadline, or a healthy
    // slow cell reads as a straggler and every cell gets stolen once.
    const double leaseMs =
        cellTimeoutSec > 0.0
            ? std::max(cfg_.leaseMs, cellTimeoutSec * 2000.0 + 5000.0)
            : cfg_.leaseMs;
    std::string payload, err;
    bool answered = false;
    const int fd = connectTcp(target, err, cfg_.probeTimeoutMs);
    if (fd < 0) {
        r.error = "dial " + target + ": " + err;
    } else if (!cfg_.authToken.empty() &&
               !sendAuthPreamble(fd, cfg_.authToken, err)) {
        r.error = "auth " + target + ": " + err;
    } else {
        bool dropAfterSend = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++sends_;
            auto it =
                std::find(connDrops_.begin(), connDrops_.end(), sends_);
            if (it != connDrops_.end()) {
                connDrops_.erase(it);
                dropAfterSend = true;
            }
        }
        bool ioOk = writeFrame(fd, request.dump(), err);
        if (ioOk && dropAfterSend) {
            // Chaos: partition the connection after the request is on
            // the wire — the worker runs the cell, we never see the
            // answer. Retry/steal must recover; the checkpoint merge
            // collapses the duplicate.
            ::shutdown(fd, SHUT_RDWR);
        }
        answered = ioOk && readFrame(fd, payload, err,
                                     static_cast<int>(leaseMs));
        if (!answered)
            r.error = "rpc " + target + ": " + err;
    }
    if (fd >= 0)
        ::close(fd);

    std::optional<Json> doc;
    if (answered) {
        doc = Json::parse(payload, err);
        if (!doc || !doc->isObject()) {
            r.error = "rpc " + target + ": bad response: " + err;
            doc.reset();
        }
    }
    if (doc && !doc->boolean("ok")) {
        const std::string cls = doc->str("class");
        r.shed = cls == "shed";
        r.deterministic = cls != "transient" && !r.shed;
        r.retryAfterMs = doc->num("retry_after_ms", 0.0);
        r.error = "worker " + target + ": " +
                  doc->str("error", "unspecified failure");
    } else if (doc) {
        r.ok = true;
        if (const Json *files = doc->get("files");
            files != nullptr && files->isArray()) {
            for (const Json &f : files->items()) {
                std::string raw, derr;
                // If the worker stamped the payload with its own
                // content hash, verify it survived the wire.
                const std::string stamped = f.str("hash");
                if (!hexDecode(f.str("data"), raw, derr) ||
                    (!stamped.empty() &&
                     stamped != CheckpointCache::hashBytes(raw))) {
                    r.ok = false;
                    r.deterministic = true;
                    r.error = "worker " + target +
                              " shipped an undecodable checkpoint '" +
                              f.str("name") + "'" +
                              (derr.empty() ? "" : ": " + derr);
                    break;
                }
                r.files.emplace_back(f.str("name"), std::move(raw));
            }
        }
    }

    std::lock_guard<std::mutex> lk(mu_);
    Worker &worker = workers_[w];
    if (!r.ok && !r.deterministic)
        ++worker.transientFailures;
    if (doc) {
        // Any answer, even a shed or a refusal, is a live worker.
        worker.consecFailures = 0;
        if (worker.state != WorkerState::Dead)
            worker.state = WorkerState::Up;
    } else if (++worker.consecFailures >= cfg_.deadAfterFailures &&
               worker.state != WorkerState::Dead) {
        worker.state = WorkerState::Dead;
        r.workerLost = true;
    }
    return r;
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
