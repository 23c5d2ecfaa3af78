#include "service/service.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <random>
#include <sstream>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/dirlock.hpp"
#include "core/runner.hpp"
#include "service/tcp.hpp"
#include "service/wire.hpp"
#include "util/hash.hpp"

namespace maps::service {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Classification, chaos and request specs (free functions: unit-tested).
// ---------------------------------------------------------------------------

const char *
failureClassName(FailureClass c)
{
    switch (c) {
      case FailureClass::None: return "none";
      case FailureClass::Transient: return "transient";
      case FailureClass::Deterministic: return "deterministic";
      case FailureClass::Shed: return "shed";
    }
    return "none";
}

FailureClass
classifyOutcome(const ChildOutcome &outcome, const std::string &errText)
{
    switch (outcome.kind) {
      case ChildOutcome::Kind::TimedOut:
        // Hard deadline: the cell was hung or stopped; a retry gets a
        // fresh process and usually succeeds.
        return FailureClass::Transient;
      case ChildOutcome::Kind::Signaled:
        // SIGABRT is an assertion/invariant failure inside the driver —
        // rerunning a deterministic simulation reproduces it. Anything
        // else (SIGKILL from the OOM killer or chaos, SIGSEGV from a
        // wedged box) is worth one more attempt against checkpoints.
        return outcome.termSignal == SIGABRT ? FailureClass::Deterministic
                                             : FailureClass::Transient;
      case ChildOutcome::Kind::SpawnFailed:
        // Missing binary / unexecutable: retrying cannot help.
        return FailureClass::Deterministic;
      case ChildOutcome::Kind::Exited:
        break;
    }
    if (outcome.exitCode == 0)
        return FailureClass::None;
    // Exit 2 is the driver's usage error, exit 4 unknown --only-cells:
    // both mean the request itself is wrong. Exit 1 is "some cells
    // failed"; a failure report naming --cell-timeout is the runner's
    // cooperative cancellation and therefore transient, every other
    // cell failure is the simulation deterministically failing.
    if (outcome.exitCode == 2 || outcome.exitCode == 4)
        return FailureClass::Deterministic;
    return errText.find("--cell-timeout") != std::string::npos
               ? FailureClass::Transient
               : FailureClass::Deterministic;
}

std::string
parseChaosSpec(const std::string &spec, std::vector<ChaosEvent> &out)
{
    out.clear();
    if (spec.empty())
        return "";
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        ChaosEvent ev;
        std::string rest;
        if (item.rfind("kill:worker@", 0) == 0) {
            ev.kind = ChaosEvent::Kind::KillWorker;
            rest = item.substr(12);
        } else if (item.rfind("hang:worker@", 0) == 0) {
            ev.kind = ChaosEvent::Kind::HangWorker;
            rest = item.substr(12);
        } else if (item.rfind("drop:conn@", 0) == 0) {
            ev.kind = ChaosEvent::Kind::DropConn;
            rest = item.substr(10);
        } else if (item.rfind("kill:coordinator@", 0) == 0) {
            ev.kind = ChaosEvent::Kind::KillCoordinator;
            rest = item.substr(17);
        } else {
            return "bad chaos event '" + item +
                   "' (want kill:worker@n=N, hang:worker@n=N, "
                   "drop:conn@n=N or kill:coordinator@n=N)";
        }
        if (rest.rfind("n=", 0) != 0)
            return "bad chaos trigger in '" + item + "' (want n=N)";
        const std::string num = rest.substr(2);
        if (num.empty() ||
            num.find_first_not_of("0123456789") != std::string::npos)
            return "bad chaos ordinal in '" + item + "'";
        ev.nth = std::stoull(num);
        if (ev.nth == 0)
            return "chaos ordinal in '" + item + "' is 1-based";
        out.push_back(ev);
    }
    return "";
}

std::string
cellLogName(const std::string &cellId)
{
    std::string name;
    for (const char c : cellId) {
        if (c == '%')
            name += "%25";
        else if (c == '/')
            name += "%2F";
        else
            name += c;
    }
    return name;
}

std::string
RequestSpec::validate() const
{
    if (driver.empty())
        return "request has no driver";
    for (const char c : driver)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_')
            return "driver name '" + driver +
                   "' must be a bare binary name";
    if (metrics != "off" && metrics != "summary" && metrics != "full")
        return "metrics must be off, summary or full (got '" + metrics +
               "')";
    if (cellTimeoutSec < 0.0)
        return "cell timeout must be >= 0";
    if (tenant.size() > 64)
        return "tenant name is longer than 64 chars";
    for (const char c : tenant)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-')
            return "tenant '" + tenant +
                   "' must match [A-Za-z0-9_-]{0,64}";
    if (!priority.empty()) {
        TenantPriority p;
        if (!parseTenantPriority(priority, p))
            return "priority must be low, normal or high (got '" +
                   priority + "')";
    }
    static const char *kOwned[] = {"--resume",    "--only-cells",
                                   "--list-cells", "--jobs",
                                   "--metrics",   "--cell-timeout",
                                   "--out"};
    for (const auto &a : args) {
        if (a.rfind("--", 0) != 0)
            return "driver arg '" + a + "' must be a --flag";
        for (const char c : a)
            if (std::isspace(static_cast<unsigned char>(c)) ||
                static_cast<unsigned char>(c) < 0x20)
                return "driver arg '" + a + "' contains whitespace";
        const std::string name = a.substr(0, a.find('='));
        for (const char *owned : kOwned)
            if (name == owned)
                return "arg '" + a +
                       "' is owned by the service; set it via the "
                       "request fields instead";
    }
    return "";
}

std::string
RequestSpec::canonical() const
{
    // Sorted args make flag order irrelevant to the job identity;
    // duplicate flags are driver parse errors, so sorting cannot merge
    // two requests that differ in behavior.
    std::vector<std::string> sorted = args;
    std::sort(sorted.begin(), sorted.end());
    char timeout[32];
    std::snprintf(timeout, sizeof(timeout), "%.6g", cellTimeoutSec);
    std::string c = driver;
    c += '\x1f';
    c += metrics;
    c += '\x1f';
    c += timeout;
    // Tenant (and requested priority) are part of the identity: two
    // tenants submitting the same experiment get separate jobs, so one
    // can never attach to — or poach the result of — the other's.
    c += '\x1f';
    c += tenant;
    c += '\x1f';
    c += priority;
    for (const auto &a : sorted) {
        c += '\x1f';
        c += a;
    }
    return c;
}

std::string
RequestSpec::jobId() const
{
    return Fnv1a().bytes(canonical()).hex();
}

Json
RequestSpec::toJson() const
{
    Json doc = Json::object();
    doc.set("driver", driver);
    Json list = Json::array();
    for (const auto &a : args)
        list.push(a);
    doc.set("args", std::move(list));
    doc.set("metrics", metrics);
    doc.set("cell_timeout_sec", cellTimeoutSec);
    doc.set("tenant", tenant);
    doc.set("priority", priority);
    return doc;
}

std::string
RequestSpec::fromJson(const Json &doc, RequestSpec &out)
{
    out = RequestSpec{};
    out.driver = doc.str("driver");
    out.metrics = doc.str("metrics", "off");
    out.cellTimeoutSec = doc.num("cell_timeout_sec", 0.0);
    out.tenant = doc.str("tenant");
    out.priority = doc.str("priority");
    if (const Json *args = doc.get("args")) {
        if (!args->isArray())
            return "args must be an array of strings";
        for (const auto &a : args->items()) {
            if (!a.isString())
                return "args must be an array of strings";
            out.args.push_back(a.asString());
        }
    }
    return out.validate();
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
    }
    return "queued";
}

Json
JobCounters::toJson() const
{
    Json doc = Json::object();
    doc.set("cells_run", cellsRun);
    doc.set("cells_cached", cellsCached);
    doc.set("workers_killed", workersKilled);
    doc.set("hung_cells", hungCells);
    doc.set("timed_out_cells", timedOutCells);
    doc.set("requeued_cells", requeuedCells);
    doc.set("downgraded_cells", downgradedCells);
    doc.set("daemon_restarts", daemonRestarts);
    doc.set("rounds", rounds);
    doc.set("cell_wall_ms", cellWallMs);
    doc.set("remote_cells", remoteCells);
    doc.set("steals", steals);
    doc.set("remote_retries", remoteRetries);
    doc.set("duplicate_cells", duplicateCells);
    doc.set("workers_lost", workersLost);
    doc.set("local_fallback_cells", localFallbackCells);
    return doc;
}

void
JobCounters::fromJson(const Json &doc)
{
    const auto u = [&doc](const char *key) {
        const Json *v = doc.get(key);
        return v ? v->asUint() : 0;
    };
    cellsRun = u("cells_run");
    cellsCached = u("cells_cached");
    workersKilled = u("workers_killed");
    hungCells = u("hung_cells");
    timedOutCells = u("timed_out_cells");
    requeuedCells = u("requeued_cells");
    downgradedCells = u("downgraded_cells");
    daemonRestarts = u("daemon_restarts");
    rounds = u("rounds");
    cellWallMs = u("cell_wall_ms");
    remoteCells = u("remote_cells");
    steals = u("steals");
    remoteRetries = u("remote_retries");
    duplicateCells = u("duplicate_cells");
    workersLost = u("workers_lost");
    localFallbackCells = u("local_fallback_cells");
}

Json
Job::toJson() const
{
    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("job", id);
    doc.set("spec", spec.toJson());
    // Top-level convenience copy (the spec round-trips it): recovery
    // and jq queries can group by tenant without digging into the spec.
    doc.set("tenant", effectiveTenant(spec.tenant));
    doc.set("state", jobStateName(state));
    doc.set("class", failureClassName(failClass));
    doc.set("error", error);
    Json evs = Json::array();
    for (const auto &e : events)
        evs.push(e);
    doc.set("events", std::move(evs));
    doc.set("resilience", counters.toJson());
    doc.set("result_path", resultPath);
    return doc;
}

std::string
Job::fromJson(const Json &doc)
{
    const Json *specDoc = doc.get("spec");
    if (specDoc == nullptr)
        return "no spec";
    const std::string specErr = RequestSpec::fromJson(*specDoc, spec);
    if (!specErr.empty())
        return specErr;
    error = doc.str("error");
    events.clear();
    if (const Json *evs = doc.get("events"))
        for (const auto &e : evs->items())
            if (e.isString() && events.size() < 256)
                events.push_back(e.asString());
    if (const Json *ctr = doc.get("resilience"))
        counters.fromJson(*ctr);
    resultPath = doc.str("result_path");
    const std::string st = doc.str("state");
    state = st == "done"     ? JobState::Done
            : st == "failed" ? JobState::Failed
                             : JobState::Queued;
    failClass = state != JobState::Failed ? FailureClass::None
                : doc.str("class") == "transient"
                    ? FailureClass::Transient
                    : FailureClass::Deterministic;
    return "";
}

// ---------------------------------------------------------------------------
// SIGHUP (tenant-config reload) latch.
// ---------------------------------------------------------------------------

namespace {

volatile std::sig_atomic_t g_sighup = 0;

void
onSighup(int)
{
    g_sighup = 1;
}

} // namespace

void
installSighupHandler()
{
    struct sigaction sa = {};
    sa.sa_handler = onSighup;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    ::sigaction(SIGHUP, &sa, nullptr);
}

bool
takeSighup()
{
    if (g_sighup == 0)
        return false;
    g_sighup = 0;
    return true;
}

// ---------------------------------------------------------------------------
// Service.
// ---------------------------------------------------------------------------

namespace {

/** The accounting label for a job: its spec's tenant, defaulted. */
std::string
tenantOf(const Job &job)
{
    return effectiveTenant(job.spec.tenant);
}

} // namespace

Service::Service(ServiceConfig cfg) : cfg_(std::move(cfg)) {}

std::string
Service::ckDir(const std::string &jobId) const
{
    return cfg_.stateDir + "/ck/" + jobId;
}

std::string
Service::logDir(const std::string &jobId) const
{
    return cfg_.stateDir + "/logs/" + jobId;
}

double
Service::cellTimeout(const RequestSpec &spec) const
{
    return spec.cellTimeoutSec > 0.0 ? spec.cellTimeoutSec
                                     : cfg_.defaultCellTimeoutSec;
}

ChildSpec
Service::driverChild(const RequestSpec &spec, const std::string &jobId,
                     const std::string &metrics,
                     const std::string &logBase) const
{
    ChildSpec child;
    child.exe = cfg_.driversDir + "/" + spec.driver;
    child.argv = spec.args;
    child.argv.push_back("--resume=" + ckDir(jobId));
    child.argv.push_back("--metrics=" + metrics);
    child.argv.push_back("--jobs=1");
    child.stdoutPath = logBase + ".out";
    child.stderrPath = logBase + ".err";
    const double timeout = cellTimeout(spec);
    if (timeout > 0.0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "--cell-timeout=%.6g", timeout);
        child.argv.push_back(buf);
        // The hard deadline backs the cooperative --cell-timeout: twice
        // the budget plus slack, so a SIGSTOPped or wedged child still
        // dies.
        child.deadlineMs = timeout * 2000.0 + 5000.0;
    }
    return child;
}

void
Service::addEvent(Job &job, const std::string &what)
{
    // Bounded so a pathological retry loop cannot grow the journal
    // without limit; the counters stay exact either way.
    if (job.events.size() < 256)
        job.events.push_back(what);
}

bool
Service::journalJob(const Job &job)
{
    std::string err;
    if (journal_.save(job.id, job.toJson(), err))
        return true;
    std::fprintf(stderr, "mapsd: journal save failed: %s\n", err.c_str());
    return false;
}

void
Service::finishJob(Job &job, JobState state, FailureClass c,
                   const std::string &error)
{
    job.state = state;
    job.failClass = c;
    job.error = error;
    job.ckLock.release();
    addEvent(job, state == JobState::Done
                      ? "done"
                      : "failed (" + std::string(failureClassName(c)) +
                            "): " + error);
    const bool journaled = journalJob(job);
    TenantStats &ts = tenantStats_[tenantOf(job)];
    if (state == JobState::Done) {
        ++ts.completedJobs;
        ++doneJobs_;
    } else {
        ++ts.failedJobs;
        ++failedJobs_;
    }
    auto active = activeJobsByTenant_.find(tenantOf(job));
    if (active != activeJobsByTenant_.end() && active->second > 0)
        --active->second;
    --activeJobs_;
    // From here the journal serves the job's status, wait and re-submit;
    // waiters and the coordinator keep their own references.
    if (journaled)
        jobs_.erase(std::string(job.id));
    cv_.notify_all();
    workCv_.notify_all();
}

std::shared_ptr<Job>
Service::loadFinished(const std::string &id) const
{
    const auto doc = journal_.load(id);
    if (!doc)
        return nullptr;
    auto job = std::make_shared<Job>();
    job->id = id;
    if (!job->fromJson(*doc).empty() ||
        (job->state != JobState::Done && job->state != JobState::Failed))
        return nullptr;
    return job;
}

std::size_t
Service::residentJobs() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return jobs_.size();
}

std::string
Service::recoverJobs()
{
    std::vector<std::string> skipped;
    const auto docs = journal_.loadAll(skipped);
    for (const auto &name : skipped)
        std::fprintf(stderr,
                     "mapsd: skipping unparsable journal entry '%s'\n",
                     name.c_str());
    for (const auto &[id, doc] : docs) {
        auto job = std::make_shared<Job>();
        job->id = id;
        if (!job->fromJson(doc).empty()) {
            std::fprintf(stderr,
                         "mapsd: journal entry '%s' has a bad spec; "
                         "dropping it\n",
                         id.c_str());
            journal_.remove(id);
            continue;
        }
        // Finished jobs stay in the journal, which serves them.
        if (job->state == JobState::Done) {
            ++doneJobs_;
        } else if (job->state == JobState::Failed) {
            ++failedJobs_;
        } else {
            // Queued or mid-run when the previous daemon died: re-queue.
            // Completed cells sit in the checkpoint dir, so the re-run
            // only executes what the crash actually lost.
            job->state = JobState::Queued;
            ++job->counters.daemonRestarts;
            addEvent(*job, "daemon-restart: job re-queued; checkpointed "
                           "cells will not re-run");
            // Re-queue through the tenant scheduler, not a FIFO: the
            // journaled spec carries the tenant, so a restart restores
            // per-tenant lanes and the fairness weights still hold.
            const std::string tenant = tenantOf(*job);
            jobSched_.push(tenant,
                           effectivePriority(
                               tenants_.classFor(tenant).priority,
                               job->spec.priority),
                           job);
            journalJob(*job);
            jobs_[id] = job;
        }
    }
    if (!jobSched_.empty())
        std::fprintf(stderr, "mapsd: recovered %zu unfinished job(s)\n",
                     jobSched_.size());
    return "";
}

void
Service::reloadTenants()
{
    if (cfg_.tenantsPath.empty())
        return;
    TenantConfig fresh;
    const std::string err = loadTenantConfigFile(cfg_.tenantsPath, fresh);
    if (!err.empty()) {
        // A broken reload must never take down a serving daemon: keep
        // the previous config and say so loudly.
        std::fprintf(stderr,
                     "mapsd: SIGHUP reload rejected, keeping previous "
                     "tenant config: %s\n",
                     err.c_str());
        return;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    // The schedulers hold a pointer to tenants_, so assigning in place
    // applies the new weights/quotas from the next scheduling decision.
    tenants_ = std::move(fresh);
    std::fprintf(stderr,
                 "mapsd: tenant config reloaded from %s (%zu class(es))\n",
                 cfg_.tenantsPath.c_str(), tenants_.classes.size());
}

// ---------------------------------------------------------------------------
// Child invocations.
// ---------------------------------------------------------------------------

namespace {

struct ChaosHook
{
    std::vector<ChaosEvent> *events;
    std::mutex *mu;
    std::uint64_t *spawns;
    std::vector<std::string> *jobEvents; ///< nullptr: log to stderr.
};

/** runChild() after-spawn callback firing the cell-spawn chaos events
 *  (@p arg is a ChaosHook). */
void
chaosAfterSpawn(pid_t pid, void *arg)
{
    auto *h = static_cast<ChaosHook *>(arg);
    const std::lock_guard<std::mutex> lock(*h->mu);
    const std::uint64_t n = ++*h->spawns;
    for (auto &ev : *h->events) {
        // drop:conn and kill:coordinator fire in the coordinator's
        // dispatch path, not at cell spawns.
        const bool spawnKeyed = ev.kind == ChaosEvent::Kind::KillWorker ||
                                ev.kind == ChaosEvent::Kind::HangWorker;
        if (ev.fired || ev.nth != n || !spawnKeyed)
            continue;
        ev.fired = true;
        const bool kill = ev.kind == ChaosEvent::Kind::KillWorker;
        ::kill(pid, kill ? SIGKILL : SIGSTOP);
        const std::string note = std::string("chaos: ") +
                                 (kill ? "SIGKILL" : "SIGSTOP") +
                                 " cell spawn #" + std::to_string(n);
        if (h->jobEvents != nullptr)
            h->jobEvents->push_back(note);
        else
            std::fprintf(stderr, "mapsd: %s\n", note.c_str());
    }
}

/** What went wrong with a child that did not exit 0. */
std::string
describeOutcome(const ChildOutcome &outcome)
{
    switch (outcome.kind) {
      case ChildOutcome::Kind::Exited:
        return "exit " + std::to_string(outcome.exitCode);
      case ChildOutcome::Kind::Signaled:
        return "killed by signal " + std::to_string(outcome.termSignal);
      case ChildOutcome::Kind::TimedOut:
        return "hard deadline exceeded";
      case ChildOutcome::Kind::SpawnFailed:
        break;
    }
    return outcome.error;
}

std::string
readCapped(const std::string &path, std::size_t cap = 65536)
{
    std::string text, err;
    if (!readWholeFile(path, text, err))
        return "";
    if (text.size() > cap)
        text.resize(cap);
    return text;
}

} // namespace

bool
Service::listOrAssemble(const std::shared_ptr<Job> &job,
                        std::vector<std::string> &pending,
                        std::uint64_t &cached, bool &complete,
                        std::string &err, FailureClass &cls)
{
    pending.clear();
    cached = 0;
    complete = false;
    const std::string resultPath =
        cfg_.stateDir + "/results/" + job->id + ".out";
    const std::string tmpPath = resultPath + ".tmp";
    ChildSpec spec = driverChild(job->spec, job->id, job->spec.metrics,
                                 logDir(job->id) + "/list.r" +
                                     std::to_string(job->counters.rounds));
    spec.argv.push_back("--list-cells");
    spec.argv.push_back("--out=" + tmpPath);
    spec.deadlineMs = 600000; // Loads checkpoints, never runs a cell.
    const ChildOutcome outcome = runChild(spec);
    const std::string errText = readCapped(spec.stderrPath);
    cls = classifyOutcome(outcome, errText);
    bool sawEnd = false;
    if (cls == FailureClass::None) {
        std::istringstream lines(readCapped(spec.stdoutPath, 1u << 24));
        std::string line;
        while (std::getline(lines, line)) {
            if (line.rfind("list-end ", 0) == 0) {
                sawEnd = true;
                complete = line == "list-end complete";
                continue;
            }
            // "cell <TAB> phase <TAB> id <TAB> cached|pending"
            if (line.rfind("cell\t", 0) != 0)
                continue;
            const std::size_t p1 = line.find('\t', 5);
            const std::size_t p2 =
                p1 == std::string::npos ? p1 : line.find('\t', p1 + 1);
            if (p2 == std::string::npos)
                continue;
            const std::string id = line.substr(p1 + 1, p2 - p1 - 1);
            if (line.substr(p2 + 1) == "cached")
                ++cached;
            else if (std::find(pending.begin(), pending.end(), id) ==
                     pending.end())
                pending.push_back(id);
        }
        if (!sawEnd) {
            err = "driver printed no list-end marker";
            cls = FailureClass::Deterministic;
        }
    } else {
        err = "list-or-assemble failed: " + describeOutcome(outcome);
        if (!errText.empty())
            err += "; stderr: " + errText.substr(0, 512);
    }
    // The rendered file is the result only once the grid is complete.
    if (cls != FailureClass::None || !complete) {
        std::remove(tmpPath.c_str());
        return cls == FailureClass::None;
    }
    if (std::rename(tmpPath.c_str(), resultPath.c_str()) != 0) {
        err = "cannot publish result file";
        cls = FailureClass::Transient;
        return false;
    }
    job->resultPath = resultPath;
    return true;
}

void
Service::runCell(const CellTask &task)
{
    const auto &job = task.job;
    ChildSpec spec = driverChild(job->spec, job->id, task.metrics,
                                 logDir(job->id) + "/" +
                                     cellLogName(task.cellId) + ".a" +
                                     std::to_string(task.attempt));
    spec.argv.push_back("--only-cells=" + task.cellId);

    ChaosHook hook{&chaos_, &mu_, &cellSpawns_, &job->events};
    const ChildOutcome outcome =
        runChild(spec, chaos_.empty() ? nullptr : chaosAfterSpawn, &hook);
    const std::string errText = readCapped(spec.stderrPath);
    const FailureClass cls = classifyOutcome(outcome, errText);

    const std::lock_guard<std::mutex> lock(mu_);
    ++job->counters.cellsRun;
    job->counters.cellWallMs +=
        static_cast<std::uint64_t>(outcome.elapsedMs);
    if (outcome.kind == ChildOutcome::Kind::Signaled)
        ++job->counters.workersKilled;
    if (outcome.kind == ChildOutcome::Kind::TimedOut)
        ++job->counters.hungCells;
    if (outcome.kind == ChildOutcome::Kind::Exited &&
        cls == FailureClass::Transient)
        ++job->counters.timedOutCells;
    finishCell(task, /*remote=*/false, cls, describeOutcome(outcome));
}

void
Service::coordinate(std::shared_ptr<Job> job)
{
    // Claim the checkpoint dir up front: cell children then find a lock
    // owned by their parent and adopt it, so parallel cells of one job
    // cooperate while a foreign batch run on the same dir fails fast.
    // A lock left by a SIGKILLed daemon has a dead owner and is taken
    // over here.
    if (!job->ckLock.held()) {
        const std::string lockErr = job->ckLock.acquire(ckDir(job->id));
        if (!lockErr.empty()) {
            const std::lock_guard<std::mutex> lock(mu_);
            finishJob(*job, JobState::Failed, FailureClass::Transient,
                      lockErr);
            return;
        }
    }
    constexpr std::uint64_t kMaxRounds = 64;
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(mu_);
            if (++job->counters.rounds > kMaxRounds) {
                finishJob(*job, JobState::Failed,
                          FailureClass::Deterministic,
                          "grid did not converge after " +
                              std::to_string(kMaxRounds) + " rounds");
                return;
            }
        }
        // One child per round lists the grid and, once every cell is
        // checkpointed, publishes the assembled result as well.
        std::vector<std::string> pending;
        std::uint64_t cached = 0;
        bool complete = false;
        std::string lerr;
        FailureClass lcls = FailureClass::None;
        const bool listed =
            listOrAssemble(job, pending, cached, complete, lerr, lcls);
        std::unique_lock<std::mutex> lock(mu_);
        if (!listed) {
            finishJob(*job, JobState::Failed, lcls, lerr);
            return;
        }
        if (job->counters.rounds == 1)
            job->counters.cellsCached = cached;
        if (complete) {
            finishJob(*job, JobState::Done, FailureClass::None, "");
            return;
        }
        if (pending.empty()) {
            finishJob(*job, JobState::Failed, FailureClass::Deterministic,
                      "driver reported an incomplete grid with no "
                      "pending cells");
            return;
        }
        // The pending cells go to the tenant scheduler; whichever slots
        // may take them (local, or remote on a coordinator) run them.
        job->outstanding = pending.size();
        job->roundFailures.clear();
        job->roundWorstClass = FailureClass::None;
        const std::string tenant = tenantOf(*job);
        const TenantPriority prio = effectivePriority(
            tenants_.classFor(tenant).priority, job->spec.priority);
        for (const auto &id : pending)
            cellSched_.push(tenant, prio,
                            CellTask{job, id, job->spec.metrics, 0, 0,
                                     tenant, prio, {}});
        journalJob(*job);
        workCv_.notify_all();
        cv_.wait(lock, [&job] { return job->outstanding == 0; });
        if (!job->roundFailures.empty()) {
            std::string what = job->roundFailures.front();
            if (job->roundFailures.size() > 1)
                what += " (+" +
                        std::to_string(job->roundFailures.size() - 1) +
                        " more)";
            finishJob(*job, JobState::Failed, job->roundWorstClass, what);
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Exactly-once checkpoint exchange.
// ---------------------------------------------------------------------------

namespace {

/** A shippable checkpoint basename: exactly what checkpointFileName
 *  emits, and nothing a hostile worker could use to escape the job's
 *  checkpoint directory. */
bool
validCheckpointName(const std::string &name)
{
    if (name.size() < 6 || name.size() > 255 || name.front() == '.')
        return false;
    if (name.compare(name.size() - 5, 5, ".cell") != 0)
        return false;
    return name.find('/') == std::string::npos &&
           name.find("..") == std::string::npos;
}

} // namespace

std::vector<std::string>
Service::checkpointBasenames(const std::string &jobId) const
{
    std::vector<std::string> names;
    std::error_code ec;
    fs::directory_iterator it(ckDir(jobId), ec), end;
    for (; !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (validCheckpointName(name))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<std::pair<std::string, std::string>>
Service::checkpointManifest(const std::string &jobId) const
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const std::string &name : checkpointBasenames(jobId)) {
        const std::string hash =
            ckCache_ != nullptr
                ? ckCache_->hashFor(ckDir(jobId) + "/" + name)
                : std::string();
        out.emplace_back(name, hash);
    }
    return out;
}

MergeVerdict
Service::mergeRemote(
    const std::string &jobId,
    const std::vector<std::pair<std::string, std::string>> &files)
{
    // The have/merge pair is the exactly-once mechanism: `have` tells a
    // worker which checkpoints to skip shipping, the merge publishes
    // the rest atomically and byte-compares anything that already
    // landed — a stolen or retried cell's second completion collapses
    // to `Duplicate`, and a worker whose bytes disagree with the merged
    // copy is a deterministic, loud failure. mergeMu_ serializes both
    // so concurrent completions never race a half-published file.
    const std::lock_guard<std::mutex> lk(mergeMu_);
    bool wrote = false;
    bool compared = false;
    for (const auto &[name, bytes] : files) {
        if (!validCheckpointName(name))
            return MergeVerdict::Divergent;
        const std::string path = ckDir(jobId) + "/" + name;
        std::string existing, ferr;
        if (readWholeFile(path, existing, ferr)) {
            if (existing != bytes)
                return MergeVerdict::Divergent;
            compared = true;
            continue;
        }
        if (!atomicWriteFile(path, bytes, ferr))
            return MergeVerdict::Error;
        if (ckCache_ != nullptr)
            ckCache_->noteWritten(path, bytes);
        wrote = true;
    }
    return wrote || !compared ? MergeVerdict::Merged
                              : MergeVerdict::Duplicate;
}

// ---------------------------------------------------------------------------
// Cell slots.
// ---------------------------------------------------------------------------

namespace {

/** A cell gets five attempts on remote slots, then two on local ones;
 *  a shed spends none. */
constexpr int kRemoteAttempts = 5;
constexpr int kLocalAttempts = 2;

/** The jittered backoff schedule of every transient requeue. */
constexpr double kBackoffBaseMs = 200.0;
constexpr double kBackoffCapMs = 5000.0;
constexpr double kJitterFrac = 0.25;

/** A cell that used its remote attempts runs on a local slot only. */
bool
pinnedLocal(const CellTask &task)
{
    return task.remoteFailures >= kRemoteAttempts;
}

} // namespace

std::size_t
Service::cellsRunning() const
{
    std::size_t n = 0;
    for (const auto &[tenant, count] : cellsInflight_)
        n += count;
    return n;
}

bool
Service::popCell(CellTask &task, bool remote)
{
    // Fairness at the dispatch point: cells are popped per tenant by
    // deficit-weighted round robin, a tenant at its concurrent-cell
    // quota is skipped (its lane keeps at most one banked quantum), and
    // congestion is judged against the tenant's *own* backlog, scaled
    // by its priority tier — a greedy low-priority tenant degrades
    // while a well-behaved one never does.
    const auto eligible = [this](const std::string &tenant) {
        const std::size_t quota =
            tenants_.classFor(tenant).maxConcurrentCells;
        if (quota == 0)
            return true;
        const auto it = cellsInflight_.find(tenant);
        return (it == cellsInflight_.end() ? 0 : it->second) < quota;
    };
    const auto now = std::chrono::steady_clock::now();
    bool fromPinned = false;
    if (!remote && pool_ != nullptr) {
        // A coordinator's local slots take the cells that used their
        // remote attempts, and the rest only while no worker is alive.
        const auto pinned = std::find_if(
            backoff_.begin(), backoff_.end(), [&](const CellTask &t) {
                return pinnedLocal(t) && t.notBefore <= now &&
                       eligible(t.tenant);
            });
        if (pinned != backoff_.end()) {
            task = std::move(*pinned);
            backoff_.erase(pinned);
            fromPinned = true;
        } else if (pool_->anyAlive()) {
            return false;
        }
    } else if (!remote && cellsRunning() >= std::max(1u, cfg_.workers)) {
        return false;
    }
    if (!fromPinned) {
        for (auto it = backoff_.begin(); it != backoff_.end();) {
            if (it->notBefore > now || pinnedLocal(*it)) {
                ++it;
                continue;
            }
            cellSched_.push(it->tenant, it->prio, std::move(*it));
            it = backoff_.erase(it);
        }
        if (!cellSched_.pop(task, nullptr, eligible))
            return false;
    }
    const std::size_t depth = cellSched_.queuedFor(task.tenant);
    const std::size_t threshold =
        degradeThreshold(cfg_.degradeDepth, task.prio);
    if (task.metrics == "full" && depth >= threshold) {
        task.metrics = "summary";
        ++task.job->counters.downgradedCells;
        ++tenantStats_[task.tenant].degradedCells;
        addEvent(*task.job,
                 "congestion: cell " + task.cellId +
                     " downgraded to --metrics=summary (tenant " +
                     task.tenant + " backlog " + std::to_string(depth) +
                     " >= " + std::to_string(threshold) + ")");
    }
    ++cellsInflight_[task.tenant];
    ++tenantStats_[task.tenant].cellsDispatched;
    if (!remote && pool_ != nullptr) {
        ++task.job->counters.localFallbackCells;
        addEvent(*task.job, "degraded: running cell " + task.cellId +
                                " locally (" +
                                (fromPinned ? "remote attempts used up"
                                        : "worker pool unavailable") +
                                ")");
    }
    return true;
}

void
Service::finishCell(const CellTask &task, bool remote, FailureClass cls,
                    const std::string &why, double retryAfterMs)
{
    Job &job = *task.job;
    auto running = cellsInflight_.find(task.tenant);
    if (running != cellsInflight_.end() && running->second > 0)
        --running->second;
    workCv_.notify_all(); // A quota slot freed; re-check lanes.
    CellTask retry = task;
    if (cls == FailureClass::Transient) {
        ++retry.attempt;
        retry.remoteFailures += remote ? 1 : 0;
    }
    if (cls == FailureClass::None) {
        ++tenantStats_[task.tenant].cellsCompleted;
        --job.outstanding;
    } else if (cls == FailureClass::Shed ||
               (cls == FailureClass::Transient &&
                retry.attempt - retry.remoteFailures < kLocalAttempts)) {
        // Requeue. A shed waits out the worker's hint and spends no
        // attempt. A transient failure waits out the jittered backoff;
        // the jitter is a function of the cell and attempt: replayable
        // schedules in tests, and no global RNG coupling with the
        // simulation. A cell out of remote attempts goes straight to a
        // local slot, which has attempts of its own.
        const bool pins = remote && pinnedLocal(retry);
        double delay = 0.0;
        if (cls == FailureClass::Shed && retryAfterMs > 0.0) {
            delay = retryAfterMs;
        } else if (!pins) {
            const std::string key = job.id + "/" + task.cellId + "/" +
                                    std::to_string(task.attempt);
            std::seed_seq seed(key.begin(), key.end());
            std::mt19937 rng(seed);
            delay = backoffDelayMs(
                kBackoffBaseMs, kBackoffCapMs, task.attempt, kJitterFrac,
                std::uniform_real_distribution<double>(0.0, 1.0)(rng));
        }
        retry.notBefore =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(delay));
        std::string note;
        if (pins) {
            note = "cell " + task.cellId + " used its " +
                   std::to_string(kRemoteAttempts) +
                   " remote attempts; re-queued for a local slot: " + why;
        } else if (remote) {
            ++job.counters.remoteRetries;
            note = "requeued cell " + task.cellId + " (" +
                   (cls == FailureClass::Shed
                        ? std::string("shed")
                        : "attempt " +
                              std::to_string(retry.remoteFailures) + "/" +
                              std::to_string(kRemoteAttempts)) +
                   ", " + std::to_string(static_cast<int>(delay)) +
                   "ms backoff): " + why;
        } else {
            // A timed-out full-metrics cell is downgraded so the retry
            // fits the budget. The downgrade is honest: it lands in the
            // event log and the counters, and the checkpoint carries
            // whatever level actually ran.
            ++job.counters.requeuedCells;
            note = "cell " + task.cellId + " failed transiently; re-queued";
            if (task.metrics == "full") {
                retry.metrics = "summary";
                ++job.counters.downgradedCells;
                ++tenantStats_[task.tenant].degradedCells;
                note += " with --metrics=summary";
            }
        }
        addEvent(job, note);
        backoff_.push_back(std::move(retry));
    } else {
        job.roundFailures.push_back("cell " + task.cellId + ": " + why);
        if (job.roundWorstClass != FailureClass::Deterministic)
            job.roundWorstClass = cls;
        --job.outstanding;
    }
    journalJob(job);
    if (job.outstanding == 0)
        cv_.notify_all();
}

void
Service::workerLoop()
{
    for (;;) {
        CellTask task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            for (;;) {
                if (draining_ && activeJobs_ == 0)
                    return;
                if (popCell(task, /*remote=*/false))
                    break;
                // Pushes and completions notify workCv_; the timeout is
                // a backstop that also lets a due backoff rejoin its
                // lane.
                workCv_.wait_for(lock, std::chrono::milliseconds(200));
            }
        }
        runCell(task);
    }
}

void
Service::remoteSlot(std::size_t worker, int slot)
{
    const std::string self = pool_->addr(worker);
    for (;;) {
        CellTask task;
        std::uint64_t lease = 0;
        std::string victim;
        Json request = Json::object();
        double timeout = 0.0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            for (;;) {
                if (draining_ && activeJobs_ == 0)
                    return;
                // The slot is its share of the worker's advertised
                // capacity, claimed before a cell is taken.
                if (pool_->slotOpen(worker, slot)) {
                    if (popCell(task, /*remote=*/true)) {
                        lease = pool_->lease(worker, task);
                        break;
                    }
                    lease = pool_->steal(worker, task, victim);
                    if (lease != 0)
                        break;
                }
                // Lease ages, due backoffs and worker health change
                // without a notify; the timeout covers them.
                workCv_.wait_for(lock, std::chrono::milliseconds(200));
            }
            Job &job = *task.job;
            if (!victim.empty()) {
                ++job.counters.steals;
                ++tenantStats_[task.tenant].stolenCells;
                addEvent(job, "stole cell " + task.cellId + " (tenant " +
                                  task.tenant + ") from worker " + victim +
                                  " for " + self);
                journalJob(job);
                // Chaos: crash once the steal is on record but before
                // its copy is dispatched, so the job is mid-flight by
                // construction.
                ++steals_;
                for (const ChaosEvent &ev : chaos_)
                    if (ev.kind == ChaosEvent::Kind::KillCoordinator &&
                        ev.nth == steals_)
                        ::kill(::getpid(), SIGKILL);
            }
            RequestSpec spec = job.spec;
            spec.metrics = task.metrics;
            timeout = cellTimeout(job.spec);
            request.set("v", kProtocolVersion);
            request.set("op", "run_cells");
            request.set("job", job.id);
            request.set("spec", spec.toJson());
            request.set("cell", task.cellId);
            if (timeout > 0.0)
                request.set("cell_timeout_sec", timeout);
            request.set("tenant", task.tenant);
        }
        {
            // Advertise held checkpoints as {name, hash} so the worker
            // ships only content we genuinely lack (a stale same-name
            // file must still be re-shipped).
            Json have = Json::array();
            const std::lock_guard<std::mutex> lk(mergeMu_);
            for (const auto &[name, hash] :
                 checkpointManifest(task.job->id)) {
                Json h = Json::object();
                h.set("name", name);
                h.set("hash", hash);
                have.push(std::move(h));
            }
            request.set("have", std::move(have));
        }
        const DispatchResult rpc = pool_->dispatch(worker, request, timeout);
        FailureClass cls = FailureClass::None;
        std::string why = rpc.error;
        MergeVerdict verdict = MergeVerdict::Merged;
        if (!rpc.ok) {
            cls = rpc.deterministic ? FailureClass::Deterministic
                  : rpc.shed        ? FailureClass::Shed
                                    : FailureClass::Transient;
        } else {
            verdict = mergeRemote(task.job->id, rpc.files);
            if (verdict == MergeVerdict::Divergent) {
                cls = FailureClass::Deterministic;
                why = "worker " + self +
                      " returned a divergent checkpoint (exactly-once "
                      "merge violated)";
            } else if (verdict == MergeVerdict::Error) {
                cls = FailureClass::Transient;
                why = "publishing its checkpoints failed locally";
            }
        }
        const bool decides =
            pool_->release(lease, worker, cls == FailureClass::None);

        const std::lock_guard<std::mutex> lock(mu_);
        Job &job = *task.job;
        if (rpc.workerLost) {
            ++job.counters.workersLost;
            addEvent(job, "worker " + self + " marked dead after " +
                              std::to_string(
                                  pool_->config().deadAfterFailures) +
                              " consecutive failures; pool degraded");
        }
        if (cls == FailureClass::None &&
            (verdict == MergeVerdict::Duplicate || !decides))
            ++job.counters.duplicateCells;
        if (decides) {
            if (cls == FailureClass::None) {
                // Counted and journaled the moment the checkpoint
                // lands: a coordinator killed mid-round must not forget
                // that remote workers did the work.
                ++job.counters.remoteCells;
                ++tenantStats_[task.tenant].remoteCells;
            }
            finishCell(task, /*remote=*/true, cls, why,
                       rpc.retryAfterMs);
        } else if (job.state == JobState::Running) {
            // The other copy settles the cell; a divergent late copy
            // still fails the round loudly.
            if (verdict == MergeVerdict::Divergent) {
                addEvent(job, "cell " + task.cellId + ": " + why);
                job.roundFailures.push_back("cell " + task.cellId + ": " +
                                            why);
                job.roundWorstClass = FailureClass::Deterministic;
            }
            journalJob(job);
        }
    }
}

void
Service::schedulerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] {
                return draining_ || (!jobSched_.empty() &&
                                     activeJobs_ < cfg_.maxActiveJobs);
            });
            if (draining_)
                return; // Queued jobs stay journaled for the next start.
            std::string tenant;
            if (!jobSched_.pop(job, &tenant))
                continue;
            ++activeJobs_;
            ++activeJobsByTenant_[tenant];
            job->state = JobState::Running;
            addEvent(*job, "started");
            journalJob(*job);
            spawnThread([this, job] { coordinate(job); });
        }
        cv_.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Wire handlers.
// ---------------------------------------------------------------------------

namespace {

Json
errorResponse(const std::string &what, FailureClass cls)
{
    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("ok", false);
    doc.set("error", what);
    doc.set("class", failureClassName(cls));
    return doc;
}

} // namespace

Json
Service::jobSnapshot(const Job &job, bool includeResult) const
{
    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("ok", true);
    doc.set("job", job.id);
    doc.set("tenant", effectiveTenant(job.spec.tenant));
    doc.set("state", jobStateName(job.state));
    doc.set("class", failureClassName(job.failClass));
    doc.set("error", job.error);
    Json evs = Json::array();
    for (const auto &e : job.events)
        evs.push(e);
    doc.set("events", std::move(evs));
    doc.set("resilience", job.counters.toJson());
    if (includeResult && job.state == JobState::Done) {
        std::string text, err;
        if (readWholeFile(job.resultPath, text, err)) {
            doc.set("result", text);
        } else {
            doc.set("result", Json());
            doc.set("error", "result file lost: " + err);
        }
    }
    return doc;
}

Json
Service::handleSubmit(const Json &req)
{
    RequestSpec spec;
    const std::string specErr = RequestSpec::fromJson(req, spec);
    if (!specErr.empty())
        return errorResponse(specErr, FailureClass::Deterministic);
    const std::string id = spec.jobId();

    std::error_code ec;
    fs::create_directories(ckDir(id), ec);
    fs::create_directories(logDir(id), ec);

    const std::lock_guard<std::mutex> lock(mu_);
    const std::string tenant = effectiveTenant(spec.tenant);
    const TenantClass &cls = tenants_.classFor(tenant);
    const TenantPriority prio =
        effectivePriority(cls.priority, spec.priority);
    TenantStats &ts = tenantStats_[tenant];
    ++ts.submitted;
    const auto it = jobs_.find(id);
    const std::shared_ptr<Job> known =
        it != jobs_.end() ? it->second : loadFinished(id);
    if (known != nullptr) {
        Job &job = *known;
        ++ts.attached;
        if (job.state == JobState::Failed) {
            // Idempotent retry: same spec, same job, same checkpoints —
            // only the work the failure actually lost is repeated.
            job.state = JobState::Queued;
            job.failClass = FailureClass::None;
            job.error.clear();
            job.outstanding = 0;
            job.roundFailures.clear();
            addEvent(job, "resubmitted after failure");
            --failedJobs_;
            jobs_[id] = known;
            jobSched_.push(tenant, prio, known);
            journalJob(job);
            cv_.notify_all();
        }
        Json doc = Json::object();
        doc.set("v", kProtocolVersion);
        doc.set("ok", true);
        doc.set("job", id);
        doc.set("tenant", tenant);
        doc.set("state", jobStateName(job.state));
        doc.set("attached", true);
        return doc;
    }
    // Shed hints are derived from the depth of whatever actually caused
    // the shed (this tenant's queue, or the whole admission queue), on
    // the client's own backoff curve — see shedRetryHintMs().
    if (draining_) {
        ++ts.shedJobs;
        Json doc = errorResponse("daemon is draining",
                                 FailureClass::Shed);
        doc.set("tenant", tenant);
        doc.set("retry_after_ms", shedRetryHintMs(jobSched_.size()));
        return doc;
    }
    const std::size_t tenantQueued = jobSched_.queuedFor(tenant);
    if (cls.maxQueuedJobs != 0 && tenantQueued >= cls.maxQueuedJobs) {
        // Per-tenant quota: one flooding tenant is shed on its own
        // backlog long before the global queue fills for everyone.
        ++ts.shedJobs;
        Json doc = errorResponse(
            "tenant '" + tenant + "' queued-job quota reached (" +
                std::to_string(tenantQueued) + "/" +
                std::to_string(cls.maxQueuedJobs) + ")",
            FailureClass::Shed);
        doc.set("tenant", tenant);
        doc.set("retry_after_ms", shedRetryHintMs(tenantQueued));
        return doc;
    }
    if (jobSched_.size() >= cfg_.queueMax) {
        // Global backstop: shed instead of queueing unboundedly.
        ++ts.shedJobs;
        Json doc = errorResponse(
            "admission queue full (" + std::to_string(jobSched_.size()) +
                " jobs queued)",
            FailureClass::Shed);
        doc.set("tenant", tenant);
        doc.set("retry_after_ms", shedRetryHintMs(jobSched_.size()));
        return doc;
    }
    auto job = std::make_shared<Job>();
    job->id = id;
    job->spec = std::move(spec);
    addEvent(*job, "accepted (tenant " + tenant + ", priority " +
                       tenantPriorityName(prio) + ")");
    jobs_[id] = job;
    jobSched_.push(tenant, prio, job);
    ++ts.admitted;
    journalJob(*job);
    cv_.notify_all();

    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("ok", true);
    doc.set("job", id);
    doc.set("tenant", tenant);
    doc.set("state", jobStateName(job->state));
    doc.set("attached", false);
    doc.set("position",
            static_cast<std::uint64_t>(tenantQueued + 1));
    return doc;
}

Json
Service::handleWait(const Json &req)
{
    const std::string id = req.str("job");
    double timeoutMs = req.num("timeout_ms", 600000.0);
    timeoutMs = std::min(std::max(timeoutMs, 0.0), 3600000.0);

    std::unique_lock<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        const auto finished = loadFinished(id);
        if (finished == nullptr)
            return errorResponse("unknown job '" + id + "'",
                                 FailureClass::Deterministic);
        return jobSnapshot(*finished, /*includeResult=*/true);
    }
    const auto job = it->second;
    cv_.wait_for(lock, std::chrono::milliseconds(
                           static_cast<std::int64_t>(timeoutMs)),
                 [this, &job] {
                     return draining_ || job->state == JobState::Done ||
                            job->state == JobState::Failed;
                 });
    return jobSnapshot(*job, /*includeResult=*/true);
}

Json
Service::handleStatus(const Json &req)
{
    const std::string id = req.str("job");
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    const std::shared_ptr<Job> job =
        it != jobs_.end() ? it->second : loadFinished(id);
    if (job == nullptr)
        return errorResponse("unknown job '" + id + "'",
                             FailureClass::Deterministic);
    return jobSnapshot(*job, /*includeResult=*/false);
}

Json
Service::handlePing()
{
    const std::lock_guard<std::mutex> lock(mu_);
    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("ok", true);
    doc.set("op", "pong");
    doc.set("pid", static_cast<std::uint64_t>(::getpid()));
    doc.set("draining", draining_);
    doc.set("workers", static_cast<std::uint64_t>(cfg_.workers));
    doc.set("active_jobs", static_cast<std::uint64_t>(activeJobs_));
    doc.set("queued_jobs", static_cast<std::uint64_t>(jobSched_.size()));
    doc.set("done_jobs", doneJobs_);
    doc.set("failed_jobs", failedJobs_);
    return doc;
}

Json
Service::handleWorkers() const
{
    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("ok", true);
    doc.set("schema", "maps-workers-v1");
    doc.set("role", pool_ != nullptr        ? "coordinator"
                    : cfg_.tcpListen.empty() ? "single-host"
                                             : "worker");
    if (pool_ != nullptr) {
        const Json status = pool_->statusJson();
        if (const Json *rows = status.get("workers"))
            doc.set("workers", *rows);
        else
            doc.set("workers", Json::array());
    } else {
        doc.set("workers", Json::array());
    }
    return doc;
}

Json
Service::handleTenants() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("ok", true);
    doc.set("schema", "maps-tenants-v1");
    doc.set("config", cfg_.tenantsPath);
    Json defaults = Json::object();
    defaults.set("weight",
                 static_cast<std::uint64_t>(tenants_.defaultClass.weight));
    defaults.set("priority",
                 tenantPriorityName(tenants_.defaultClass.priority));
    defaults.set("max_queued_jobs",
                 static_cast<std::uint64_t>(
                     tenants_.defaultClass.maxQueuedJobs));
    defaults.set("max_cells",
                 static_cast<std::uint64_t>(
                     tenants_.defaultClass.maxConcurrentCells));
    doc.set("defaults", std::move(defaults));

    // One row per tenant the daemon knows about: configured classes
    // plus anything that ever submitted or was recovered (std::map
    // keeps the rows sorted by tenant name).
    std::map<std::string, bool> names; // name -> has a configured class
    for (const auto &[name, cls] : tenants_.classes)
        names[name] = true;
    for (const auto &[name, stats] : tenantStats_)
        names.emplace(name, false);
    jobSched_.forEachTenant(
        [&names](const std::string &t, std::size_t) {
            names.emplace(t, false);
        });

    Json rows = Json::array();
    for (const auto &[name, configured] : names) {
        const TenantClass &cls = tenants_.classFor(name);
        const auto statsIt = tenantStats_.find(name);
        static const TenantStats kZero;
        const TenantStats &ts =
            statsIt == tenantStats_.end() ? kZero : statsIt->second;
        Json row = Json::object();
        row.set("tenant", name);
        row.set("class", configured ? name : "default");
        row.set("weight", static_cast<std::uint64_t>(cls.weight));
        row.set("priority", tenantPriorityName(cls.priority));
        row.set("max_queued_jobs",
                static_cast<std::uint64_t>(cls.maxQueuedJobs));
        row.set("max_cells",
                static_cast<std::uint64_t>(cls.maxConcurrentCells));
        row.set("queued_jobs",
                static_cast<std::uint64_t>(jobSched_.queuedFor(name)));
        const auto activeIt = activeJobsByTenant_.find(name);
        row.set("active_jobs",
                static_cast<std::uint64_t>(
                    activeIt == activeJobsByTenant_.end()
                        ? 0
                        : activeIt->second));
        row.set("queued_cells",
                static_cast<std::uint64_t>(cellSched_.queuedFor(name)));
        const auto inflIt = cellsInflight_.find(name);
        row.set("running_cells",
                static_cast<std::uint64_t>(
                    inflIt == cellsInflight_.end() ? 0
                                                   : inflIt->second));
        row.set("submitted", ts.submitted);
        row.set("admitted", ts.admitted);
        row.set("attached", ts.attached);
        row.set("shed_jobs", ts.shedJobs);
        row.set("shed_cells", ts.shedCells);
        row.set("completed_jobs", ts.completedJobs);
        row.set("failed_jobs", ts.failedJobs);
        row.set("cells_dispatched", ts.cellsDispatched);
        row.set("cells_completed", ts.cellsCompleted);
        row.set("degraded_cells", ts.degradedCells);
        row.set("stolen_cells", ts.stolenCells);
        row.set("remote_cells", ts.remoteCells);
        rows.push(std::move(row));
    }
    doc.set("tenants", std::move(rows));
    return doc;
}

Json
Service::handleRunCells(const Json &req)
{
    RequestSpec spec;
    const Json *specDoc = req.get("spec");
    if (specDoc == nullptr)
        return errorResponse("run_cells without a spec",
                             FailureClass::Deterministic);
    const std::string specErr = RequestSpec::fromJson(*specDoc, spec);
    if (!specErr.empty())
        return errorResponse(specErr, FailureClass::Deterministic);
    // Cell ids come from outside this daemon: refuse what could not be
    // a driver's cell id. A '/' is fine (cellLogName escapes it).
    const std::string cellId = req.str("cell");
    if (cellId.empty() || cellId.find("..") != std::string::npos ||
        std::any_of(cellId.begin(), cellId.end(),
                    [](unsigned char c) { return std::iscntrl(c); }))
        return errorResponse("run_cells with a missing or unsafe cell "
                             "id",
                             FailureClass::Deterministic);
    // The coordinator's "have" list: `{name, hash}` objects (bare
    // strings from older coordinators are accepted with an empty hash,
    // which matches any content).
    std::vector<std::pair<std::string, std::string>> have;
    if (const Json *h = req.get("have"); h != nullptr && h->isArray())
        for (const auto &n : h->items()) {
            if (n.isString())
                have.emplace_back(n.asString(), std::string());
            else if (n.isObject())
                have.emplace_back(n.str("name"), n.str("hash"));
        }
    const std::string tenant =
        effectiveTenant(req.str("tenant", spec.tenant));

    // Admission: remote cells count in the daemon's one in-flight
    // count, against its pool size and the tenant's max_cells quota, so
    // local and remote cells together never oversubscribe this host
    // and fair share holds here too. Beyond either we shed and let the
    // coordinator's backoff pace the retries, with a hint that scales
    // with how oversubscribed this worker actually is.
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const std::size_t running = cellsRunning();
        const std::size_t quota =
            tenants_.classFor(tenant).maxConcurrentCells;
        std::string shed;
        if (draining_)
            shed = "worker is draining";
        else if (running >= std::max(1u, cfg_.workers))
            shed = "worker at capacity";
        else if (quota != 0 && cellsInflight_[tenant] >= quota)
            shed = "tenant '" + tenant + "' at its max_cells quota";
        if (!shed.empty()) {
            ++tenantStats_[tenant].shedCells;
            Json doc = errorResponse(shed, FailureClass::Shed);
            doc.set("tenant", tenant);
            doc.set("retry_after_ms", shedRetryHintMs(running));
            return doc;
        }
        ++cellsInflight_[tenant];
        ++tenantStats_[tenant].cellsDispatched;
    }
    struct Admission
    {
        Service *s;
        const std::string &tenant;
        ~Admission()
        {
            const std::lock_guard<std::mutex> lock(s->mu_);
            --s->cellsInflight_[tenant];
            s->workCv_.notify_all();
        }
    } admission{this, tenant};

    const std::string id = spec.jobId();
    std::error_code ec;
    fs::create_directories(ckDir(id), ec);
    fs::create_directories(logDir(id), ec);
    // Claim this job's checkpoint dir so the driver child (which sees a
    // lock owned by its parent) adopts it; concurrent run_cells for the
    // same job in this daemon adopt the same lock.
    runner::DirLock ckLock;
    const std::string lockErr = ckLock.acquire(ckDir(id));
    if (!lockErr.empty())
        return errorResponse(lockErr, FailureClass::Transient);

    ChildSpec cspec = driverChild(spec, id, spec.metrics,
                                  logDir(id) + "/" + cellLogName(cellId) +
                                      ".remote");
    cspec.argv.push_back("--only-cells=" + cellId);
    ChaosHook hook{&chaos_, &mu_, &cellSpawns_, nullptr};
    const ChildOutcome outcome =
        runChild(cspec, chaos_.empty() ? nullptr : chaosAfterSpawn, &hook);
    const std::string errText = readCapped(cspec.stderrPath);
    const FailureClass cls = classifyOutcome(outcome, errText);
    if (cls != FailureClass::None) {
        std::string what = "cell " + cellId + ": " + describeOutcome(outcome);
        if (!errText.empty())
            what += "; stderr: " + errText.substr(0, 512);
        return errorResponse(what, cls);
    }

    // Ship every checkpoint the coordinator does not already hold byte
    // -identically: a name on the have list is skipped only when its
    // advertised content hash matches ours (an empty hash matches
    // anything), so a restart or steal re-ships nothing the merged
    // state already has — the "have"-list delta. The hex doubling plus
    // JSON overhead must fit one frame; cells whose checkpoints cannot
    // are not shippable, and saying so honestly beats a frame the
    // coordinator would reject anyway.
    Json files = Json::array();
    std::size_t shipped = 0;
    std::uint64_t skipped = 0;
    for (const std::string &name : checkpointBasenames(id)) {
        const std::string path = ckDir(id) + "/" + name;
        const std::string ours =
            ckCache_ != nullptr ? ckCache_->hashFor(path) : std::string();
        bool held = false;
        for (const auto &[hname, hhash] : have) {
            if (hname != name)
                continue;
            held = hhash.empty() || ours.empty() || hhash == ours;
            break;
        }
        if (held) {
            ++skipped;
            continue;
        }
        std::string raw, ferr;
        if (!readWholeFile(path, raw, ferr))
            return errorResponse("checkpoint '" + name +
                                     "' unreadable: " + ferr,
                                 FailureClass::Transient);
        shipped += raw.size() * 2 + name.size() + 64;
        if (shipped > kMaxFrameBytes / 2)
            return errorResponse("checkpoint payload exceeds the frame "
                                 "budget",
                                 FailureClass::Deterministic);
        Json f = Json::object();
        f.set("name", name);
        f.set("data", hexEncode(raw));
        f.set("hash", ours.empty() ? CheckpointCache::hashBytes(raw)
                                   : ours);
        files.push(std::move(f));
    }
    if (ckCache_ != nullptr) {
        std::string perr;
        if (!ckCache_->persist(perr))
            std::fprintf(stderr,
                         "mapsd: checkpoint-cache persist failed: %s\n",
                         perr.c_str());
    }
    {
        const std::lock_guard<std::mutex> lock(mu_);
        ++tenantStats_[tenant].cellsCompleted;
    }
    Json doc = Json::object();
    doc.set("v", kProtocolVersion);
    doc.set("ok", true);
    doc.set("op", "run_cells");
    doc.set("cell", cellId);
    doc.set("tenant", tenant);
    doc.set("wall_ms", outcome.elapsedMs);
    doc.set("skipped_files", skipped);
    doc.set("files", std::move(files));
    return doc;
}

Json
Service::handleRequest(const Json &req)
{
    if (req.str("v") != kProtocolVersion)
        return errorResponse("unsupported protocol version '" +
                                 req.str("v") + "' (want " +
                                 kProtocolVersion + ")",
                             FailureClass::Deterministic);
    const std::string op = req.str("op");
    if (op == "ping")
        return handlePing();
    if (op == "submit")
        return handleSubmit(req);
    if (op == "wait")
        return handleWait(req);
    if (op == "status")
        return handleStatus(req);
    if (op == "workers")
        return handleWorkers();
    if (op == "tenants")
        return handleTenants();
    if (op == "run_cells")
        return handleRunCells(req);
    if (op == "shutdown") {
        requestDrain();
        Json doc = Json::object();
        doc.set("v", kProtocolVersion);
        doc.set("ok", true);
        doc.set("op", "shutdown");
        return doc;
    }
    return errorResponse("unknown op '" + op + "'",
                         FailureClass::Deterministic);
}

void
Service::serveConnection(int fd, bool tcp)
{
    // Token-gated TCP: the preamble is verified before any frame is
    // parsed, so an unauthenticated peer costs one short line and one
    // close. Local unix-socket clients are never gated.
    if (tcp && !cfg_.authToken.empty()) {
        std::string aerr;
        if (!expectAuthPreamble(fd, cfg_.authToken, aerr)) {
            std::fprintf(stderr,
                         "mapsd: rejected tcp connection: %s\n",
                         aerr.c_str());
            ::close(fd);
            return;
        }
    }
    for (;;) {
        std::string payload, err;
        if (!readFrame(fd, payload, err, 1000)) {
            const bool timedOut =
                err.find("timed out") != std::string::npos;
            bool drain;
            {
                const std::lock_guard<std::mutex> lock(mu_);
                drain = draining_;
            }
            if (timedOut && !drain)
                continue; // Idle connection; keep listening.
            break;
        }
        Json response;
        auto doc = Json::parse(payload, err);
        if (!doc || !doc->isObject())
            response = errorResponse("malformed request: " + err,
                                     FailureClass::Deterministic);
        else
            response = handleRequest(*doc);
        if (!writeFrame(fd, response.dump(), err))
            break;
    }
    ::close(fd);
}

void
Service::spawnThread(std::function<void()> fn)
{
    threads_.emplace_back([this, fn = std::move(fn)] {
        fn();
        const std::lock_guard<std::mutex> lock(mu_);
        exitedThreads_.push_back(std::this_thread::get_id());
    });
}

void
Service::reapThreads()
{
    std::vector<std::thread> exited;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        for (const std::thread::id id : exitedThreads_) {
            const auto it = std::find_if(
                threads_.begin(), threads_.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            exited.push_back(std::move(*it));
            threads_.erase(it);
        }
        exitedThreads_.clear();
    }
    for (auto &t : exited)
        t.join();
}

void
Service::acceptLoop(int unixFd, int tcpFd)
{
    for (;;) {
        reapThreads();
        if (runner::interruptSignal() != 0)
            requestDrain();
        if (takeSighup())
            reloadTenants();
        {
            const std::lock_guard<std::mutex> lock(mu_);
            if (draining_)
                return;
        }
        pollfd pfds[2] = {{unixFd, POLLIN, 0}, {tcpFd, POLLIN, 0}};
        const nfds_t nfds = tcpFd >= 0 ? 2 : 1;
        const int rc = ::poll(pfds, nfds, 200);
        if (rc <= 0)
            continue;
        for (nfds_t i = 0; i < nfds; ++i) {
            if ((pfds[i].revents & POLLIN) == 0)
                continue;
            const int fd = ::accept(pfds[i].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            const bool isTcp = pfds[i].fd == tcpFd;
            const std::lock_guard<std::mutex> lock(mu_);
            spawnThread([this, fd, isTcp] { serveConnection(fd, isTcp); });
        }
    }
}

void
Service::requestDrain()
{
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_)
        return;
    draining_ = true;
    std::fprintf(stderr, "mapsd: draining (running jobs will finish; "
                         "queued jobs stay journaled)\n");
    cv_.notify_all();
    workCv_.notify_all();
}

int
Service::run(std::string &err)
{
    std::error_code ec;
    fs::create_directories(cfg_.stateDir + "/results", ec);
    if (ec) {
        err = "cannot create state dir '" + cfg_.stateDir +
              "': " + ec.message();
        return 1;
    }
    // One daemon per state dir: a second instance would race the
    // journal and the checkpoint dirs. Stale locks (SIGKILLed daemon)
    // are taken over.
    runner::DirLock stateLock;
    const std::string lockErr = stateLock.acquire(cfg_.stateDir);
    if (!lockErr.empty()) {
        err = lockErr;
        return 1;
    }
    err = journal_.open(cfg_.stateDir);
    if (!err.empty())
        return 1;
    err = parseChaosSpec(cfg_.chaosSpec, chaos_);
    if (!err.empty())
        return 1;
    if (!cfg_.tenantsPath.empty()) {
        // Startup load is strict (a typo must not silently run with
        // defaults); SIGHUP reloads are forgiving (reloadTenants).
        TenantConfig loaded;
        err = loadTenantConfigFile(cfg_.tenantsPath, loaded);
        if (!err.empty())
            return 1;
        const std::lock_guard<std::mutex> lock(mu_);
        tenants_ = std::move(loaded);
        std::fprintf(stderr, "mapsd: %zu tenant class(es) from %s\n",
                     tenants_.classes.size(), cfg_.tenantsPath.c_str());
    }
    ckCache_ =
        std::make_unique<CheckpointCache>(cfg_.stateDir + "/ckcache.tsv");
    {
        // recoverJobs re-queues through the tenant scheduler, so the
        // config above must be in place first for correct tiering.
        const std::lock_guard<std::mutex> lock(mu_);
        recoverJobs();
    }
    const int listenFd = listenUnix(cfg_.socketPath, err);
    if (listenFd < 0)
        return 1;
    int tcpFd = -1;
    if (!cfg_.tcpListen.empty()) {
        std::string bound;
        tcpFd = listenTcp(cfg_.tcpListen, err, &bound);
        if (tcpFd < 0) {
            ::close(listenFd);
            return 1;
        }
        // Publish the actual bound address (port 0 lets the kernel
        // pick) so harnesses and operators can discover it.
        std::string werr;
        if (!atomicWriteFile(cfg_.stateDir + "/tcp.port", bound + "\n",
                             werr))
            std::fprintf(stderr,
                         "mapsd: cannot publish tcp.port: %s\n",
                         werr.c_str());
        std::fprintf(stderr, "mapsd: listening on tcp:%s\n",
                     bound.c_str());
    }
    if (!cfg_.workerAddrs.empty()) {
        PoolConfig pc;
        pc.stealAfterMs = cfg_.stealAfterMs;
        pc.authToken = cfg_.authToken;
        pool_ = std::make_unique<WorkerPool>(cfg_.workerAddrs, pc);
        std::vector<std::uint64_t> drops;
        for (const auto &ev : chaos_) {
            if (ev.kind == ChaosEvent::Kind::DropConn)
                drops.push_back(ev.nth);
        }
        if (!drops.empty())
            pool_->injectConnDrops(drops);
        pool_->start();
        std::fprintf(stderr,
                     "mapsd: coordinating %zu remote worker(s)\n",
                     cfg_.workerAddrs.size());
    }
    runner::installSignalHandlers();
    installSighupHandler();

    for (unsigned i = 0; i < std::max(1u, cfg_.workers); ++i)
        workers_.emplace_back(&Service::workerLoop, this);
    if (pool_ != nullptr)
        for (std::size_t w = 0; w < pool_->size(); ++w)
            for (int s = 0; s < pool_->config().maxSlotsPerWorker; ++s)
                workers_.emplace_back(&Service::remoteSlot, this, w, s);
    std::thread scheduler(&Service::schedulerLoop, this);

    std::fprintf(stderr, "mapsd: listening on %s (%u workers)\n",
                 cfg_.socketPath.c_str(), cfg_.workers);
    acceptLoop(listenFd, tcpFd);

    // Drain: admission is closed; running jobs finish and checkpoint.
    scheduler.join();
    {
        // Wake any coordinator waiting for cells that will never run —
        // there are none: slots only exit once activeJobs_ == 0.
        const std::lock_guard<std::mutex> lock(mu_);
        workCv_.notify_all();
    }
    for (auto &t : workers_)
        t.join();
    std::vector<std::thread> threads;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        threads.swap(threads_);
    }
    for (auto &t : threads)
        t.join();
    if (pool_ != nullptr)
        pool_->stop();
    if (ckCache_ != nullptr) {
        std::string perr;
        ckCache_->persist(perr);
    }
    ::close(listenFd);
    if (tcpFd >= 0)
        ::close(tcpFd);
    ::unlink(cfg_.socketPath.c_str());
    std::fprintf(stderr, "mapsd: drained\n");
    return 0;
}

} // namespace maps::service
