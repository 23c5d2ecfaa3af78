/**
 * @file
 * Chaos acceptance harness for mapsd (see docs/SERVICE.md).
 *
 * Reproduces the service's headline robustness claim end to end, with
 * every disturbance injected deterministically:
 *
 *   1. run the fig3 sweep directly to get the reference byte stream;
 *   2. start mapsd with a chaos spec (mirroring the maps::fault
 *      `kind:surface@trigger` grammar) that SIGKILLs five cell children
 *      and SIGSTOPs two more, by spawn ordinal;
 *   3. submit the same sweep through the client retry loop;
 *   4. once the journal shows the kills and hangs have landed, SIGKILL
 *      the whole daemon process group mid-run and start a fresh daemon
 *      on the same state dir;
 *   5. assert the client still gets a result byte-identical to the
 *      reference — no cell lost, none duplicated — and that the job's
 *      resilience counters honestly record every disturbance.
 *
 * Byte-identity is the strong form of "zero lost / zero duplicated
 * cells": a lost cell drops rows, a duplicated one repeats them, and
 * either changes the bytes.
 *
 * `--distributed` runs the multi-node variant instead: three worker
 * daemons on loopback TCP (port 0, discovered via their published
 * tcp.port files), one coordinator sharding the fig3 sweep across
 * them — then SIGKILL one worker mid-job, stall another
 * (`hang:worker@n=1` SIGSTOPs its first cell child) until the
 * coordinator steals its cell, have the coordinator SIGKILL itself
 * right after journaling that steal (`kill:coordinator@n=1`), and
 * restart it on the same state dir with a dispatch connection dropped
 * via `drop:conn@n=1`. Every disturbance is keyed to an event, not to
 * a sleep, so the job is mid-flight at each one however loaded the
 * host is. The merged result must still be byte-identical to the
 * undisturbed single-host run, and the job's events/counters must
 * record the steal, the retries and the restart honestly.
 *
 * `--multitenant` runs the fair-share variant instead: a daemon with a
 * --tenants config (a well-behaved "good" tenant and a quota-bounded,
 * low-priority "greedy" one), a greedy client flooding the queue while
 * chaos SIGKILLs cell workers, then a daemon SIGKILL mid-run and a
 * restart on the same state dir. The good tenant's job must complete
 * byte-identical, the greedy tenant must stay inside its concurrent-
 * cell quota the whole time, every shed must carry a retry_after_ms
 * hint, only the low-priority tenant may be degraded, and the restart
 * must restore the greedy backlog from the journal (fairness survives
 * recovery). A SIGHUP reload of the tenants file is verified live at
 * the end. The good tenant submits through the real mapsctl, whose
 * ping, `status --tenants` and usage exit codes are checked too.
 *
 * Usage:
 *   chaos_service --mapsd=PATH --drivers-dir=DIR [--work-dir=DIR]
 *                 [--cell-timeout=SECS] [--distributed]
 *                 [--multitenant --mapsctl=PATH] [--keep]
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/child.hpp"
#include "service/client.hpp"
#include "service/journal.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace {

namespace fs = std::filesystem;
using namespace maps::service;

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (ok) {
        std::printf("ok      %s\n", what.c_str());
    } else {
        std::printf("FAILED  %s\n", what.c_str());
        ++g_failures;
    }
}

/** Spawn mapsd as its own process group so chaos cleanup can nuke the
 *  daemon and any orphaned cell children in one kill(-pgid). */
pid_t
spawnMapsd(std::vector<std::string> args, const std::string &logPath)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    ::setpgid(0, 0);
    const int logFd =
        ::open(logPath.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (logFd >= 0) {
        ::dup2(logFd, STDOUT_FILENO);
        ::dup2(logFd, STDERR_FILENO);
    }
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(args[0].c_str(), argv.data());
    ::_exit(127);
}

pid_t
spawnDaemon(const std::string &mapsd, const std::string &socket,
            const std::string &stateDir, const std::string &driversDir,
            const std::string &chaos, const std::string &logPath)
{
    std::vector<std::string> args = {
        mapsd,
        "--socket=" + socket,
        "--state-dir=" + stateDir,
        "--drivers-dir=" + driversDir,
        "--workers=2",
    };
    if (!chaos.empty())
        args.push_back("--chaos=" + chaos);
    return spawnMapsd(std::move(args), logPath);
}

bool
waitForPing(Client &client, int budgetMs)
{
    for (int waited = 0; waited < budgetMs; waited += 100) {
        Json req = Json::object();
        req.set("v", kProtocolVersion);
        req.set("op", "ping");
        std::string err;
        auto resp = client.rpc(req, err, 2000);
        if (resp && resp->boolean("ok"))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return false;
}

/** True when @p doc has every key in @p keys. */
bool
hasKeys(const Json &doc, std::initializer_list<const char *> keys)
{
    return std::all_of(keys.begin(), keys.end(), [&doc](const char *k) {
        return doc.get(k) != nullptr;
    });
}

/** True when @p resp is the full maps-svc-v1 pong: version, ok, op,
 *  pid and the advertised pool size. */
bool
isPong(const std::optional<Json> &resp)
{
    return resp && resp->str("v") == kProtocolVersion &&
           resp->boolean("ok") && resp->str("op") == "pong" &&
           hasKeys(*resp, {"pid", "workers"});
}

/** True when a ping answers with the full maps-svc-v1 pong. */
bool
validPong(Client &client)
{
    Json req = Json::object();
    req.set("v", kProtocolVersion);
    req.set("op", "ping");
    std::string err;
    return isPong(client.rpc(req, err, 2000));
}

/** Start `mapsctl --socket=SOCKET ARGS...` with its stdout in
 *  @p outPath and its stderr in @p outPath `.err`. */
pid_t
spawnMapsctl(const std::string &mapsctl, const std::string &socket,
             const std::vector<std::string> &args,
             const std::string &outPath)
{
    std::vector<std::string> argv = {mapsctl, "--socket=" + socket};
    argv.insert(argv.end(), args.begin(), args.end());
    std::vector<char *> cargv;
    for (auto &a : argv)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const std::string errPath = outPath + ".err";
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const int out =
        ::open(outPath.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    const int err =
        ::open(errPath.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (out >= 0)
        ::dup2(out, STDOUT_FILENO);
    if (err >= 0)
        ::dup2(err, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
}

/** Wait for a spawnMapsctl child: its exit code (-1 when it did not
 *  exit), with what it printed in @p out. */
int
reapMapsctl(pid_t pid, const std::string &outPath, std::string &out)
{
    int status = 0;
    const bool exited =
        ::waitpid(pid, &status, 0) == pid && WIFEXITED(status);
    std::string err;
    out.clear();
    readWholeFile(outPath, out, err);
    return exited ? WEXITSTATUS(status) : -1;
}

/** Run `mapsctl --socket=SOCKET ARGS...` to its end; see reapMapsctl. */
int
runMapsctl(const std::string &mapsctl, const std::string &socket,
           const std::vector<std::string> &args, const std::string &outPath,
           std::string &out)
{
    return reapMapsctl(spawnMapsctl(mapsctl, socket, args, outPath),
                       outPath, out);
}

/** True when a terminal job response carries the maps-svc-v1 envelope
 *  (version, ok, class none), every resilience key in @p keys and a
 *  non-empty result. */
bool
validFinal(const Json &final, std::initializer_list<const char *> keys)
{
    const Json *res = final.get("resilience");
    const Json *result = final.get("result");
    return final.str("v") == kProtocolVersion && final.boolean("ok") &&
           final.str("class") == "none" && res != nullptr &&
           hasKeys(*res, keys) && result != nullptr && result->isString() &&
           !result->asString().empty();
}

/** SIGTERM @p pid and give it 30 s to drain; past that, SIGKILL its
 *  process group. True when it drained on its own. */
bool
drain(pid_t pid)
{
    ::kill(pid, SIGTERM);
    int status = 0;
    for (int waited = 0; waited < 30000; waited += 100) {
        if (::waitpid(pid, &status, WNOHANG) == pid)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ::kill(-pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    return false;
}

/** Read the job's journaled resilience counters; zeros when unreadable. */
JobCounters
journaledCounters(const std::string &stateDir, const std::string &jobId,
                  std::string &state)
{
    JobCounters counters;
    state.clear();
    std::string text, err;
    if (!readWholeFile(stateDir + "/jobs/" + jobId + ".json", text, err))
        return counters;
    auto doc = Json::parse(text, err);
    if (!doc)
        return counters;
    state = doc->str("state");
    if (const Json *res = doc->get("resilience"))
        counters.fromJson(*res);
    return counters;
}

/** Raw journal text for substring polling ("" when not yet written).
 *  Events are journaled live during a remote round, so they are the
 *  only mid-round signal that survives a coordinator SIGKILL. */
std::string
journalText(const std::string &stateDir, const std::string &jobId)
{
    std::string text, err;
    if (!readWholeFile(stateDir + "/jobs/" + jobId + ".json", text, err))
        return "";
    return text;
}

/** Run fig3_reuse_cdf --quick directly and return its stdout bytes. */
bool
referenceBytes(const std::string &driversDir, const std::string &workDir,
               std::string &out)
{
    const std::string refPath = workDir + "/reference.out";
    ChildSpec ref;
    ref.exe = driversDir + "/fig3_reuse_cdf";
    ref.argv = {"--quick", "--jobs=4"};
    ref.stdoutPath = refPath;
    ref.stderrPath = workDir + "/reference.err";
    ref.deadlineMs = 600000;
    const ChildOutcome outcome = runChild(ref);
    if (outcome.kind != ChildOutcome::Kind::Exited ||
        outcome.exitCode != 0) {
        std::fprintf(stderr, "chaos_service: reference run failed (%s)\n",
                     outcome.error.c_str());
        return false;
    }
    std::string err;
    return readWholeFile(refPath, out, err) && !out.empty();
}

/** All events of a terminal job response concatenated, for substring
 *  asserts against the journal-preserved history. */
std::string
joinedEvents(const Json &final)
{
    std::string all;
    if (const Json *evs = final.get("events"); evs && evs->isArray()) {
        for (const Json &e : evs->items())
            if (e.isString())
                all += e.asString() + "\n";
    }
    return all;
}

/**
 * The multi-node acceptance scenario. Returns the process exit code;
 * appends to g_failures through expect() like the single-host path.
 */
int
runDistributed(const std::string &mapsd, const std::string &driversDir,
               const std::string &workDir, double cellTimeoutSec,
               bool keep)
{
    // 1. Reference bytes from an undisturbed direct run.
    std::string refBytes;
    if (!referenceBytes(driversDir, workDir, refBytes))
        return 1;

    // 2. Three single-slot worker daemons on loopback TCP port 0,
    // discovered through their published tcp.port files.
    struct Worker
    {
        pid_t pid = -1;
        std::string stateDir, socket, tcpAddr, log;
    };
    std::vector<Worker> workers(3);
    for (std::size_t i = 0; i < workers.size(); ++i) {
        Worker &w = workers[i];
        const std::string tag = "w" + std::to_string(i);
        w.stateDir = workDir + "/" + tag;
        w.socket = workDir + "/" + tag + ".sock";
        w.log = workDir + "/" + tag + ".log";
        std::vector<std::string> args = {
            mapsd, "--socket=" + w.socket, "--state-dir=" + w.stateDir,
            "--drivers-dir=" + driversDir, "--workers=1",
            "--listen-tcp=127.0.0.1:0"};
        // Worker 1 stalls: its first cell child is SIGSTOPped, so the
        // lease it holds can only end in a steal.
        if (i == 1)
            args.push_back("--chaos=hang:worker@n=1");
        w.pid = spawnMapsd(std::move(args), w.log);
    }
    const auto killAllWorkers = [&workers] {
        for (const Worker &w : workers) {
            if (w.pid > 0) {
                ::kill(-w.pid, SIGCONT);
                ::kill(-w.pid, SIGKILL);
                int status = 0;
                ::waitpid(w.pid, &status, 0);
            }
        }
    };
    for (std::size_t i = 0; i < workers.size(); ++i) {
        Worker &w = workers[i];
        for (int waited = 0; waited < 15000 && w.tcpAddr.empty();
             waited += 100) {
            std::string text, err;
            if (readWholeFile(w.stateDir + "/tcp.port", text, err)) {
                while (!text.empty() &&
                       (text.back() == '\n' || text.back() == '\r'))
                    text.pop_back();
                w.tcpAddr = text;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        if (w.tcpAddr.empty()) {
            std::fprintf(stderr,
                         "chaos_service: worker %zu never published "
                         "tcp.port\n",
                         i);
            killAllWorkers();
            return 1;
        }
        Client probe("tcp:" + w.tcpAddr);
        expect(waitForPing(probe, 15000) && validPong(probe),
               "worker " + std::to_string(i) +
                   " answers a maps-svc-v1 pong on tcp:" + w.tcpAddr);
    }

    // 3. Coordinator A shards across all three workers; its chaos spec
    // makes it SIGKILL itself right after journaling its first steal.
    // Coordinator B, restarted on the same state dir, drops its first
    // dispatch connection mid-flight (the partition).
    const std::string coordSock = workDir + "/coordinator.sock";
    const std::string coordState = workDir + "/coordinator-state";
    const std::string coordLog = workDir + "/coordinator.log";
    const std::string workerList = workers[0].tcpAddr + "," +
                                   workers[1].tcpAddr + "," +
                                   workers[2].tcpAddr;
    const auto coordArgs = [&](const std::string &chaos) {
        std::vector<std::string> args = {
            mapsd,
            "--socket=" + coordSock,
            "--state-dir=" + coordState,
            "--drivers-dir=" + driversDir,
            "--coordinator",
            "--workers=" + workerList,
            "--steal-after-ms=1500",
        };
        if (!chaos.empty())
            args.push_back("--chaos=" + chaos);
        return args;
    };
    const pid_t coordA =
        spawnMapsd(coordArgs("kill:coordinator@n=1"), coordLog);
    Client client(coordSock);
    if (!waitForPing(client, 15000)) {
        std::fprintf(stderr, "chaos_service: coordinator never pinged\n");
        ::kill(-coordA, SIGKILL);
        killAllWorkers();
        return 1;
    }

    RequestSpec spec;
    spec.driver = "fig3_reuse_cdf";
    spec.args = {"--quick"};
    spec.metrics = "off";
    spec.cellTimeoutSec = cellTimeoutSec;
    const std::string jobId = spec.jobId();

    RetryPolicy policy;
    policy.budget = 20;
    policy.baseMs = 200;
    policy.capMs = 2000;

    std::optional<Json> final;
    std::string clientErr;
    std::thread ctl([&] {
        final = client.submitAndWait(spec, policy, clientErr, stderr);
    });

    // 4. Chaos sequence. Once the job reaches the journal (the
    // coordinator journals it before its first remote round) kill
    // worker 0 outright. The job cannot finish yet: worker 1's cell is
    // stalled until stolen, and the steal takes the coordinator down.
    for (int waited = 0; waited < 60000; waited += 100) {
        if (!journalText(coordState, jobId).empty())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ::kill(-workers[0].pid, SIGKILL);
    int status = 0;
    ::waitpid(workers[0].pid, &status, 0);
    std::printf("info    worker 0 SIGKILLed mid-job\n");

    // 5. The steal is the proof the lease/steal machinery works, and
    // coordinator A dies the moment it is journaled. Bring a fresh
    // coordinator up on the same state dir.
    bool selfKilled = false;
    bool reaped = false;
    for (int waited = 0; waited < 180000 && !reaped; waited += 100) {
        reaped = ::waitpid(coordA, &status, WNOHANG) == coordA;
        if (reaped)
            selfKilled = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
        else
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    expect(selfKilled, "coordinator SIGKILLed itself after its first "
                       "steal");
    expect(journalText(coordState, jobId).find("stole cell") !=
               std::string::npos,
           "journal recorded a steal from the stalled worker before the "
           "coordinator SIGKILL");
    // Take down the rest of its process group (or, had the steal never
    // come, the coordinator itself).
    ::kill(-coordA, SIGKILL);
    if (!reaped)
        ::waitpid(coordA, &status, 0);
    std::printf("info    coordinator SIGKILLed mid-job\n");
    const pid_t coordB = spawnMapsd(coordArgs("drop:conn@n=1"), coordLog);

    // 6. The client rides out the restart on its own; the merged result
    // must be byte-identical to the undisturbed single-host run.
    ctl.join();
    expect(final.has_value(),
           "client completed through retries (" + clientErr + ")");
    std::string state, result, events;
    JobCounters counters;
    if (final) {
        state = final->str("state");
        events = joinedEvents(*final);
        if (const Json *res = final->get("resilience"))
            counters.fromJson(*res);
        if (const Json *r = final->get("result"); r && r->isString())
            result = r->asString();
    }
    expect(state == "done", "job finished done (state=" + state + ")");
    expect(result == refBytes,
           "merged result is byte-identical to the undisturbed "
           "single-host run (" +
               std::to_string(result.size()) + " vs " +
               std::to_string(refBytes.size()) + " bytes)");
    expect(final && validFinal(*final, {"remote_cells", "steals",
                                        "remote_retries",
                                        "duplicate_cells", "workers_lost",
                                        "local_fallback_cells"}),
           "final response is a maps-svc-v1 envelope with class none, "
           "every multi-node resilience key and a result");
    expect(counters.remoteCells >= 1,
           "counters: remote_cells >= 1 (got " +
               std::to_string(counters.remoteCells) + ")");
    expect(counters.daemonRestarts >= 1,
           "counters: daemon_restarts >= 1 (got " +
               std::to_string(counters.daemonRestarts) + ")");
    expect(events.find("stole cell") != std::string::npos,
           "events preserved the steal across the coordinator restart");
    expect(counters.remoteRetries >= 1 ||
               events.find("requeued cell") != std::string::npos,
           "retry/backoff engaged for the killed worker and the "
           "dropped connection");

    // 7. The workers view (maps-svc-v1 "workers" op) must name all
    // three workers and report the SIGKILLed one dead. Deadness is a
    // prober verdict (N consecutive probe failures), so give the
    // coordinator's prober a few cycles to reach it.
    {
        bool threeRows = false, deadSeen = false, rowsComplete = false;
        std::string schema, role;
        for (int waited = 0; waited < 20000; waited += 250) {
            Json req = Json::object();
            req.set("v", kProtocolVersion);
            req.set("op", "workers");
            std::string werr;
            auto resp = client.rpc(req, werr, 10000);
            if (resp && resp->boolean("ok")) {
                schema = resp->str("schema");
                role = resp->str("role");
                if (const Json *rows = resp->get("workers");
                    rows && rows->isArray()) {
                    threeRows = rows->items().size() == workers.size();
                    rowsComplete = true;
                    for (const Json &row : rows->items()) {
                        rowsComplete =
                            rowsComplete &&
                            hasKeys(row, {"addr", "state", "slots",
                                          "inflight", "dispatched",
                                          "completed", "transient_failures",
                                          "stolen_from", "stolen_runs"});
                        if (row.str("addr") == workers[0].tcpAddr &&
                            row.str("state") == "dead")
                            deadSeen = true;
                    }
                }
            }
            if (threeRows && deadSeen)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(250));
        }
        expect(schema == "maps-workers-v1",
               "workers op answers schema maps-workers-v1 (got '" +
                   schema + "')");
        expect(role == "coordinator",
               "workers op reports role coordinator (got '" + role + "')");
        expect(threeRows, "workers op lists all three workers");
        expect(rowsComplete,
               "every workers row carries addr, state, slots, inflight, "
               "dispatched, completed, transient_failures, stolen_from "
               "and stolen_runs");
        expect(deadSeen, "workers op reports the SIGKILLed worker dead");
    }

    expect(drain(coordB), "coordinator B drained on SIGTERM within 30 s");
    killAllWorkers();

    if (!keep && g_failures == 0) {
        std::error_code ec;
        fs::remove_all(workDir, ec);
    } else {
        std::printf("info    artifacts kept in %s\n", workDir.c_str());
    }
    std::printf("%s (%d failure%s)\n",
                g_failures == 0 ? "chaos_service: PASS"
                                : "chaos_service: FAIL",
                g_failures, g_failures == 1 ? "" : "s");
    return g_failures == 0 ? 0 : 1;
}

/** The tenants-view row for @p tenant, or nullopt when the rpc failed
 *  or the tenant has no row yet. */
std::optional<Json>
tenantRow(Client &client, const std::string &tenant, std::string &err)
{
    Json req = Json::object();
    req.set("v", kProtocolVersion);
    req.set("op", "tenants");
    auto resp = client.rpc(req, err, 5000);
    if (!resp || !resp->boolean("ok"))
        return std::nullopt;
    if (const Json *rows = resp->get("tenants");
        rows != nullptr && rows->isArray()) {
        for (const Json &row : rows->items())
            if (row.str("tenant") == tenant)
                return row;
    }
    return std::nullopt;
}

/**
 * The multi-tenant acceptance scenario. Returns the process exit code;
 * appends to g_failures through expect() like the other paths.
 */
int
runMultitenant(const std::string &mapsd, const std::string &mapsctl,
               const std::string &driversDir, const std::string &workDir,
               double cellTimeoutSec, bool keep)
{
    // 1. Reference bytes from an undisturbed direct run (the tenant
    // label is scheduling metadata — it must never change the bytes).
    std::string refBytes;
    if (!referenceBytes(driversDir, workDir, refBytes))
        return 1;

    // 2. Tenant config: "good" is a normal-priority tenant with room
    // to breathe; "greedy" is low priority, one concurrent cell, and a
    // three-deep job queue — the fair-share bound this scenario holds
    // the daemon to.
    const std::string tenantsConf = workDir + "/tenants.conf";
    std::string confErr;
    if (!atomicWriteFile(
            tenantsConf,
            "tenant good weight=3 priority=normal max_queued=8 "
            "max_cells=3\n"
            "tenant greedy weight=1 priority=low max_queued=3 "
            "max_cells=1\n"
            "default weight=1 priority=normal\n",
            confErr)) {
        std::fprintf(stderr, "chaos_service: %s\n", confErr.c_str());
        return 1;
    }

    const std::string socket = workDir + "/mapsd.sock";
    const std::string stateDir = workDir + "/state";
    const std::string daemonLog = workDir + "/mapsd.log";
    const auto daemonArgs = [&](const std::string &chaos) {
        std::vector<std::string> args = {
            mapsd,
            "--socket=" + socket,
            "--state-dir=" + stateDir,
            "--drivers-dir=" + driversDir,
            "--workers=3",
            "--max-active-jobs=2",
            "--queue-max=64",
            "--degrade-depth=4",
            "--tenants=" + tenantsConf,
        };
        if (!chaos.empty())
            args.push_back("--chaos=" + chaos);
        return args;
    };

    // Daemon A: chaos SIGKILLs the 2nd and 4th cell children and
    // SIGSTOPs the 6th, so the overload happens on a flapping pool.
    const pid_t daemonA = spawnMapsd(
        daemonArgs("kill:worker@n=2,kill:worker@n=4,hang:worker@n=6"),
        daemonLog);
    Client client(socket);
    if (!waitForPing(client, 15000)) {
        std::fprintf(stderr, "chaos_service: daemon A never pinged\n");
        ::kill(-daemonA, SIGKILL);
        return 1;
    }

    // 3. The well-behaved tenant submits first and waits through
    // mapsctl's retry loop — its job is the byte-identity acceptance.
    RequestSpec good;
    good.driver = "fig3_reuse_cdf";
    good.args = {"--quick"};
    good.metrics = "off"; // No metrics => this tenant can never degrade.
    good.cellTimeoutSec = cellTimeoutSec;
    good.tenant = "good";
    const std::string goodJobId = good.jobId();

    std::vector<std::string> submitArgs = {
        "submit",           "--driver=" + good.driver,
        "--tenant=good",    "--metrics=" + good.metrics,
        "--retry-budget=20", "--retry-base-ms=200",
        "--retry-jitter=0.25", "--json"};
    if (cellTimeoutSec > 0.0)
        submitArgs.push_back("--cell-timeout=" +
                             std::to_string(cellTimeoutSec));
    submitArgs.insert(submitArgs.end(), {"--", "--quick"});
    const std::string goodOut = workDir + "/good.json";
    const pid_t ctl = spawnMapsctl(mapsctl, socket, submitArgs, goodOut);
    for (int waited = 0; waited < 60000; waited += 100) {
        if (!journalText(stateDir, goodJobId).empty())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    // 4. The greedy tenant floods the queue: eight distinct jobs
    // against a three-deep quota. Every rejection must be an honest
    // shed with a positive retry hint.
    std::vector<std::string> jobIds = {goodJobId};
    std::size_t shedCount = 0;
    bool hintsOk = true, classOk = true, quotaNamed = false;
    for (int k = 0; k < 8; ++k) {
        RequestSpec greedy;
        greedy.driver = "fig3_reuse_cdf";
        greedy.args = {"--quick", "--seed=" + std::to_string(100 + k)};
        greedy.metrics = "full"; // Degradable on purpose.
        greedy.cellTimeoutSec = cellTimeoutSec;
        greedy.tenant = "greedy";
        jobIds.push_back(greedy.jobId());
        Json req = greedy.toJson();
        req.set("v", kProtocolVersion);
        req.set("op", "submit");
        std::string err;
        auto resp = client.rpc(req, err, 10000);
        if (!resp) {
            expect(false, "greedy submit " + std::to_string(k) +
                              " got a response (" + err + ")");
            continue;
        }
        if (!resp->boolean("ok")) {
            ++shedCount;
            if (resp->str("class") != "shed")
                classOk = false;
            if (resp->num("retry_after_ms", 0.0) <= 0.0)
                hintsOk = false;
            if (resp->str("error").find("quota") != std::string::npos)
                quotaNamed = true;
        }
    }
    expect(shedCount >= 1, "greedy flood tripped the queued-job quota (" +
                               std::to_string(shedCount) +
                               "/8 submits shed)");
    expect(classOk, "every greedy rejection was classified shed");
    expect(hintsOk,
           "every shed carried a positive retry_after_ms hint");
    expect(quotaNamed, "a shed named the queued-job quota");

    // 5. Fair-share monitor: across daemon A's lifetime, the restart
    // and daemon B, the greedy tenant must never exceed its one-cell
    // quota (rpc failures during the restart window are ignored).
    std::atomic<bool> monitorStop{false};
    std::atomic<std::size_t> fairnessViolations{0};
    std::atomic<std::uint64_t> greedyPeakCells{0};
    std::thread monitor([&] {
        Client view(socket);
        while (!monitorStop.load()) {
            std::string err;
            if (auto row = tenantRow(view, "greedy", err)) {
                const auto running = static_cast<std::uint64_t>(
                    row->num("running_cells", 0.0));
                if (running > greedyPeakCells.load())
                    greedyPeakCells.store(running);
                if (running > 1)
                    ++fairnessViolations;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    });

    // 6. Wait until the chaos and the overload have both landed: two
    // killed workers in the journals and at least one degraded greedy
    // cell in the tenants view — then SIGKILL the daemon mid-run.
    bool disturbed = false;
    Json tenantsSnapshotA; // Last pre-kill greedy row, for asserts.
    bool snapshotAValid = false;
    for (int waited = 0; waited < 180000; waited += 200) {
        std::uint64_t killed = 0;
        for (const std::string &id : jobIds) {
            std::string state;
            killed += journaledCounters(stateDir, id, state)
                          .workersKilled;
        }
        std::string err;
        if (auto row = tenantRow(client, "greedy", err)) {
            tenantsSnapshotA = *row;
            snapshotAValid = true;
            if (killed >= 2 && row->num("degraded_cells", 0.0) >= 1.0) {
                disturbed = true;
                break;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    expect(disturbed, "journal recorded >=2 kills and the tenants view "
                      ">=1 degraded greedy cell before the daemon "
                      "SIGKILL");
    expect(snapshotAValid &&
               tenantsSnapshotA.num("shed_jobs", 0.0) >=
                   static_cast<double>(shedCount),
           "daemon A's tenants view accounted every observed shed");
    ::kill(-daemonA, SIGKILL);
    int status = 0;
    ::waitpid(daemonA, &status, 0);
    std::printf("info    daemon A SIGKILLed mid-run\n");

    // 7. Daemon B, same state dir, no chaos: journal recovery must
    // restore the greedy backlog into the per-tenant queues (fairness
    // survives the restart, not just the jobs).
    const pid_t daemonB = spawnMapsd(daemonArgs(""), daemonLog);
    if (!waitForPing(client, 15000)) {
        std::fprintf(stderr, "chaos_service: daemon B never pinged\n");
        monitorStop.store(true);
        monitor.join();
        ::kill(-daemonB, SIGKILL);
        ::kill(ctl, SIGKILL);
        ::waitpid(ctl, &status, 0);
        return 1;
    }
    bool backlogRestored = false;
    for (int waited = 0; waited < 60000; waited += 100) {
        std::string err;
        if (auto row = tenantRow(client, "greedy", err)) {
            if (row->num("queued_jobs", 0.0) +
                    row->num("active_jobs", 0.0) >=
                1.0) {
                backlogRestored = true;
                break;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    expect(backlogRestored, "journal recovery restored the greedy "
                            "backlog into the per-tenant queues");

    // 8. SIGHUP reload, end to end: bump greedy's weight in the config
    // file and watch the live tenants view pick it up.
    if (!atomicWriteFile(
            tenantsConf,
            "tenant good weight=3 priority=normal max_queued=8 "
            "max_cells=3\n"
            "tenant greedy weight=5 priority=low max_queued=3 "
            "max_cells=1\n"
            "default weight=1 priority=normal\n",
            confErr)) {
        std::fprintf(stderr, "chaos_service: %s\n", confErr.c_str());
    }
    ::kill(daemonB, SIGHUP);
    bool reloaded = false;
    for (int waited = 0; waited < 20000; waited += 100) {
        std::string err;
        if (auto row = tenantRow(client, "greedy", err)) {
            if (row->num("weight", 0.0) == 5.0) {
                reloaded = true;
                break;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    expect(reloaded,
           "SIGHUP reloaded the tenants config live (greedy weight 5)");

    // 9. The good tenant's job must finish byte-identical through the
    // flood, the kills and the restart.
    std::string goodJson, parseErr;
    const int ctlExit = reapMapsctl(ctl, goodOut, goodJson);
    monitorStop.store(true);
    monitor.join();
    expect(ctlExit == 0, "good tenant's mapsctl submit exited 0 through "
                         "the retries (exit " +
                             std::to_string(ctlExit) + ")");
    const std::optional<Json> final = Json::parse(goodJson, parseErr);
    expect(final.has_value() && final->str("v") == kProtocolVersion &&
               final->str("job") == goodJobId,
           "mapsctl submit --json printed the good job's maps-svc-v1 "
           "response" +
               (parseErr.empty() ? "" : " (" + parseErr + ")"));
    std::string state, result;
    JobCounters counters;
    if (final) {
        state = final->str("state");
        if (const Json *res = final->get("resilience"))
            counters.fromJson(*res);
        if (const Json *r = final->get("result"); r && r->isString())
            result = r->asString();
    }
    expect(state == "done",
           "good job finished done (state=" + state + ")");
    expect(final && final->boolean("ok") && final->str("tenant") == "good",
           "good job's response is ok and names tenant good");
    expect(!refBytes.empty() && result == refBytes,
           "good tenant's result is byte-identical to the undisturbed "
           "run (" +
               std::to_string(result.size()) + " vs " +
               std::to_string(refBytes.size()) + " bytes)");
    expect(counters.daemonRestarts >= 1,
           "counters: daemon_restarts >= 1 (got " +
               std::to_string(counters.daemonRestarts) + ")");
    expect(fairnessViolations.load() == 0,
           "greedy tenant never exceeded its one-cell quota (peak " +
               std::to_string(greedyPeakCells.load()) + ")");

    // 10. Degradation ordering: only the low-priority tenant was ever
    // degraded, on both daemons.
    {
        std::string err;
        auto goodRow = tenantRow(client, "good", err);
        expect(goodRow.has_value() &&
                   goodRow->num("degraded_cells", 0.0) == 0.0,
               "good tenant was never degraded on daemon B");
        expect(snapshotAValid &&
                   tenantsSnapshotA.num("degraded_cells", 0.0) >= 1.0,
               "greedy tenant was degraded on daemon A before the "
               "kill");
    }
    {
        std::string out, err;
        expect(runMapsctl(mapsctl, socket, {"ping"},
                          workDir + "/ping.json", out) == 0 &&
                   isPong(Json::parse(out, err)),
               "mapsctl ping exits 0 and prints a maps-svc-v1 pong");
        expect(runMapsctl(mapsctl, socket,
                          {"submit", "--driver=fig3_reuse_cdf",
                           "--retries=x"},
                          workDir + "/bad.json", out) == 2 &&
                   runMapsctl(mapsctl, socket,
                              {"submit", "--driver=fig3_reuse_cdf",
                               "--retry-jitter=1.5"},
                              workDir + "/bad.json", out) == 2,
               "mapsctl exits 2 on a bad --retries or --retry-jitter");
    }
    {
        std::string out, err;
        const int statusExit =
            runMapsctl(mapsctl, socket, {"status", "--tenants"},
                       workDir + "/tenants.json", out);
        expect(statusExit == 0, "mapsctl status --tenants exits 0");
        const std::optional<Json> resp = Json::parse(out, err);
        expect(resp.has_value() &&
                   resp->str("schema") == "maps-tenants-v1",
               "mapsctl status --tenants prints schema maps-tenants-v1");
        const Json *defaults = resp ? resp->get("defaults") : nullptr;
        const Json *rows = resp ? resp->get("tenants") : nullptr;
        std::size_t goodRows = 0;
        bool rowsComplete = rows != nullptr && rows->isArray() &&
                            !rows->items().empty();
        for (const Json &row : rowsComplete ? rows->items()
                                            : std::vector<Json>{}) {
            goodRows += row.str("tenant") == "good";
            rowsComplete =
                rowsComplete &&
                hasKeys(row, {"weight", "priority", "queued_jobs",
                              "active_jobs", "running_cells", "submitted",
                              "admitted", "shed_jobs", "degraded_cells",
                              "stolen_cells", "completed_jobs"});
        }
        expect(resp && resp->str("v") == kProtocolVersion &&
                   resp->boolean("ok") && hasKeys(*resp, {"config"}) &&
                   defaults != nullptr &&
                   hasKeys(*defaults, {"weight", "priority",
                                       "max_queued_jobs", "max_cells"}),
               "tenants view carries version, ok, config and the "
               "default class's weight, priority and quotas");
        expect(goodRows == 1, "tenants view has exactly one good row");
        expect(rowsComplete,
               "every tenants row carries its class, queue, cell and "
               "shed/degrade/steal/completion counters");
    }

    // Drain daemon B politely; escalate if the greedy backlog lingers.
    drain(daemonB);

    if (!keep && g_failures == 0) {
        std::error_code ec;
        fs::remove_all(workDir, ec);
    } else {
        std::printf("info    artifacts kept in %s\n", workDir.c_str());
    }
    std::printf("%s (%d failure%s)\n",
                g_failures == 0 ? "chaos_service: PASS"
                                : "chaos_service: FAIL",
                g_failures, g_failures == 1 ? "" : "s");
    return g_failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mapsd, driversDir, workDir;
    double cellTimeoutSec = 5.0;
    std::string mapsctl;
    bool keep = false;
    bool distributed = false;
    bool multitenant = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--mapsd=", 0) == 0)
            mapsd = arg.substr(8);
        else if (arg.rfind("--mapsctl=", 0) == 0)
            mapsctl = arg.substr(10);
        else if (arg.rfind("--drivers-dir=", 0) == 0)
            driversDir = arg.substr(14);
        else if (arg.rfind("--work-dir=", 0) == 0)
            workDir = arg.substr(11);
        else if (arg.rfind("--cell-timeout=", 0) == 0)
            cellTimeoutSec = std::atof(arg.substr(15).c_str());
        else if (arg == "--distributed")
            distributed = true;
        else if (arg == "--multitenant")
            multitenant = true;
        else if (arg == "--keep")
            keep = true;
        else {
            std::fprintf(stderr, "chaos_service: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (mapsd.empty() || driversDir.empty() ||
        (multitenant && mapsctl.empty())) {
        std::fprintf(stderr, "usage: chaos_service --mapsd=PATH "
                             "--drivers-dir=DIR [--work-dir=DIR] "
                             "[--cell-timeout=SECS] [--distributed] "
                             "[--multitenant --mapsctl=PATH] [--keep]\n");
        return 2;
    }
    if (workDir.empty()) {
        char tmpl[] = "/tmp/maps-chaos-XXXXXX";
        const char *made = ::mkdtemp(tmpl);
        if (made == nullptr) {
            std::fprintf(stderr, "chaos_service: mkdtemp failed\n");
            return 1;
        }
        workDir = made;
    }
    {
        std::error_code ec;
        fs::create_directories(workDir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "chaos_service: cannot create work dir '%s': "
                         "%s\n",
                         workDir.c_str(), ec.message().c_str());
            return 1;
        }
    }
    if (distributed)
        return runDistributed(mapsd, driversDir, workDir, cellTimeoutSec,
                              keep);
    if (multitenant)
        return runMultitenant(mapsd, mapsctl, driversDir, workDir,
                              cellTimeoutSec, keep);
    const std::string socket = workDir + "/mapsd.sock";
    const std::string stateDir = workDir + "/state";
    const std::string daemonLog = workDir + "/mapsd.log";

    // 1. Reference bytes from an undisturbed direct run.
    std::string refBytes;
    if (!referenceBytes(driversDir, workDir, refBytes))
        return 1;

    // 2. Daemon A with deterministic chaos: the first three cell
    // spawns are SIGKILLed, the next two SIGSTOPped (the hard deadline
    // reaps them), and the two spawns after that SIGKILLed again —
    // five killed workers and two hung cells before any cell of the
    // sweep has managed a clean first attempt.
    const std::string chaos =
        "kill:worker@n=1,kill:worker@n=2,kill:worker@n=3,"
        "hang:worker@n=4,hang:worker@n=5,"
        "kill:worker@n=6,kill:worker@n=7";
    const pid_t daemonA = spawnDaemon(mapsd, socket, stateDir,
                                      driversDir, chaos, daemonLog);
    Client client(socket);
    if (!waitForPing(client, 10000)) {
        std::fprintf(stderr, "chaos_service: daemon A never pinged\n");
        ::kill(-daemonA, SIGKILL);
        return 1;
    }
    expect(validPong(client),
           "daemon A answers a maps-svc-v1 pong with pid and workers");

    RequestSpec spec;
    spec.driver = "fig3_reuse_cdf";
    spec.args = {"--quick"};
    spec.metrics = "off";
    spec.cellTimeoutSec = cellTimeoutSec;
    const std::string jobId = spec.jobId();

    RetryPolicy policy;
    policy.budget = 12;
    policy.baseMs = 200;
    policy.capMs = 2000;

    std::optional<Json> final;
    std::string clientErr;
    std::thread ctl([&] {
        final = client.submitAndWait(spec, policy, clientErr, stderr);
    });

    // 3. Wait for the journal to show every injected disturbance has
    // landed, then SIGKILL the daemon's whole process group mid-sweep.
    bool disturbed = false;
    for (int waited = 0; waited < 180000; waited += 100) {
        std::string state;
        const JobCounters c = journaledCounters(stateDir, jobId, state);
        if (c.workersKilled >= 5 && c.hungCells >= 2) {
            disturbed = true;
            break;
        }
        if (state == "done")
            break; // Too late — the asserts below will say so.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    expect(disturbed, "journal recorded >=5 kills and >=2 hangs before "
                      "the daemon SIGKILL");
    ::kill(-daemonA, SIGKILL);
    int status = 0;
    ::waitpid(daemonA, &status, 0);
    std::printf("info    daemon A SIGKILLed mid-sweep\n");

    // 4. Fresh daemon, same state dir: journal recovery re-queues the
    // job; the client's retry loop reconnects on its own.
    const pid_t daemonB = spawnDaemon(mapsd, socket, stateDir,
                                      driversDir, "", daemonLog);
    ctl.join();

    // 5. The final stream must be byte-identical to the reference.
    expect(final.has_value(),
           "client completed through retries (" + clientErr + ")");
    std::string state, result;
    JobCounters counters;
    if (final) {
        state = final->str("state");
        if (const Json *res = final->get("resilience"))
            counters.fromJson(*res);
        if (const Json *r = final->get("result"); r && r->isString())
            result = r->asString();
    }
    expect(state == "done", "job finished done (state=" + state + ")");
    expect(!refBytes.empty() && result == refBytes,
           "result is byte-identical to the undisturbed run (" +
               std::to_string(result.size()) + " vs " +
               std::to_string(refBytes.size()) + " bytes)");
    expect(final && validFinal(*final, {"workers_killed", "hung_cells",
                                        "requeued_cells",
                                        "downgraded_cells", "rounds"}),
           "final response is a maps-svc-v1 envelope with class none, "
           "the single-host resilience keys and a result");
    expect(counters.workersKilled >= 5,
           "counters: workers_killed >= 5 (got " +
               std::to_string(counters.workersKilled) + ")");
    expect(counters.hungCells >= 2,
           "counters: hung_cells >= 2 (got " +
               std::to_string(counters.hungCells) + ")");
    expect(counters.daemonRestarts >= 1,
           "counters: daemon_restarts >= 1 (got " +
               std::to_string(counters.daemonRestarts) + ")");
    expect(counters.requeuedCells >= 1,
           "counters: transiently failed cells were re-queued");

    expect(drain(daemonB), "daemon B drained on SIGTERM within 30 s");

    if (!keep && g_failures == 0) {
        std::error_code ec;
        fs::remove_all(workDir, ec);
    } else {
        std::printf("info    artifacts kept in %s\n", workDir.c_str());
    }
    std::printf("%s (%d failure%s)\n",
                g_failures == 0 ? "chaos_service: PASS"
                                : "chaos_service: FAIL",
                g_failures, g_failures == 1 ? "" : "s");
    return g_failures == 0 ? 0 : 1;
}
