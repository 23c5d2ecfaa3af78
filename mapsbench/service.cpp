/**
 * @file
 * mapsd_jobs: a closed loop of two client threads against a fresh mapsd.
 *
 * Each round, every client submits four distinct jobs back to back —
 * three one-cell tab1_configuration jobs and one six-cell
 * fig3_reuse_cdf job — and the round ends when both clients are done.
 * Every job carries its own --seed, so its content-hash id is new and
 * no submit attaches to an earlier job. Latency runs from the first
 * submit RPC to the wait RPC that returns the result.
 */
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "service/client.hpp"
#include "service/wire.hpp"

using namespace maps;
using maps::service::Json;

namespace mapsbench {

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kJobsPerClient = 4;
/** Shed or transport retries a job may spend before it counts failed. */
constexpr int kRetryBudget = 5;

/** fork + exec with stdout/stderr to @p log (or a pipe when null). */
pid_t
spawn(const std::vector<std::string> &argv, const std::string &log,
      int *stdout_pipe = nullptr)
{
    int fds[2] = {-1, -1};
    if (stdout_pipe && ::pipe(fds) != 0)
        return -1;
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int out = stdout_pipe
                            ? fds[1]
                            : ::open(log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
        const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                               0644);
        if (out < 0 || err < 0)
            ::_exit(127);
        ::dup2(out, STDOUT_FILENO);
        ::dup2(err, STDERR_FILENO);
        if (stdout_pipe)
            ::close(fds[0]);
        std::vector<char *> args;
        for (const auto &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    if (stdout_pipe) {
        ::close(fds[1]);
        if (pid < 0)
            ::close(fds[0]);
        else
            *stdout_pipe = fds[0];
    }
    return pid;
}

int
reap(pid_t pid)
{
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
}

Json
rpcDoc(const char *op)
{
    Json doc = Json::object();
    doc.set("v", service::kProtocolVersion);
    doc.set("op", op);
    return doc;
}

} // namespace

MapsdJobs::MapsdJobs(std::string bin_dir, std::string work_dir,
                     std::uint64_t seed)
    : binDir_(std::move(bin_dir)), workDir_(std::move(work_dir)),
      seed_(seed)
{
}

MapsdJobs::~MapsdJobs() { stop(); }

void
MapsdJobs::stopDaemon()
{
    if (pid_ <= 0)
        return;
    // SIGTERM drains: no new admissions, running jobs finish.
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 2000; ++i) {
        int status = 0;
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno != EINTR)) {
            pid_ = -1;
            return;
        }
        ::usleep(5'000);
    }
    ::kill(pid_, SIGKILL);
    reap(pid_);
    pid_ = -1;
}

std::vector<std::int64_t>
MapsdJobs::start(unsigned starts, std::string &err)
{
    std::vector<std::int64_t> times;
    for (unsigned n = 0; n < starts; ++n) {
        stopDaemon();
        // A fresh state dir every start: no journal, checkpoint,
        // ckcache or finished job carries over.
        const std::string dir = workDir_ + "/mapsd" + std::to_string(n);
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir, ec);
        socket_ = dir + "/sock";
        const std::int64_t t0 = nowNs();
        pid_ = spawn({binDir_ + "/mapsd", "--socket=" + socket_,
                      "--state-dir=" + dir + "/state",
                      "--drivers-dir=" + binDir_, "--workers=2"},
                     dir + "/mapsd.log");
        if (pid_ < 0) {
            err = "cannot start mapsd";
            return {};
        }
        service::Client client(socket_);
        for (;;) {
            std::string rpc_err;
            const auto pong = client.rpc(rpcDoc("ping"), rpc_err, 1000);
            if (pong && pong->boolean("ok"))
                break;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_ ||
                nowNs() - t0 > 20'000'000'000) {
                err = "mapsd did not answer ping: " + rpc_err;
                return {};
            }
            ::usleep(100);
        }
        times.push_back(nowNs() - t0);
    }
    return times;
}

service::RequestSpec
MapsdJobs::specFor(std::uint64_t job) const
{
    service::RequestSpec spec;
    const std::string seed =
        "--seed=" + std::to_string(seed_ * 1'000'000 + job);
    if (job % kJobsPerClient == kJobsPerClient - 1) {
        spec.driver = "fig3_reuse_cdf";
        spec.args = {"--scale=0.02", seed};
    } else {
        spec.driver = "tab1_configuration";
        spec.args = {"--quick", seed};
    }
    return spec;
}

std::string
MapsdJobs::specId(const service::RequestSpec &spec)
{
    std::string id = spec.driver;
    for (const auto &a : spec.args)
        id += " " + a;
    return id;
}

OpResult
MapsdJobs::runJob(std::uint64_t job, bool traced, std::string &result)
{
    const service::RequestSpec spec = specFor(job);
    OpResult out;
    out.id = specId(spec);
    out.spans = SpanLog(traced, out.id);
    const int root = out.spans.open("service.job");
    LayerStats &s = out.layers;
    service::Client client(socket_);
    const std::int64_t t0 = nowNs();

    Json submit = spec.toJson();
    submit.set("v", service::kProtocolVersion);
    submit.set("op", "submit");
    std::string job_id, err;
    int retries = 0;
    while (job_id.empty()) {
        const auto resp = client.rpc(submit, err, 30000);
        if (resp && resp->boolean("ok")) {
            job_id = resp->str("job");
            break;
        }
        const bool shed = resp && resp->str("class") == "shed";
        if (resp && !shed) {
            out.error = "submit rejected: " + resp->str("error");
            break;
        }
        s["service.sheds"] += shed ? 1 : 0;
        if (++retries > kRetryBudget) {
            out.error = "submit retry budget exhausted: " +
                        (resp ? resp->str("error") : err);
            break;
        }
        const double hint = resp ? resp->num("retry_after_ms", 50.0) : 50.0;
        ::usleep(static_cast<useconds_t>(hint * 1000.0));
    }
    const std::int64_t t1 = nowNs();
    out.spans.add("service.submit", t0, t1, root);

    Json wait = rpcDoc("wait");
    wait.set("job", job_id);
    wait.set("timeout_ms", 60000);
    while (!job_id.empty()) {
        const auto status = client.rpc(wait, err, 90000);
        if (!status || !status->boolean("ok")) {
            if (++retries > kRetryBudget) {
                out.error = "wait failed: " +
                            (status ? status->str("error") : err);
                break;
            }
            continue;
        }
        const std::string state = status->str("state");
        if (state == "failed") {
            out.error = "job failed: " + status->str("error");
            break;
        }
        if (state != "done")
            continue;
        result = status->str("result");
        out.digest = Digest().add(result).hex();
        if (const Json *r = status->get("resilience")) {
            s["service.cell_wall_ms"] += r->num("cell_wall_ms");
            s["service.cells_run"] += r->num("cells_run");
            s["service.rounds"] += r->num("rounds");
        }
        break;
    }
    const std::int64_t t2 = nowNs();
    out.spans.add("service.wait", t1, t2, root);
    out.spans.close(root);
    out.ns = t2 - t0;
    s["service.jobs"] += 1;
    s["service.retries"] += retries;
    s["service.admit_ns"] += static_cast<double>(t1 - t0);
    s["service.wait_ns"] += static_cast<double>(t2 - t1);
    return out;
}

Round
MapsdJobs::round(bool traced)
{
    Round r;
    r.ops.resize(kClients * kJobsPerClient);
    const std::uint64_t first = nextJob_;
    nextJob_ += r.ops.size();
    std::string last_fig3[kClients];
    const std::int64_t t0 = nowNs();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (unsigned j = 0; j < kJobsPerClient; ++j) {
                const std::uint64_t job = first + c * kJobsPerClient + j;
                OpResult &slot = r.ops[c * kJobsPerClient + j];
                std::string result;
                try {
                    slot = runJob(job, traced, result);
                } catch (const std::exception &e) {
                    slot.error = e.what();
                }
                if (specFor(job).driver == "fig3_reuse_cdf")
                    last_fig3[c] = std::move(result);
            }
        });
    }
    for (auto &t : clients)
        t.join();
    r.wallNs = nowNs() - t0;
    lastFig3Job_ = first + kJobsPerClient - 1;
    lastFig3Output_ = last_fig3[0];
    return r;
}

std::string
MapsdJobs::crossCheck()
{
    if (lastFig3Output_.empty())
        return "no fig3 job completed";
    const service::RequestSpec spec = specFor(lastFig3Job_);
    std::vector<std::string> argv{binDir_ + "/" + spec.driver};
    argv.insert(argv.end(), spec.args.begin(), spec.args.end());
    argv.push_back("--jobs=1");
    argv.push_back("--no-progress");
    int fd = -1;
    const pid_t pid = spawn(argv, workDir_ + "/direct.log", &fd);
    if (pid < 0)
        return "cannot run " + spec.driver;
    std::string direct;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0)
            direct.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    ::close(fd);
    const int status = reap(pid);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return spec.driver + " exited abnormally";
    return direct == lastFig3Output_
               ? ""
               : "mapsd result differs from a direct " + specId(spec) +
                     " run";
}

long
MapsdJobs::stop()
{
    stopDaemon();
    rusage ru{};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return ru.ru_maxrss;
}

} // namespace mapsbench
