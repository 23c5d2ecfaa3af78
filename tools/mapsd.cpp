/**
 * @file
 * mapsd — the maps experiment daemon.
 *
 * Serves maps-svc-v1 on a UNIX socket: accepts experiment requests for
 * any fig/tab/abl driver, runs their cells out of process on a shared
 * worker pool with per-request deadlines, journals every job-state
 * transition, and survives SIGKILL by resuming unfinished jobs from the
 * journal and the drivers' --resume checkpoints. SIGTERM drains: no new
 * admissions, running jobs finish, queued ones stay journaled.
 *
 *   mapsd --socket=/tmp/mapsd.sock --state-dir=/tmp/mapsd \
 *         --drivers-dir=build/bench [--workers=4] [--queue-max=16]
 *         [--max-active-jobs=2] [--degrade-depth=32]
 *         [--cell-timeout=SECS] [--chaos=kill:worker@n=3,...]
 *
 * Multi-node: `--listen-tcp=HOST:PORT` additionally serves maps-svc-v1
 * over TCP (port 0 picks a free port, published to
 * `<state-dir>/tcp.port`), turning the daemon into a remote worker.
 * `--coordinator --workers=HOST:PORT,...` shards every job's cells
 * across those workers with health probing, leases, work stealing and
 * retry/backoff; the local pool remains the fallback when all workers
 * are unreachable.
 *
 * See docs/SERVICE.md for the protocol and the robustness model.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "service/service.hpp"
#include "service/tcp.hpp"

namespace {

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: mapsd --socket=PATH --state-dir=DIR --drivers-dir=DIR\n"
        "             [--workers=N] [--queue-max=N]\n"
        "             [--max-active-jobs=N] [--degrade-depth=N]\n"
        "             [--cell-timeout=SECS] [--chaos=SPEC]\n"
        "             [--listen-tcp=HOST:PORT]\n"
        "             [--coordinator --workers=HOST:PORT,...]\n"
        "             [--steal-after-ms=N] [--tenants=FILE]\n"
        "             [--auth-token=TOKEN]\n"
        "\n"
        "  --socket=PATH          UNIX socket to serve maps-svc-v1 on\n"
        "  --state-dir=DIR        journal, checkpoints, logs, results\n"
        "  --drivers-dir=DIR      directory with the driver binaries\n"
        "  --workers=N            cell worker pool size (default 4);\n"
        "                         with --coordinator, a comma list of\n"
        "                         remote worker HOST:PORT endpoints\n"
        "  --queue-max=N          shed submits beyond N queued jobs\n"
        "  --max-active-jobs=N    concurrent jobs (default 2)\n"
        "  --degrade-depth=N      cell-queue depth that downgrades\n"
        "                         --metrics=full cells to summary\n"
        "  --cell-timeout=SECS    default per-cell budget when the\n"
        "                         request does not set one\n"
        "  --chaos=SPEC           deterministic fault injection, e.g.\n"
        "                         kill:worker@n=3,drop:conn@n=2,\n"
        "                         kill:coordinator@n=1 (after the\n"
        "                         1st steal)\n"
        "  --listen-tcp=HOST:PORT also serve maps-svc-v1 over TCP\n"
        "                         (port 0 = pick one; bound address is\n"
        "                         published to <state-dir>/tcp.port)\n"
        "  --coordinator          shard jobs across the --workers list\n"
        "  --steal-after-ms=N     lease age before an idle worker may\n"
        "                         steal a straggling cell (default\n"
        "                         5000)\n"
        "  --tenants=FILE         multi-tenant scheduling config\n"
        "                         (weights, priorities, quotas);\n"
        "                         SIGHUP reloads it live\n"
        "  --auth-token=TOKEN     require this maps-auth-v1 preamble\n"
        "                         on every TCP connection (the unix\n"
        "                         socket stays open); defaults to\n"
        "                         $MAPSD_AUTH_TOKEN when unset\n"
        "\n"
        "Each option may be given at most once; repeats are errors.\n");
}

bool
parseCount(const std::string &value, std::size_t &out)
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(value);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    maps::service::ServiceConfig cfg;
    bool coordinator = false;
    bool authTokenGiven = false;
    std::string workersValue;
    bool workersGiven = false;
    std::vector<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        }
        const std::string key = arg.substr(0, arg.find('='));
        for (const auto &s : seen) {
            if (s == key) {
                std::fprintf(stderr,
                             "mapsd: duplicate option %s (%s was "
                             "already given)\n",
                             arg.c_str(), key.c_str());
                return 2;
            }
        }
        seen.push_back(key);
        const std::string value =
            arg.find('=') == std::string::npos
                ? ""
                : arg.substr(arg.find('=') + 1);
        std::size_t count = 0;
        if (arg.rfind("--socket=", 0) == 0) {
            cfg.socketPath = value;
        } else if (arg.rfind("--state-dir=", 0) == 0) {
            cfg.stateDir = value;
        } else if (arg.rfind("--drivers-dir=", 0) == 0) {
            cfg.driversDir = value;
        } else if (arg.rfind("--workers=", 0) == 0) {
            // Meaning depends on --coordinator (which may come later
            // on the command line); resolved after the parse loop.
            workersValue = value;
            workersGiven = true;
        } else if (arg == "--coordinator") {
            coordinator = true;
        } else if (arg.rfind("--listen-tcp=", 0) == 0) {
            cfg.tcpListen = value;
        } else if (arg.rfind("--steal-after-ms=", 0) == 0 &&
                   parseCount(value, count) && count > 0) {
            cfg.stealAfterMs = static_cast<double>(count);
        } else if (arg.rfind("--queue-max=", 0) == 0 &&
                   parseCount(value, count) && count > 0) {
            cfg.queueMax = count;
        } else if (arg.rfind("--max-active-jobs=", 0) == 0 &&
                   parseCount(value, count) && count > 0) {
            cfg.maxActiveJobs = count;
        } else if (arg.rfind("--degrade-depth=", 0) == 0 &&
                   parseCount(value, count) && count > 0) {
            cfg.degradeDepth = count;
        } else if (arg.rfind("--cell-timeout=", 0) == 0) {
            char *end = nullptr;
            cfg.defaultCellTimeoutSec = std::strtod(value.c_str(), &end);
            if (end != value.c_str() + value.size() ||
                cfg.defaultCellTimeoutSec < 0.0) {
                std::fprintf(stderr, "mapsd: bad --cell-timeout '%s'\n",
                             value.c_str());
                return 2;
            }
        } else if (arg.rfind("--chaos=", 0) == 0) {
            cfg.chaosSpec = value;
        } else if (arg.rfind("--tenants=", 0) == 0) {
            cfg.tenantsPath = value;
        } else if (arg.rfind("--auth-token=", 0) == 0) {
            cfg.authToken = value;
            authTokenGiven = true;
        } else {
            std::fprintf(stderr, "mapsd: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }
    if (!authTokenGiven) {
        if (const char *env = std::getenv("MAPSD_AUTH_TOKEN"))
            cfg.authToken = env;
    }
    if (cfg.socketPath.empty() || cfg.stateDir.empty() ||
        cfg.driversDir.empty()) {
        std::fprintf(stderr, "mapsd: --socket, --state-dir and "
                             "--drivers-dir are required\n");
        usage(stderr);
        return 2;
    }
    if (coordinator) {
        if (!workersGiven || workersValue.empty()) {
            std::fprintf(stderr, "mapsd: --coordinator needs "
                                 "--workers=HOST:PORT,...\n");
            return 2;
        }
        std::string item;
        for (std::size_t pos = 0; pos <= workersValue.size();) {
            const std::size_t comma = workersValue.find(',', pos);
            item = workersValue.substr(
                pos, comma == std::string::npos ? std::string::npos
                                                : comma - pos);
            std::string host, perr;
            std::uint16_t port = 0;
            if (!maps::service::parseHostPort(item, host, port, perr)) {
                std::fprintf(stderr, "mapsd: bad --workers entry: %s\n",
                             perr.c_str());
                return 2;
            }
            cfg.workerAddrs.push_back(item);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    } else if (workersGiven) {
        std::size_t count = 0;
        if (!parseCount(workersValue, count) || count == 0) {
            std::fprintf(stderr,
                         "mapsd: bad --workers '%s' (a HOST:PORT list "
                         "needs --coordinator)\n",
                         workersValue.c_str());
            return 2;
        }
        cfg.workers = static_cast<unsigned>(count);
    }
    maps::service::Service service(cfg);
    std::string err;
    const int code = service.run(err);
    if (!err.empty())
        std::fprintf(stderr, "mapsd: %s\n", err.c_str());
    return code;
}
