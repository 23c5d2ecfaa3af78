/**
 * @file
 * Shared pieces of the MAPS benchmark harness: host clocks, output
 * digests, per-operation results and the span log of the traced run.
 *
 * Every time here is host time (std::chrono::steady_clock). Simulated
 * statistics only ever enter an operation's digest, never a metric.
 */
#ifndef MAPSBENCH_BENCH_HPP
#define MAPSBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "metrics/metrics.hpp"
#include "service/service.hpp"

namespace mapsbench {

/** Host nanoseconds on the monotonic clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** FNV-1a over everything an operation must reproduce bit for bit. */
class Digest
{
  public:
    Digest &bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
        return *this;
    }
    Digest &add(std::uint64_t v) { return bytes(&v, sizeof v); }
    Digest &add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return add(bits);
    }
    Digest &add(std::string_view s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        return bytes(s.data(), s.size());
    }
    /** Every counter total and histogram bucket of a registry export. */
    Digest &add(const maps::metrics::Registry::Export &ex);

    std::string hex() const;

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/**
 * Named per-layer quantities of one operation (host nanoseconds, call
 * and work counts). Summed across operations; a layer that an operation
 * never calls simply has no entry.
 */
using LayerStats = std::map<std::string, double>;

inline void
mergeInto(LayerStats &into, const LayerStats &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

/** One span: a timed call across a module boundary. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the causing span in the same log; -1 for an op root. */
    int parent = -1;
    /** Operation (cell or job) the span belongs to. */
    std::string op;
    /** Per-batch totals of nested per-call layer time and counts. */
    std::vector<std::pair<std::string, double>> args;
};

/**
 * Spans of one operation, kept in memory and written out once at the
 * end of the run. Operations run on several runner threads, each with
 * its own log; the run merges them afterwards.
 */
class SpanLog
{
  public:
    /** Disabled logs record nothing (the untraced run). */
    explicit SpanLog(bool enabled = false, std::string op = "")
        : enabled_(enabled), op_(std::move(op))
    {
    }

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its index (or -1 when off). */
    int add(std::string name, std::int64_t start, std::int64_t end,
            int parent,
            std::vector<std::pair<std::string, double>> args = {})
    {
        if (!enabled_)
            return -1;
        spans_.push_back({std::move(name), start, end, parent, op_,
                          std::move(args)});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Reserve the root span now; close() fills in its end time. */
    int open(std::string name, int parent = -1)
    {
        const std::int64_t t = nowNs();
        return add(std::move(name), t, t, parent);
    }
    void close(int index)
    {
        if (index >= 0)
            spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Append @p other's spans, re-basing their parent indices. */
    void append(const SpanLog &other);

  private:
    bool enabled_;
    std::string op_;
    std::vector<Span> spans_;
};

/** Everything one operation (a runner cell or a mapsd job) produced. */
struct OpResult
{
    std::string id;
    /** Hex digest of the operation's deterministic outputs. */
    std::string digest;
    std::string error;
    /** Host time of the whole operation. */
    std::int64_t ns = 0;
    /** Host time spent constructing components before first use. */
    std::int64_t setupNs = 0;
    /** Simulated references (warmup + measure) the op drove. */
    std::uint64_t simRefs = 0;
    LayerStats layers;
    SpanLog spans;
};

/** One schedulable operation of an in-process workload. */
struct Op
{
    std::string id;
    std::function<void(OpResult &)> run;
    /**
     * Optional: construct the op's components once, untimed work
     * aside, and return the construction's host nanoseconds. Workloads
     * whose ops all define it measure set-up in a quiet single-threaded
     * pass before the rounds instead of inside them.
     */
    std::function<std::int64_t()> setup;
};

/** How the workload's operations should be built for one round. */
struct OpConfig
{
    std::uint64_t seed = 1;
    /** Traced implementation: composed pipeline with timed seams. */
    bool traced = false;
    /** Self-test: perturb one cell's configuration. */
    bool perturb = false;
};

/** One round: the workload's fixed work, run once. */
struct Round
{
    std::int64_t wallNs = 0;
    std::vector<OpResult> ops;
};

/// @name In-process workload definitions
/// @{
std::vector<Op> simReadOps(const OpConfig &cfg);
std::vector<Op> simWriteOps(const OpConfig &cfg);
std::vector<Op> analysisOps(const OpConfig &cfg);
/// @}

/**
 * The mapsd_jobs workload: a mapsd daemon started from @p bin_dir with
 * its state under @p work_dir, and the closed client loop against it.
 */
class MapsdJobs
{
  public:
    MapsdJobs(std::string bin_dir, std::string work_dir,
              std::uint64_t seed);
    /** Drains and reaps the daemon if stop() was not called. */
    ~MapsdJobs();
    MapsdJobs(const MapsdJobs &) = delete;
    MapsdJobs &operator=(const MapsdJobs &) = delete;

    /**
     * Start the daemon @p starts times, each on a fresh state dir, and
     * keep the last one running. Returns each start-to-first-ping time;
     * empty with @p err set on failure.
     */
    std::vector<std::int64_t> start(unsigned starts, std::string &err);

    /** Two clients, four distinct jobs each, back to back. */
    Round round(bool traced);

    /**
     * Run the last round's first fig3 job directly through its driver
     * binary; "" when the bytes equal mapsd's result, else the problem.
     */
    std::string crossCheck();

    /**
     * SIGTERM (drain) and reap the daemon. Returns the peak resident
     * set in KiB over the daemon and every child it reaped.
     */
    long stop();

  private:
    std::string binDir_;
    std::string workDir_;
    std::uint64_t seed_;
    std::string socket_;
    pid_t pid_ = -1;
    std::uint64_t nextJob_ = 0;
    std::uint64_t lastFig3Job_ = 0;
    std::string lastFig3Output_;

    maps::service::RequestSpec specFor(std::uint64_t job) const;
    static std::string specId(const maps::service::RequestSpec &spec);
    OpResult runJob(std::uint64_t job, bool traced, std::string &result);
    void stopDaemon();
};

/** Write a maps-trace-v1 (chrome://tracing) file of @p spans. */
bool writeTrace(const std::string &path, const std::string &workload,
                const SpanLog &spans, std::uint64_t dropped);

} // namespace mapsbench

#endif // MAPSBENCH_BENCH_HPP
