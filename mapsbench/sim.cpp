/**
 * @file
 * sim_read and sim_write: exact-tier full simulations.
 *
 * Untraced, each cell is one SecureMemorySim construction plus run().
 * Traced, the same cell is composed from the public components —
 * generator -> CacheHierarchy request sink ->
 * SecureMemoryController::handleRequest -> a timing MemoryModel
 * decorator around DramModel — with a clock read at each seam, and its
 * registry totals must equal the untraced run's (same digest).
 */
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "core/simulator.hpp"
#include "mem/dram.hpp"
#include "workloads/suite.hpp"

using namespace maps;

namespace mapsbench {

namespace {

/** Per-call time and count, folded into per-batch span totals. */
struct Meter
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
};

/**
 * MemoryModel decorator: times every DRAM block transfer. Name and
 * statistics are the wrapped model's, so the registry sees "dram.*"
 * exactly as SecureMemorySim registers it.
 */
class TimedMemory final : public MemoryModel
{
  public:
    TimedMemory(MemoryModel &inner, Meter &meter)
        : inner_(inner), meter_(meter)
    {
    }

    MemAccessResult access(Addr addr, bool write, Cycles now) override
    {
        const std::int64_t t0 = nowNs();
        const MemAccessResult r = inner_.access(addr, write, now);
        meter_.ns += nowNs() - t0;
        ++meter_.calls;
        return r;
    }
    const MemoryStats &stats() const override { return inner_.stats(); }
    MemoryStats &statsMut() override { return inner_.statsMut(); }
    std::string name() const override { return inner_.name(); }

  private:
    MemoryModel &inner_;
    Meter &meter_;
};

std::uint64_t
total(const metrics::Registry::Export &ex, std::string_view name)
{
    for (const auto &c : ex.counters)
        if (c.name == name)
            return c.total;
    return 0;
}

std::uint64_t
totalWithPrefix(const metrics::Registry::Export &ex,
                std::string_view prefix, std::string_view suffix)
{
    std::uint64_t sum = 0;
    for (const auto &c : ex.counters) {
        const std::string_view n = c.name;
        if (n.size() >= prefix.size() + suffix.size() &&
            n.substr(0, prefix.size()) == prefix &&
            n.substr(n.size() - suffix.size()) == suffix)
            sum += c.total;
    }
    return sum;
}

/** Simulated per-layer work counts, read from the registry totals. */
void
addModelCounts(LayerStats &s, const metrics::Registry::Export &ex)
{
    s["hierarchy.llc_misses"] += total(ex, "hierarchy.llc.misses");
    s["hierarchy.llc_writebacks"] +=
        total(ex, "hierarchy.llc.writebacks");
    s["secmem.read_requests"] += total(ex, "secmem.requests.read");
    s["secmem.write_requests"] += total(ex, "secmem.requests.write");
    s["secmem.md_accesses"] +=
        totalWithPrefix(ex, "secmem.mdcache.", ".accesses");
    s["secmem.md_hits"] += totalWithPrefix(ex, "secmem.mdcache.", ".hits");
    s["secmem.md_misses"] +=
        totalWithPrefix(ex, "secmem.mdcache.", ".misses");
    s["secmem.tree_levels_fetched"] +=
        total(ex, "secmem.tree.levels_fetched");
    s["secmem.mem_accesses"] +=
        totalWithPrefix(ex, "secmem.mem.", ".reads") +
        totalWithPrefix(ex, "secmem.mem.", ".writes");
    s["mem.accesses"] += total(ex, "dram.reads") + total(ex, "dram.writes");
    s["mem.row_hits"] += total(ex, "dram.row.hits");
}

std::string
simDigest(const metrics::Registry::Export &ex, Cycles cycles)
{
    return Digest().add(ex).add(static_cast<std::uint64_t>(cycles)).hex();
}

/** Untraced cell: the simulator façade. */
void
runFacade(const SimConfig &cfg, OpResult &out)
{
    SecureMemorySim sim(cfg);
    const RunReport report = sim.run();
    out.digest = simDigest(report.metricsExport, report.cycles);
}

/**
 * Traced cell: the same run composed from public components. Mirrors
 * SecureMemorySim's construction order, registry attachment order and
 * batched warmup/measure loop; its timing seams add clock reads only.
 */
void
runComposed(const SimConfig &cfg, OpResult &out)
{
    SpanLog &log = out.spans;
    const int root = log.open("core.cell", 0);
    Meter secmem, mem;

    const std::int64_t t0 = nowNs();
    Arena arena;
    const auto generator = makeBenchmark(cfg.benchmark, cfg.seed);
    DramModel dram;
    TimedMemory memory(dram, mem);
    SecureMemoryController controller(cfg.secure, memory, nullptr,
                                      &arena);
    CacheHierarchy hierarchy(cfg.hierarchy, &arena);
    Cycles cycles = 0;
    hierarchy.setRequestSink([&](const MemoryRequest &req) {
        const std::int64_t s0 = nowNs();
        const RequestOutcome outcome =
            controller.handleRequest(req, cycles);
        secmem.ns += nowNs() - s0;
        ++secmem.calls;
        if (req.kind == RequestKind::Read)
            cycles += outcome.latency;
    });
    metrics::Registry registry;
    hierarchy.attachMetrics(registry);
    registry.attach(memory.name(), memory.statsMut());
    controller.attachMetrics(registry);
    log.add("core.setup", t0, nowNs(), root);

    // SecureMemorySim's batch size (the batched loop is bit-exact with
    // its scalar one, so any size >= 1 reproduces the run).
    const std::uint64_t batch = std::clamp<std::uint64_t>(
        cfg.batchRefs, 1, 32 * 1024);
    std::vector<MemRef> refs(batch);
    std::int64_t gen_ns = 0, hier_ns = 0;
    const auto drive = [&](std::uint64_t count, Cycles *core) {
        for (std::uint64_t i = 0; i < count;) {
            const std::uint64_t n = std::min(batch, count - i);
            const std::int64_t g0 = nowNs();
            generator->nextBatch(refs.data(), n);
            const std::int64_t h0 = nowNs();
            const Meter sec_before = secmem, mem_before = mem;
            hierarchy.accessBatch(refs.data(), n, core);
            const std::int64_t h1 = nowNs();
            gen_ns += h0 - g0;
            hier_ns += h1 - h0;
            if (log.enabled()) {
                log.add("workloads.nextBatch", g0, h0, root,
                        {{"refs", static_cast<double>(n)}});
                log.add(
                    "hierarchy.accessBatch", h0, h1, root,
                    {{"refs", static_cast<double>(n)},
                     {"secmem_ns",
                      static_cast<double>(secmem.ns - sec_before.ns)},
                     {"secmem_calls",
                      static_cast<double>(secmem.calls -
                                          sec_before.calls)},
                     {"mem_ns", static_cast<double>(mem.ns - mem_before.ns)},
                     {"mem_calls",
                      static_cast<double>(mem.calls - mem_before.calls)}});
            }
            i += n;
        }
    };
    drive(cfg.warmupRefs, nullptr);
    registry.beginPhase(metrics::Phase::Measure);
    cycles = 0;
    drive(cfg.measureRefs, &cycles);
    log.close(root);

    const auto ex = registry.exportAll();
    out.digest = simDigest(ex, cycles);
    LayerStats &s = out.layers;
    const double refs_total =
        static_cast<double>(cfg.warmupRefs + cfg.measureRefs);
    s["workloads.refs"] += refs_total;
    s["workloads.ns"] += static_cast<double>(gen_ns);
    s["hierarchy.refs"] += refs_total;
    s["hierarchy.ns"] += static_cast<double>(hier_ns);
    s["secmem.ns"] += static_cast<double>(secmem.ns);
    s["mem.ns"] += static_cast<double>(mem.ns);
    s["mem.calls"] += static_cast<double>(mem.calls);
    addModelCounts(s, ex);
}

Op
simOp(std::string id, SimConfig cfg, const OpConfig &oc)
{
    const bool traced = oc.traced;
    return {std::move(id),
            [cfg, traced](OpResult &out) {
                out.simRefs += cfg.warmupRefs + cfg.measureRefs;
                if (traced)
                    runComposed(cfg, out);
                else
                    runFacade(cfg, out);
            },
            [cfg] {
                const std::int64_t t0 = nowNs();
                const SecureMemorySim sim(cfg);
                return nowNs() - t0;
            }};
}

std::string
kib(std::uint64_t bytes)
{
    return std::to_string(bytes / 1024) + "KB";
}

} // namespace

std::vector<Op>
simReadOps(const OpConfig &oc)
{
    // Read-dominated, large-footprint streams over three metadata-cache
    // sizes: the read verification walk, DRAM and the hierarchy do the
    // work.
    std::vector<Op> ops;
    for (const std::string bench :
         {"canneal", "mcf", "libquantum", "streamcluster"}) {
        for (const std::uint64_t md : {16_KiB, 64_KiB, 256_KiB}) {
            SimConfig cfg;
            cfg.benchmark = bench;
            cfg.seed = oc.seed;
            cfg.warmupRefs = 50'000;
            cfg.measureRefs = 150'000;
            cfg.secure.layout.protectedBytes = 256_MiB;
            cfg.secure.cache.sizeBytes = md;
            if (oc.perturb && ops.empty())
                cfg.secure.cache.assoc = 4;
            ops.push_back(simOp(bench + "/" + kib(md), cfg, oc));
        }
    }
    return ops;
}

std::vector<Op>
simWriteOps(const OpConfig &oc)
{
    // Write-heavy streams on the 4 GiB layout: counter bumps, hash and
    // tree updates (eager on half the cells), dirty metadata evictions
    // and writeback traffic.
    std::vector<Op> ops;
    for (const std::string bench : {"lbm", "radix", "fft"}) {
        for (const bool lazy : {true, false}) {
            for (const std::uint64_t md : {32_KiB, 128_KiB}) {
                SimConfig cfg;
                cfg.benchmark = bench;
                cfg.seed = oc.seed;
                cfg.warmupRefs = 100'000;
                cfg.measureRefs = 300'000;
                cfg.secure.layout.protectedBytes = 4_GiB;
                cfg.secure.lazyTreeUpdate = lazy;
                cfg.secure.cache.sizeBytes = md;
                if (oc.perturb && ops.empty())
                    cfg.secure.cache.assoc = 4;
                ops.push_back(simOp(bench + (lazy ? "/lazy/" : "/eager/") +
                                        kib(md),
                                    cfg, oc));
            }
        }
    }
    return ops;
}

} // namespace mapsbench
