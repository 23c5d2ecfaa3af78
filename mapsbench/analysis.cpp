/**
 * @file
 * analysis: the analysis and oracle layers at reduced trace sizes.
 *
 *   reuse/<bench>      fig3-style reuse-distance tap on a cache-less run
 *   itermin/<bench>    fig6-style MIN/iterMIN over TraceOracle
 *   csopt/<bench>      abl_csopt-style CSOPT on a captured metadata trace
 *   model/<bench>      analysis::profileStream once, analysis::evaluate grid
 *   estimator/<bench>  estimator::runWithMode analytic grid (+ a pinned cell)
 *   sampled/<bench>    --sample=auto cells through estimator::runWithMode
 *
 * The traced iterMIN cell replays IterMinDriver::run's loop from its
 * public pieces, with a timing FutureOracle decorator between
 * BeladyPolicy and TraceOracle; its misses and divergences must equal
 * the untraced IterMinDriver::run result.
 */
#include <memory>

#include "analysis/metadata_model.hpp"
#include "analysis/reuse.hpp"
#include "bench.hpp"
#include "cache/policy_belady.hpp"
#include "core/estimator.hpp"
#include "core/simulator.hpp"
#include "offline/csopt.hpp"
#include "offline/itermin.hpp"
#include "workloads/suite.hpp"

using namespace maps;

namespace mapsbench {

namespace {

SimConfig
baseConfig(const std::string &bench, std::uint64_t seed,
           std::uint64_t warmup, std::uint64_t measure)
{
    SimConfig cfg;
    cfg.benchmark = bench;
    cfg.seed = seed;
    cfg.warmupRefs = warmup;
    cfg.measureRefs = measure;
    cfg.secure.layout.protectedBytes = 256_MiB;
    return cfg;
}

void
addHistogram(Digest &d, const ExactHistogram &h)
{
    d.add(h.totalCount());
    for (const auto &[value, count] : h.cells())
        d.add(value).add(count);
}

/** Construct a simulator, counting construction as set-up time. */
std::unique_ptr<SecureMemorySim>
makeSim(const SimConfig &cfg, OpResult &out,
        std::unique_ptr<ReplacementPolicy> policy = nullptr)
{
    const std::int64_t t0 = nowNs();
    auto sim = std::make_unique<SecureMemorySim>(cfg, std::move(policy));
    const std::int64_t t1 = nowNs();
    out.setupNs += t1 - t0;
    out.spans.add("core.sim.construct", t0, t1, 0);
    out.simRefs += cfg.warmupRefs + cfg.measureRefs;
    return sim;
}

/** Host time and calls of a timed metadata tap. */
struct TapMeter
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
};

/** Run a simulator as one span; its args carry the tap's totals. */
RunReport
runSim(SecureMemorySim &sim, OpResult &out, const TapMeter &tap = {})
{
    const std::int64_t t0 = nowNs();
    RunReport report = sim.run();
    const std::int64_t t1 = nowNs();
    out.layers["core.sim.ns"] += static_cast<double>(t1 - t0);
    out.spans.add("core.sim.run", t0, t1, 0,
                  {{"tap_ns", static_cast<double>(tap.ns)},
                   {"tap_calls", static_cast<double>(tap.calls)}});
    return report;
}

Op
reuseOp(const std::string &bench, const OpConfig &oc)
{
    SimConfig cfg = baseConfig(bench, oc.seed, 30'000, 100'000);
    cfg.secure.cacheEnabled = false; // fig3: the raw metadata stream
    const bool traced = oc.traced;
    return {"reuse/" + bench, [cfg, traced](OpResult &out) {
                const auto sim = makeSim(cfg, out);
                ReuseDistanceAnalyzer analyzer;
                TapMeter tap;
                if (traced) {
                    sim->setMetadataTap([&](const MetadataAccess &a) {
                        const std::int64_t t0 = nowNs();
                        analyzer.observe(a);
                        tap.ns += nowNs() - t0;
                        ++tap.calls;
                    });
                } else {
                    sim->setMetadataTap([&](const MetadataAccess &a) {
                        analyzer.observe(a);
                    });
                }
                const RunReport report = runSim(*sim, out, tap);
                Digest d;
                d.add(report.metricsExport);
                for (const auto type :
                     {MetadataType::Counter, MetadataType::TreeNode,
                      MetadataType::Hash}) {
                    addHistogram(d, analyzer.typeHistogram(type));
                    d.add(analyzer.coldMisses(type))
                        .add(analyzer.accesses(type));
                }
                d.add(analyzer.uniqueBlocks()).add(
                    analyzer.totalAccesses());
                out.digest = d.hex();
                LayerStats &s = out.layers;
                s["analysis.reuse.ns"] += static_cast<double>(tap.ns);
                s["analysis.reuse.observations"] +=
                    static_cast<double>(analyzer.totalAccesses());
                s["analysis.reuse.unique_blocks"] +=
                    static_cast<double>(analyzer.uniqueBlocks());
            },
            {}};
}

/** FutureOracle decorator: times every oracle call. */
class TimedOracle final : public FutureOracle
{
  public:
    TimedOracle(TraceOracle &inner, LayerStats &stats)
        : inner_(inner), stats_(stats)
    {
    }
    ~TimedOracle() override
    {
        stats_["offline.oracle.ns"] += static_cast<double>(ns_);
        stats_["offline.oracle.next_use_calls"] +=
            static_cast<double>(nextUseCalls_);
        stats_["offline.oracle.on_access_calls"] +=
            static_cast<double>(onAccessCalls_);
    }
    TimedOracle(const TimedOracle &) = delete;
    TimedOracle &operator=(const TimedOracle &) = delete;

    void onAccess(Addr addr) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onAccess(addr);
        ns_ += nowNs() - t0;
        ++onAccessCalls_;
    }
    std::uint64_t nextUse(Addr addr) const override
    {
        const std::int64_t t0 = nowNs();
        const std::uint64_t r = inner_.nextUse(addr);
        ns_ += nowNs() - t0;
        ++nextUseCalls_;
        return r;
    }

  private:
    TraceOracle &inner_;
    LayerStats &stats_;
    mutable std::int64_t ns_ = 0;
    mutable std::uint64_t nextUseCalls_ = 0;
    std::uint64_t onAccessCalls_ = 0;
};

/** The same fixed point IterMinDriver::run computes, with timed seams. */
IterMinResult
tracedIterMin(const IterMinDriver::SimulateFn &simulate, unsigned max_iter,
              OpResult &out)
{
    IterMinResult result;
    std::vector<Addr> trace;
    result.missesPerIteration.push_back(
        simulate(makeReplacementPolicy("lru"), trace));
    result.divergencesPerIteration.push_back(0);
    for (unsigned iter = 0; iter < max_iter; ++iter) {
        const std::int64_t b0 = nowNs();
        TraceOracle oracle(std::move(trace));
        const std::int64_t b1 = nowNs();
        out.setupNs += b1 - b0;
        out.layers["offline.oracle.build_ns"] += static_cast<double>(b1 - b0);
        out.spans.add("offline.oracle.build", b0, b1, 0,
                      {{"trace_len",
                        static_cast<double>(oracle.traceLength())}});
        trace = {};
        std::uint64_t misses = 0;
        {
            TimedOracle timed(oracle, out.layers);
            misses = simulate(std::make_unique<BeladyPolicy>(timed), trace);
        }
        result.missesPerIteration.push_back(misses);
        result.divergencesPerIteration.push_back(oracle.divergences());
        if (oracle.divergences() == 0 &&
            trace.size() == oracle.traceLength()) {
            result.converged = true;
            break;
        }
        const auto n = result.missesPerIteration.size();
        if (n >= 3 && result.missesPerIteration[n - 1] ==
                          result.missesPerIteration[n - 2]) {
            result.converged = true;
            break;
        }
    }
    return result;
}

Op
iterMinOp(const std::string &bench, const OpConfig &oc)
{
    SimConfig cfg = baseConfig(bench, oc.seed, 20'000, 60'000);
    cfg.secure.cache.sizeBytes = 64_KiB; // fig6's point
    const bool traced = oc.traced;
    return {"itermin/" + bench, [cfg, traced](OpResult &out) {
                // Untraced, the gap between two simulate() calls is
                // IterMinDriver building the next TraceOracle: set-up.
                std::int64_t last_end = 0;
                const auto simulate =
                    [&](std::unique_ptr<ReplacementPolicy> policy,
                        std::vector<Addr> &trace_out) -> std::uint64_t {
                    if (!traced && last_end != 0)
                        out.setupNs += nowNs() - last_end;
                    const auto sim = makeSim(cfg, out, std::move(policy));
                    sim->setMetadataTap(
                        [&trace_out](const MetadataAccess &a) {
                            trace_out.push_back(a.addr);
                        },
                        /*include_warmup=*/true);
                    const RunReport report = runSim(*sim, out);
                    last_end = nowNs();
                    return report.mdCache.totalMisses();
                };
                const std::int64_t t0 = nowNs();
                const IterMinResult r =
                    traced ? tracedIterMin(simulate, 3, out)
                           : IterMinDriver().run(simulate, "lru", 3);
                out.spans.add("offline.itermin", t0, nowNs(), 0);
                Digest d;
                for (const auto m : r.missesPerIteration)
                    d.add(m);
                for (const auto v : r.divergencesPerIteration)
                    d.add(v);
                d.add(static_cast<std::uint64_t>(r.converged));
                out.digest = d.hex();
                LayerStats &s = out.layers;
                s["offline.itermin.iterations"] +=
                    static_cast<double>(r.iterations());
                for (const auto v : r.divergencesPerIteration)
                    s["offline.oracle.divergences"] +=
                        static_cast<double>(v);
            },
            {}};
}

Op
csoptOp(const std::string &bench, const OpConfig &oc, std::size_t cap)
{
    SimConfig cfg = baseConfig(bench, oc.seed, 20'000, 60'000);
    cfg.secure.cacheEnabled = false; // capture the raw stream
    return {"csopt/" + bench, [cfg, cap](OpResult &out) {
                const auto sim = makeSim(cfg, out);
                std::vector<MetadataAccess> stream;
                sim->setMetadataTap([&stream](const MetadataAccess &a) {
                    stream.push_back(a);
                });
                runSim(*sim, out);
                if (stream.size() > cap)
                    stream.resize(cap);
                // abl_csopt's static miss costs: a counter miss may
                // cost a full tree walk, others one access.
                const auto levels =
                    MetadataLayout(cfg.secure.layout).numTreeLevels();
                std::vector<CsOptAccess> trace;
                trace.reserve(stream.size());
                for (const auto &a : stream)
                    trace.push_back(
                        {a.addr, a.type == MetadataType::Counter
                                     ? 1u + levels
                                     : 1u});
                const std::int64_t t0 = nowNs();
                const CsOptResult r =
                    solveCsOptSetAssociative(trace, 16, 4, 1u << 9);
                const std::int64_t t1 = nowNs();
                out.spans.add("offline.csopt.solve", t0, t1, 0,
                              {{"expansions",
                                static_cast<double>(r.expansions)}});
                out.digest = Digest()
                                 .add(static_cast<std::uint64_t>(
                                     trace.size()))
                                 .add(r.minCost)
                                 .add(r.misses)
                                 .add(static_cast<std::uint64_t>(
                                     r.peakStates))
                                 .add(r.expansions)
                                 .add(static_cast<std::uint64_t>(r.exact))
                                 .hex();
                LayerStats &s = out.layers;
                s["offline.csopt.ns"] += static_cast<double>(t1 - t0);
                s["offline.csopt.expansions"] +=
                    static_cast<double>(r.expansions);
                s["offline.csopt.peak_states"] +=
                    static_cast<double>(r.peakStates);
                s["offline.csopt.solves"] += 1;
                s["offline.csopt.exact"] += r.exact ? 1 : 0;
            },
            {}};
}

void
addCounts(Digest &d, const analysis::AnalyticCounts &c)
{
    for (const double v :
         {c.instructions, c.refs, c.l1Misses, c.l2Misses, c.llcMisses,
          c.llcWritebacks, c.requests, c.mdScale, c.writeFrac,
          c.ctrAccesses, c.ctrHits, c.ctrMisses, c.ctrBypasses,
          c.hashAccesses, c.hashHits, c.hashMisses, c.hashBypasses,
          c.treeAccesses, c.treeHits, c.treeMisses, c.treeBypasses,
          c.memDataReads, c.memDataWrites, c.memCtrReads, c.memCtrWrites,
          c.memHashReads, c.memHashWrites, c.memTreeReads,
          c.memTreeWrites, c.stallWeight})
        d.add(v);
}

Op
modelOp(const std::string &bench, const OpConfig &oc)
{
    const std::uint64_t seed = oc.seed;
    return {"model/" + bench, [bench, seed](OpResult &out) {
                analysis::ProfileSpec spec;
                spec.warmupRefs = 30'000;
                spec.measureRefs = 100'000;
                spec.pivotLlcBlocks = 2_MiB / kBlockSize;
                spec.layout.protectedBytes = 256_MiB;
                const auto gen = makeBenchmark(bench, seed);
                const std::int64_t p0 = nowNs();
                const auto profile = analysis::profileStream(*gen, spec);
                const std::int64_t p1 = nowNs();
                Digest d;
                std::uint64_t cells = 0;
                for (const std::uint64_t llc :
                     {512_KiB, 1_MiB, 2_MiB, 4_MiB}) {
                    for (const std::uint64_t md :
                         {16_KiB, 64_KiB, 256_KiB}) {
                        analysis::EvalConfig e;
                        e.l1Blocks = 32_KiB / kBlockSize;
                        e.l2Blocks = 256_KiB / kBlockSize;
                        e.llcBlocks = llc / kBlockSize;
                        e.mdBlocks = md / kBlockSize;
                        addCounts(d, analysis::evaluate(profile, e));
                        ++cells;
                    }
                }
                const std::int64_t p2 = nowNs();
                out.spans.add("analysis.profileStream", p0, p1, 0,
                              {{"refs", static_cast<double>(
                                            spec.warmupRefs +
                                            spec.measureRefs)}});
                out.spans.add("analysis.evaluate", p1, p2, 0,
                              {{"cells", static_cast<double>(cells)}});
                out.digest = d.hex();
                LayerStats &s = out.layers;
                s["analysis.profile.ns"] += static_cast<double>(p1 - p0);
                s["analysis.profile.refs"] +=
                    static_cast<double>(spec.warmupRefs + spec.measureRefs);
                s["analysis.eval.ns"] += static_cast<double>(p2 - p1);
                s["analysis.eval.cells"] += static_cast<double>(cells);
            },
            {}};
}

/**
 * A driver-style grid: every config evaluated in order through the
 * estimator seam inside one cell, as fig2-class drivers sweep.
 */
Op
estimatorOp(std::string id, std::vector<SimConfig> grid,
            estimator::Mode mode)
{
    return {std::move(id), [grid, mode](OpResult &out) {
                Digest d;
                LayerStats &s = out.layers;
                for (const SimConfig &cfg : grid) {
                    const std::int64_t t0 = nowNs();
                    const RunReport report = estimator::runWithMode(
                        cfg, mode, estimator::CellKind::Interior);
                    const std::int64_t t1 = nowNs();
                    out.spans.add("estimator.runWithMode", t0, t1, 0);
                    d.add(report.metricsExport);
                    s["estimator.ns"] += static_cast<double>(t1 - t0);
                    s["estimator.cells"] += 1;
                    if (report.estimator.enabled &&
                        report.estimator.tier == "analytic")
                        s["estimator.analytic_cells"] += 1;
                    if (report.estimator.enabled &&
                        !report.estimator.pinned.empty()) {
                        s["estimator.pinned_cells"] += 1;
                        out.simRefs += cfg.warmupRefs + cfg.measureRefs;
                    }
                    if (report.sampling.enabled) {
                        s["sampling.simulated_refs"] +=
                            static_cast<double>(
                                report.sampling.simulatedRefs);
                        s["sampling.full_refs"] += static_cast<double>(
                            report.sampling.fullRefs);
                        out.simRefs += report.sampling.simulatedRefs;
                    }
                }
                out.digest = d.hex();
            },
            {}};
}

} // namespace

std::vector<Op>
analysisOps(const OpConfig &oc)
{
    // Cells of similar size (so op latency percentiles are stable), two
    // benchmarks per stage (so per-seed differences average out).
    std::vector<Op> ops;
    // abl_csopt's 16-set, 4-way geometry with a beam narrow enough that
    // large footprints saturate it: search effort then follows the
    // trace length rather than the seed.
    ops.push_back(csoptOp("canneal", oc, oc.perturb ? 1'499 : 1'500));
    ops.push_back(csoptOp("perl", oc, 1'500));
    for (const std::string bench : {"mcf", "libquantum"})
        ops.push_back(iterMinOp(bench, oc));
    for (const std::string bench : {"canneal", "mcf"})
        ops.push_back(reuseOp(bench, oc));
    for (const std::string bench : {"canneal", "mcf"})
        ops.push_back(modelOp(bench, oc));

    // An analytic fig2-class grid over one stream: one profile and one
    // anchor, then every cell composed from the miss curves. The last
    // cell overrides the replacement policy, which the analytic model
    // does not differentiate, so the seam pins it to full simulation.
    std::vector<SimConfig> grid;
    for (const std::uint64_t llc : {1_MiB, 2_MiB, 4_MiB}) {
        for (const std::uint64_t md : {32_KiB, 128_KiB}) {
            SimConfig cfg = baseConfig("mcf", oc.seed, 30'000, 120'000);
            cfg.hierarchy.llcBytes = llc;
            cfg.secure.cache.sizeBytes = md;
            grid.push_back(cfg);
        }
    }
    SimConfig pinned = baseConfig("mcf", oc.seed, 30'000, 120'000);
    pinned.secure.cache.policy = "lru";
    grid.push_back(pinned);
    ops.push_back(estimatorOp("estimator/mcf", grid,
                              estimator::Mode::Analytic));

    for (const std::string bench : {"canneal", "lbm"}) {
        SimConfig cfg = baseConfig(bench, oc.seed, 50'000, 300'000);
        sampling::SampleSpec::parse("k=4", cfg.sample);
        ops.push_back(estimatorOp("sampled/" + bench, {cfg},
                                  estimator::Mode::Sim));
    }
    return ops;
}

} // namespace mapsbench
