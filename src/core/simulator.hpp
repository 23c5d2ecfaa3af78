/**
 * @file
 * SecureMemorySim: the top-level façade wiring a workload through the
 * cache hierarchy, the secure memory controller and DRAM, with energy
 * and delay accounting. This is the public entry point used by the
 * examples and every figure bench.
 */
#ifndef MAPS_CORE_SIMULATOR_HPP
#define MAPS_CORE_SIMULATOR_HPP

#include <memory>
#include <string>
#include <vector>

#include "check/secmem_shadow.hpp"
#include "check/shadow_cache.hpp"
#include "core/estimator_types.hpp"
#include "energy/energy.hpp"
#include "hierarchy/hierarchy.hpp"
#include "mem/dram.hpp"
#include "mem/fixed_latency.hpp"
#include "metrics/metrics.hpp"
#include "metrics/trace_events.hpp"
#include "sampling/sampling.hpp"
#include "secmem/controller.hpp"
#include "util/arena.hpp"
#include "workloads/suite.hpp"

namespace maps {

/** Full experiment configuration (Table I defaults). */
struct SimConfig
{
    /** Benchmark name from the registry (workloads/suite.hpp). */
    std::string benchmark = "libquantum";
    std::uint64_t seed = 1;

    /** References to warm caches before measurement (paper: 50M inst). */
    std::uint64_t warmupRefs = 200'000;
    /** Measured references (paper: 500M instructions). */
    std::uint64_t measureRefs = 2'000'000;

    /**
     * References per batch through the generator -> hierarchy pipeline
     * (one virtual call per batch at each boundary). Results are
     * bit-exact for every value: requests are still serviced
     * synchronously per reference. 0 counts as 1; values above the 32k
     * heartbeat cadence are clamped to it.
     */
    std::uint64_t batchRefs = 1024;

    /**
     * Representative-interval sampling (docs/SAMPLING.md). Disabled by
     * default; bench drivers copy --sample here through
     * bench::defaultConfig. A metadata-cache policy override forces a
     * full run (oracle capture/replay streams must stay aligned with
     * the full access sequence) and leaves RunReport::sampling.enabled
     * false.
     */
    sampling::SampleSpec sample;
    /**
     * References to discard before the warmup window — the generator
     * fast-forward seam (AccessGenerator::skip; bit-exact with
     * consuming). Normal runs leave this 0; tests and programmatic
     * slicing use it to start a run mid-stream.
     */
    std::uint64_t skipRefs = 0;

    HierarchyConfig hierarchy;
    SecureMemoryConfig secure;
    /** False simulates an insecure baseline (no metadata at all). */
    bool secureEnabled = true;

    /** Use the banked DRAM model; false = fixed latency. */
    bool useDram = true;
    Cycles fixedLatencyCycles = 200;

    EnergyConfig energy;

    bool operator==(const SimConfig &) const = default;
};

/**
 * Everything a run produces.
 *
 * The per-component stats members are *measure-window views* generated
 * from the metrics registry (total minus the Phase::Measure snapshot):
 * exactly what the old clearStats()-at-measure-start convention
 * produced, so every figure is unchanged. The full registry (all
 * windows, derived metrics, histograms) is in metricsExport.
 */
struct RunReport
{
    std::string benchmark;
    InstCount instructions = 0;
    std::uint64_t refs = 0;

    HierarchyStats hierarchy;
    ControllerStats controller;
    MetadataCacheStats mdCache;
    MemoryStats memory;

    double llcMpki = 0.0;
    /** Metadata cache misses (+ bypasses) per kilo-instruction. */
    double metadataMpki = 0.0;

    Cycles cycles = 0;
    double seconds = 0.0;
    EnergyBreakdown energy;
    double ed2 = 0.0;

    /** Extra memory accesses per LLC-level request (overhead factor). */
    double memAccessesPerRequest = 0.0;

    /**
     * Host wall-clock duration of run() (warmup + measure) and the
     * simulated-references-per-second throughput derived from it.
     * Nondeterministic by nature: reported only through the
     * "maps::metrics runtime" rows (and mapsd job accounting), never
     * part of goldens or the registry export.
     */
    double wallSeconds = 0.0;
    double refsPerSec = 0.0;

    /** Full registry contents (schema metrics::kSchemaVersion). */
    metrics::Registry::Export metricsExport;

    /**
     * How this report was produced: enabled=false for exact full runs
     * (every field above is a measured count), enabled=true for sampled
     * runs (counters are weighted estimates; the per-metric error
     * bounds live in sampling.bounds and are rendered as the
     * "maps::metrics sampling" sections).
     */
    sampling::Report sampling;

    /**
     * Which estimator tier produced this report (docs/ESTIMATOR.md):
     * enabled=false under the default --estimator=sim (byte-identical
     * reports), enabled=true whenever an analytic-capable mode was
     * requested — tier says whether the numbers are analytic estimates
     * (with disclosed per-metric tolerances in estimator.bounds) or a
     * pinned full simulation (estimator.pinned says why).
     */
    estimator::Report estimator;
};

/**
 * The report tail every tier shares: seconds from report.cycles, the
 * energy breakdown and ED². l1/l2/llc dynamic energy spans both phases
 * (the caller's access counts: caches are warmed by real accesses that
 * cost energy); the metadata cache and DRAM terms come from the
 * report's measure-window mdCache and memory views; leakage integrates
 * the SRAM budget over the run's seconds.
 */
void fillEnergy(RunReport &report, const SimConfig &cfg,
                const EnergyModel &model, std::uint64_t l1Accesses,
                std::uint64_t l2Accesses, std::uint64_t llcAccesses);

/** The derived registry rows every tier exports, in export order. */
template <typename Fn>
void
forEachDerived(const RunReport &r, Fn &&fn)
{
    fn("derived.llc.mpki", r.llcMpki, 4);
    fn("derived.metadata.mpki", r.metadataMpki, 4);
    fn("derived.mem.accesses_per_request", r.memAccessesPerRequest, 4);
    fn("derived.cycles", static_cast<double>(r.cycles), 0);
    fn("derived.seconds", r.seconds, 9);
    fn("derived.energy.l1_pj", r.energy.l1Pj, 1);
    fn("derived.energy.l2_pj", r.energy.l2Pj, 1);
    fn("derived.energy.llc_pj", r.energy.llcPj, 1);
    fn("derived.energy.mdcache_pj", r.energy.mdCachePj, 1);
    fn("derived.energy.dram_pj", r.energy.dramPj, 1);
    fn("derived.energy.leakage_pj", r.energy.leakagePj, 1);
    fn("derived.energy.total_pj", r.energy.totalPj(), 1);
    fn("derived.ed2", r.ed2, 18);
}

/**
 * One simulation instance. Construct, optionally install taps or a
 * metadata replacement policy override, then run().
 *
 * An exact run takes two passes (docs/ARCHITECTURE.md): the stream pass
 * (generator -> L1 -> L2, logging what leaves L2) runs once per
 * reference stream per process and is kept in the estimator's stream
 * memo; the replay pass drives this instance's LLC, secure-memory
 * controller and DRAM from that log. Construction builds only the
 * replay side; run() looks up or captures the stream. Sampled runs keep
 * a full hierarchy and their own generator.
 */
class SecureMemorySim
{
  public:
    /**
     * @param cfg       validated configuration.
     * @param md_policy optional metadata-cache policy override (e.g. an
     *                  oracle-driven BeladyPolicy); nullptr uses
     *                  cfg.secure.cache.policy.
     */
    explicit SecureMemorySim(SimConfig cfg,
                             std::unique_ptr<ReplacementPolicy> md_policy
                             = nullptr);

    /**
     * Observe metadata accesses.
     * @param include_warmup also deliver warmup-phase accesses — needed
     *        when the stream feeds a MIN oracle, whose cursor must stay
     *        aligned with every access the replacement policy sees.
     */
    void setMetadataTap(SecureMemoryController::MetadataTap tap,
                        bool include_warmup = false);

    /**
     * Run warmup + measurement and produce the report. One run per
     * simulation instance: the phase snapshot is taken exactly once.
     */
    RunReport run();

    /**
     * Emit sampled chrome://tracing events for this run (every
     * @p sample_every-th measured request) to @p path. Normally wired
     * automatically from `--trace-events`; public for tests and
     * programmatic use. Call before run().
     */
    void enableTraceEvents(const std::string &path,
                           std::uint64_t sample_every,
                           const std::string &cell);

    /** Components (valid after construction). */
    SecureMemoryController &controller() { return *controller_; }
    MemoryModel &memory() { return *memory_; }
    /** The phase-aware statistics registry for this simulation. */
    metrics::Registry &metricsRegistry() { return registry_; }
    const SimConfig &config() const { return cfg_; }

  private:
    SimConfig cfg_;
    /**
     * Per-cell arena: every cache array's SoA lanes are carved from
     * here. Declared before the components that hold pointers into it,
     * so reverse-order member destruction keeps the pointers valid.
     */
    Arena arena_;
    /** Sampled runs only: their generator (exact runs replay a log). */
    std::unique_ptr<AccessGenerator> generator_;
    std::unique_ptr<MemoryModel> memory_;
    std::unique_ptr<SecureMemoryController> controller_;
    /** The LLC alone for exact runs; all three levels for sampled runs. */
    std::unique_ptr<CacheHierarchy> hierarchy_;
    EnergyModel energyModel_;
    metrics::Registry registry_;
    std::unique_ptr<metrics::TraceEventWriter> traceWriter_;

    Cycles cycles_ = 0;
    bool measuring_ = false;
    /**
     * Sampled runs only: gap references between selected intervals are
     * streamed through the hierarchy for state (functional warming)
     * with the request sink short-circuited — no controller, DRAM or
     * clock activity (docs/SAMPLING.md).
     */
    bool warmingOnly_ = false;
    /** A metadata-cache policy override is installed (forces full runs). */
    bool mdOverride_ = false;
    /** run() takes the sampled path (cfg_.sample without an override). */
    bool sampled_ = false;
    SecureMemoryController::MetadataTap userTap_;
    bool tapIncludeWarmup_ = false;

    /**
     * maps::check differential models, attached when checking is
     * enabled at construction time: one CacheShadow per cache array
     * this instance drives plus the flat SecmemShadow over the
     * controller. An exact run's L1/L2 shadows audit the stream pass
     * instead (captureStream).
     */
    std::vector<std::unique_ptr<check::CacheShadow>> cacheShadows_;
    std::unique_ptr<check::SecmemShadow> secmemShadow_;

    /** (Re)install the controller tap dispatching to the shadow, the
     * trace writer and the user tap. */
    void installTap();

    void serviceRequest(const MemoryRequest &req);

    /**
     * Sampled execution (docs/SAMPLING.md): profile the generator
     * stream, cluster the intervals, then run one forward pass over
     * this simulation's own components — functional warming across the
     * gaps, detailed simulation of each cluster's representative — and
     * compose weighted, error-bounded estimates from the per-interval
     * counter deltas.
     */
    RunReport runSampled();

    /** maps::check: cross-component accounting over registry windows. */
    void auditAccounting() const;

    /** Register derived metrics and fill report.metricsExport. */
    void exportMetrics(RunReport &report);
};

/**
 * Convenience: SecureMemorySim(cfg).run(). Always the exact sim tier;
 * drivers that honor --estimator go through bench::runCell.
 */
RunReport runBenchmark(const SimConfig &cfg);

} // namespace maps

#endif // MAPS_CORE_SIMULATOR_HPP
