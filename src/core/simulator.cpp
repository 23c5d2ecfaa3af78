#include "core/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "core/runner.hpp"
#include "metrics/derived.hpp"
#include "util/logging.hpp"

namespace maps {

namespace {

/** Name -> composed estimate, keyed by full registry counter names. */
using EstimateMap =
    std::unordered_map<std::string, sampling::Estimate>;

/**
 * Inverse of Registry::measureView for sampled runs: fill a stats
 * struct's counters from composed estimates (rounded to integers) via
 * the same forEachCounter enumeration that registered them.
 */
template <typename S>
S
composedView(const std::string &prefix, const EstimateMap &est)
{
    S out{};
    forEachCounter(out,
                   [&](std::string_view leaf, std::uint64_t &field) {
                       const auto it =
                           est.find(prefix + "." + std::string(leaf));
                       if (it != est.end() && it->second.value > 0.0)
                           field = static_cast<std::uint64_t>(
                               std::llround(it->second.value));
                   });
    return out;
}

std::uint64_t
roundCount(double v)
{
    return v > 0.0 ? static_cast<std::uint64_t>(std::llround(v)) : 0;
}

} // namespace

SecureMemorySim::SecureMemorySim(SimConfig cfg,
                                 std::unique_ptr<ReplacementPolicy>
                                     md_policy)
    : cfg_(std::move(cfg)), energyModel_(cfg_.energy)
{
    generator_ = makeBenchmark(cfg_.benchmark, cfg_.seed);

    if (cfg_.useDram)
        memory_ = std::make_unique<DramModel>();
    else
        memory_ = std::make_unique<FixedLatencyMemory>(
            cfg_.fixedLatencyCycles);

    const bool md_override = md_policy != nullptr;
    mdOverride_ = md_override;
    if (cfg_.secureEnabled) {
        controller_ = std::make_unique<SecureMemoryController>(
            cfg_.secure, *memory_, std::move(md_policy), &arena_);
    }

    hierarchy_ = std::make_unique<CacheHierarchy>(cfg_.hierarchy, &arena_);
    hierarchy_->setRequestSink(
        [this](const MemoryRequest &req) { serviceRequest(req); });

    // Every counter in the simulation registers here, in a fixed order
    // (the export order). Registration stores pointers only — hot-path
    // increments are unchanged.
    hierarchy_->attachMetrics(registry_);
    registry_.attach(memory_->name(), memory_->statsMut());
    if (controller_)
        controller_->attachMetrics(registry_);

    if (check::enabled()) {
        // The hierarchy builds its policies with the factory default
        // seed; the metadata cache uses its configured seed. A policy
        // override has unknown internals, so its shadow only mirrors.
        cacheShadows_.push_back(
            check::CacheShadow::attach(hierarchy_->l1Mut(), "l1"));
        cacheShadows_.push_back(
            check::CacheShadow::attach(hierarchy_->l2Mut(), "l2"));
        cacheShadows_.push_back(
            check::CacheShadow::attach(hierarchy_->llcMut(), "llc"));
        if (controller_) {
            cacheShadows_.push_back(check::CacheShadow::attach(
                controller_->metadataCache().arrayMut(), "mdcache",
                cfg_.secure.cache.seed, md_override));
            secmemShadow_ =
                std::make_unique<check::SecmemShadow>(*controller_);
            installTap();
        }
    }
}

void
SecureMemorySim::setMetadataTap(SecureMemoryController::MetadataTap tap,
                                bool include_warmup)
{
    userTap_ = std::move(tap);
    tapIncludeWarmup_ = include_warmup;
    installTap();
}

void
SecureMemorySim::enableTraceEvents(const std::string &path,
                                   std::uint64_t sample_every,
                                   const std::string &cell)
{
    traceWriter_ = std::make_unique<metrics::TraceEventWriter>(
        path, sample_every, cell);
    installTap();
}

void
SecureMemorySim::installTap()
{
    if (!controller_ || (!userTap_ && !secmemShadow_ && !traceWriter_))
        return;
    controller_->setMetadataTap([this](const MetadataAccess &acc) {
        if (secmemShadow_)
            secmemShadow_->onTap(acc);
        if (traceWriter_ && measuring_)
            traceWriter_->metadataAccess(acc);
        if (userTap_ && (measuring_ || tapIncludeWarmup_))
            userTap_(acc);
    });
}

void
SecureMemorySim::serviceRequest(const MemoryRequest &req)
{
    // Functional cache warming (sampled runs): hierarchy tag, dirty
    // and recency state evolves identically whatever this sink does,
    // so dropping the request keeps the caches bit-exact with full
    // simulation while the controller, DRAM and clock stay untouched.
    if (warmingOnly_)
        return;
    const bool tracing = traceWriter_ && measuring_;
    if (tracing)
        traceWriter_->beginRequest(req);
    if (controller_) {
        if (secmemShadow_)
            secmemShadow_->beginRequest(req);
        const RequestOutcome outcome =
            controller_->handleRequest(req, cycles_);
        if (secmemShadow_)
            secmemShadow_->endRequest();
        if (tracing)
            traceWriter_->endRequest(outcome.latency,
                                     outcome.memAccesses);
        // Reads stall the core; posted writes do not (write buffers).
        if (req.kind == RequestKind::Read)
            cycles_ += outcome.latency;
        return;
    }
    // Insecure baseline: a plain block transfer.
    const auto result =
        memory_->access(req.addr, req.isWrite(), cycles_);
    if (tracing)
        traceWriter_->endRequest(result.latency, 1);
    if (req.kind == RequestKind::Read)
        cycles_ += result.latency;
}

RunReport
SecureMemorySim::run()
{
    // Cancellation cadence for --cell-timeout: cheap relative to the
    // work between calls, frequent enough to bound overshoot.
    constexpr std::uint64_t kHeartbeatRefs = 32 * 1024;

    // A metadata-cache policy override (e.g. the fig6 oracles) forces
    // full simulation: oracle capture/replay streams are aligned to the
    // full access sequence, which a sampled pass would splice.
    if (cfg_.sample.enabled && !mdOverride_)
        return runSampled();

    // Wire the sampled event trace when this cell was selected by
    // --trace-events (at most one cell per run claims it; sampled runs
    // never reach this point — their spliced timelines would mislead).
    if (!traceWriter_) {
        if (auto claim = runner::claimTraceEvents())
            enableTraceEvents(claim->path, claim->sampleEvery,
                              claim->cell);
    }

    // Batched pipeline: pull references in fixed-size batches (one
    // virtual generator call, one hierarchy call per batch) — bit-exact
    // with the scalar loop below, which remains the reference semantics
    // and the differential-test hook (SimConfig::batchRefs).
    const std::uint64_t batch =
        cfg_.batchRefs > 1 ? std::min(cfg_.batchRefs, kHeartbeatRefs)
                           : 0;
    // The scalar loop polls the cancellation heartbeat at every 32k-th
    // reference; a batch covering that reference polls at batch start.
    const auto heartbeatIfDue = [](std::uint64_t i, std::uint64_t n) {
        if (i % kHeartbeatRefs == 0 || i % kHeartbeatRefs + n > kHeartbeatRefs)
            runner::heartbeat();
    };

    // Host wall clock over both phases: the denominator of the
    // simulated-refs-per-second throughput report (nondeterministic by
    // nature, so it feeds only the runtime metrics rows, never goldens).
    const auto wall_start = std::chrono::steady_clock::now();

    // Fast-forward: discard the stream prefix in front of the warmup
    // window (SimConfig::skipRefs). Bit-exact with consuming the
    // references (AccessGenerator::skip contract), heartbeat-chunked so
    // --cell-timeout still cancels promptly.
    for (std::uint64_t i = 0; i < cfg_.skipRefs;) {
        const std::uint64_t n =
            std::min(kHeartbeatRefs, cfg_.skipRefs - i);
        runner::heartbeat();
        generator_->skip(n);
        i += n;
    }

    // Warmup: fill caches. Counters keep counting — the warmup window
    // is separated from measurement by the registry phase snapshot, not
    // by resets.
    measuring_ = false;
    if (batch) {
        batch_.resize(batch);
        for (std::uint64_t i = 0; i < cfg_.warmupRefs;) {
            const std::uint64_t n =
                std::min(batch, cfg_.warmupRefs - i);
            heartbeatIfDue(i, n);
            generator_->nextBatch(batch_.data(), n);
            hierarchy_->accessBatch(batch_.data(), n);
            i += n;
        }
    } else {
        for (std::uint64_t i = 0; i < cfg_.warmupRefs; ++i) {
            if (i % kHeartbeatRefs == 0)
                runner::heartbeat();
            hierarchy_->access(generator_->next());
        }
    }

    // The one statistics boundary of a run: snapshot every counter.
    registry_.beginPhase(metrics::Phase::Measure);
    // Timing state (not a statistic) restarts with measurement: request
    // latencies depend on absolute cycle arithmetic in the DRAM model.
    cycles_ = 0;
    measuring_ = true;

    if (batch) {
        for (std::uint64_t i = 0; i < cfg_.measureRefs;) {
            const std::uint64_t n =
                std::min(batch, cfg_.measureRefs - i);
            heartbeatIfDue(i, n);
            generator_->nextBatch(batch_.data(), n);
            // The unit-IPC core clock advances per reference inside the
            // batch, interleaved with request latencies via the sink.
            hierarchy_->accessBatch(batch_.data(), n, &cycles_);
            i += n;
        }
    } else {
        for (std::uint64_t i = 0; i < cfg_.measureRefs; ++i) {
            if (i % kHeartbeatRefs == 0)
                runner::heartbeat();
            const MemRef ref = generator_->next();
            cycles_ += ref.instGap; // unit-IPC core
            hierarchy_->access(ref);
        }
    }
    measuring_ = false;

    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();

    // End-of-run structural audit of every shadowed cache array, plus
    // the registry-level cross-component accounting audit.
    for (auto &shadow : cacheShadows_)
        shadow->finalAudit();
    if (check::enabled())
        auditAccounting();

    RunReport report;
    report.benchmark = cfg_.benchmark;
    report.hierarchy =
        registry_.measureView("hierarchy", hierarchy_->stats());
    report.instructions = report.hierarchy.instructions;
    report.refs = report.hierarchy.refs;
    report.memory =
        registry_.measureView(memory_->name(), memory_->stats());
    report.llcMpki = report.hierarchy.llcMpki();

    if (controller_) {
        report.controller =
            registry_.measureView("secmem", controller_->stats());
        report.mdCache = registry_.measureView(
            "secmem.mdcache", controller_->metadataCache().stats());
        report.metadataMpki = report.mdCache.mpki(report.instructions);
        report.memAccessesPerRequest = metrics::ratioOrZero(
            report.controller.totalMemAccesses(),
            report.controller.requests());
    }

    // Timing: unit-IPC core plus read-request stalls, both folded into
    // cycles_ during the run.
    report.cycles = cycles_;
    report.seconds = energyModel_.secondsOf(report.cycles);

    // Energy: dynamic per level + DRAM + SRAM leakage. The documented
    // window convention: l1/l2/llc dynamic energy spans BOTH phases
    // (whole-run totals — caches are warmed by real accesses that cost
    // energy), while the metadata cache and DRAM terms are
    // measure-window (they scale the measured traffic).
    const auto &h = *hierarchy_;
    report.energy.l1Pj = energyModel_.cacheDynamicPj(
        cfg_.hierarchy.l1Bytes, h.l1().stats().accesses());
    report.energy.l2Pj = energyModel_.cacheDynamicPj(
        cfg_.hierarchy.l2Bytes, h.l2().stats().accesses());
    report.energy.llcPj = energyModel_.cacheDynamicPj(
        cfg_.hierarchy.llcBytes, h.llc().stats().accesses());

    std::uint64_t sram_bytes = cfg_.hierarchy.l1Bytes +
                               cfg_.hierarchy.l2Bytes +
                               cfg_.hierarchy.llcBytes;
    if (controller_) {
        std::uint64_t md_accesses = 0;
        for (unsigned t = 0; t < kNumMetadataTypes; ++t) {
            md_accesses +=
                report.mdCache.accesses[t] - report.mdCache.bypasses[t];
        }
        if (cfg_.secure.cacheEnabled) {
            report.energy.mdCachePj = energyModel_.cacheDynamicPj(
                cfg_.secure.cache.sizeBytes, md_accesses);
            sram_bytes += cfg_.secure.cache.sizeBytes;
        }
    }
    report.energy.dramPj =
        energyModel_.dramAccessPj() *
        static_cast<double>(report.memory.accesses());
    report.energy.leakagePj =
        energyModel_.leakagePj(sram_bytes, report.seconds);

    report.ed2 =
        energyDelaySquared(report.energy.totalPj(), report.seconds);

    // Host throughput over both phases: the number feeding the
    // "maps::metrics runtime" rows and mapsd's per-job accounting.
    report.wallSeconds = wall_seconds;
    report.refsPerSec =
        wall_seconds > 0.0
            ? static_cast<double>(cfg_.warmupRefs + cfg_.measureRefs) /
                  wall_seconds
            : 0.0;

    exportMetrics(report);
    if (traceWriter_)
        traceWriter_->finish();
    return report;
}

void
SecureMemorySim::auditAccounting() const
{
    check::countChecks();
    const auto expect = [](std::uint64_t got, std::uint64_t want,
                           const std::string &what) {
        if (got != want) {
            check::fail("metrics", what + ": got " +
                                       std::to_string(got) +
                                       ", expected " +
                                       std::to_string(want));
        }
    };
    if (!controller_)
        return;

    // With the controller in the path, every DRAM transfer is one of
    // its categorized accesses — in each phase window separately.
    const std::string mem = memory_->name();
    static constexpr const char *kCats[] = {"data", "counter", "hash",
                                            "tree", "reencrypt"};
    for (const char *window : {"warmup", "measure"}) {
        const bool warm = window[0] == 'w';
        const auto read = [&](const std::string &name) {
            return warm ? registry_.warmup(name)
                        : registry_.measure(name);
        };
        std::uint64_t categorized = 0;
        for (const char *cat : kCats) {
            categorized += read("secmem.mem." + std::string(cat) +
                                ".reads");
            categorized += read("secmem.mem." + std::string(cat) +
                                ".writes");
        }
        expect(read(mem + ".reads") + read(mem + ".writes"), categorized,
               std::string(window) +
                   "-window DRAM accesses != controller categories");
    }

    // The controller's overflow statistic mirrors the functional
    // counter store exactly (whole run).
    expect(registry_.total("secmem.page_overflows"),
           registry_.total("secmem.counters.page_overflows"),
           "controller page overflows != counter-store overflows");
}

void
SecureMemorySim::exportMetrics(RunReport &report)
{
    // Derived metrics: every rate the figures report, computed in one
    // place (metrics/derived.hpp) and recorded with the registry.
    registry_.derived("derived.llc.mpki", report.llcMpki, 4);
    registry_.derived("derived.metadata.mpki", report.metadataMpki, 4);
    registry_.derived("derived.mem.accesses_per_request",
                      report.memAccessesPerRequest, 4);
    registry_.derived("derived.cycles",
                      static_cast<double>(report.cycles), 0);
    registry_.derived("derived.seconds", report.seconds, 9);
    registry_.derived("derived.energy.l1_pj", report.energy.l1Pj, 1);
    registry_.derived("derived.energy.l2_pj", report.energy.l2Pj, 1);
    registry_.derived("derived.energy.llc_pj", report.energy.llcPj, 1);
    registry_.derived("derived.energy.mdcache_pj",
                      report.energy.mdCachePj, 1);
    registry_.derived("derived.energy.dram_pj", report.energy.dramPj, 1);
    registry_.derived("derived.energy.leakage_pj",
                      report.energy.leakagePj, 1);
    registry_.derived("derived.energy.total_pj",
                      report.energy.totalPj(), 1);
    registry_.derived("derived.ed2", report.ed2, 18);

    report.metricsExport = registry_.exportAll();
}

RunReport
SecureMemorySim::runSampled()
{
    constexpr std::uint64_t kHeartbeatRefs = 32 * 1024;
    const auto wall_start = std::chrono::steady_clock::now();
    const sampling::SampleSpec spec = cfg_.sample;

    // ---- 1. Profiling pass: stream the generator once (no caches, no
    // controller — this is the cheap pass) and embed every interval.
    const auto plan = sampling::planIntervals(cfg_.warmupRefs,
                                              cfg_.measureRefs, spec);
    sampling::IntervalProfiler profiler(
        plan, cfg_.hierarchy.llcBytes / kBlockSize);
    const std::uint64_t need = profiler.refsNeeded();
    std::vector<MemRef> buf(4096);
    for (std::uint64_t i = 0; i < need;) {
        runner::heartbeat();
        const std::uint64_t n = std::min<std::uint64_t>(
            buf.size(), std::min(need - i, kHeartbeatRefs));
        generator_->nextBatch(buf.data(), n);
        profiler.observeBatch(buf.data(), n);
        i += n;
    }
    const auto features = profiler.finish();
    std::vector<sampling::Point> points;
    points.reserve(features.size());
    for (const auto &f : features)
        points.push_back(f.embed());

    // ---- 2. Cluster and pick representatives.
    const unsigned want_k =
        spec.autoK ? sampling::autoK(points, cfg_.seed) : spec.k;
    const auto clustering = sampling::kmeans(points, want_k, cfg_.seed);

    std::vector<std::uint64_t> member_refs(clustering.k, 0);
    for (std::size_t i = 0; i < points.size(); ++i)
        member_refs[clustering.assignment[i]] +=
            plan.intervals[i].length;

    // ---- 3. Single forward execution pass: visit every selected
    // interval (cluster representatives plus variance probes) in stream
    // order, over THIS simulation's own components. Gaps between
    // selected intervals are functionally warmed (hierarchy state only,
    // request sink short-circuited), so cache contents at every
    // interval boundary match the full run exactly; a short detailed
    // prefix before each interval re-heats the metadata cache and DRAM
    // row state. Counter deltas are measured from registry totals
    // around each recorded window.
    struct Slice
    {
        std::size_t interval; ///< index into plan.intervals
        unsigned cluster;
        bool probe;
        std::uint64_t recLen; ///< recorded prefix of the interval
        std::vector<std::uint64_t> counters; ///< per-counter deltas
        std::vector<std::vector<std::uint64_t>> buckets;
        Cycles cycles = 0;
    };
    std::vector<Slice> slices;
    std::vector<char> probed(clustering.k, 0);
    for (unsigned c = 0; c < clustering.k; ++c) {
        const std::size_t rep = clustering.representative[c];
        slices.push_back({rep, c, false, plan.intervals[rep].length,
                          {}, {}, 0});
        // Probe a second member only when the cluster is genuinely
        // spread out — tight clusters get the relative floor only. A
        // probe exists to expose the cluster's rate variance, so half
        // the interval yields the rate at half the simulation cost
        // (composeEstimate works on rates, probeRefs carries the
        // window).
        if (clustering.members[c] >= 2 &&
            clustering.spread[c] > sampling::kProbeSpread) {
            probed[c] = 1;
            const std::size_t sec = clustering.secondary[c];
            slices.push_back({sec, c, true,
                              std::max<std::uint64_t>(
                                  1, plan.intervals[sec].length / 2),
                              {}, {}, 0});
        }
    }
    std::sort(slices.begin(), slices.end(),
              [&](const Slice &a, const Slice &b) {
                  return plan.intervals[a.interval].start <
                         plan.intervals[b.interval].start;
              });

    // The profiling pass consumed the stream; restart it from the seed
    // (AccessGenerator::reset is bit-exact with a fresh generator).
    generator_->reset();

    // Registry totals at a point in the pass. The registry never takes
    // a phase snapshot here, so exportAll's totals (and the warmup +
    // measure bucket sum) are plain whole-run counts — well-defined
    // deltas across any two points.
    struct Snap
    {
        std::vector<std::uint64_t> counters;
        std::vector<std::vector<std::uint64_t>> buckets;
        Cycles cycles = 0;
    };
    const auto snap = [this]() {
        Snap s;
        const auto ex = registry_.exportAll();
        s.counters.reserve(ex.counters.size());
        for (const auto &c : ex.counters)
            s.counters.push_back(c.total);
        s.buckets.reserve(ex.histograms.size());
        for (const auto &h : ex.histograms) {
            std::vector<std::uint64_t> total(
                std::max(h.warmupBuckets.size(),
                         h.measureBuckets.size()),
                0);
            for (std::size_t b = 0; b < h.warmupBuckets.size(); ++b)
                total[b] += h.warmupBuckets[b];
            for (std::size_t b = 0; b < h.measureBuckets.size(); ++b)
                total[b] += h.measureBuckets[b];
            s.buckets.push_back(std::move(total));
        }
        s.cycles = cycles_;
        return s;
    };
    const auto advance = [&](std::uint64_t n, bool record) {
        for (std::uint64_t i = 0; i < n;) {
            runner::heartbeat();
            const std::uint64_t chunk = std::min<std::uint64_t>(
                buf.size(), std::min(n - i, kHeartbeatRefs));
            generator_->nextBatch(buf.data(), chunk);
            // Recorded windows advance the unit-IPC core clock like the
            // full run's measure loop; warm prefixes advance it only by
            // read stalls (full-run warmup semantics).
            hierarchy_->accessBatch(buf.data(), chunk,
                                    record ? &cycles_ : nullptr);
            i += chunk;
        }
    };

    std::uint64_t pos = 0, simulated = 0;
    for (auto &slice : slices) {
        const auto &iv = plan.intervals[slice.interval];
        // Probes get half the detailed warm prefix: a colder metadata
        // cache can only inflate the probe's rate difference, i.e. the
        // spread estimate errs conservative (wider bounds, never
        // tighter).
        const std::uint64_t warm_want =
            slice.probe ? plan.warmupRefs / 2 : plan.warmupRefs;
        const std::uint64_t warm_start = std::max(
            pos,
            iv.start >= warm_want ? iv.start - warm_want : 0);
        // Functional warming over the gap: the hierarchy's state
        // transition does not depend on the request sink, so streaming
        // the gap references through the caches with the sink
        // short-circuited leaves L1/L2/LLC bit-identical to the full
        // run at the interval boundary — at hierarchy-only cost. The
        // detailed warm prefix that follows re-heats the sink-side
        // state the gap cannot touch (metadata cache, DRAM rows).
        measuring_ = false;
        warmingOnly_ = true;
        advance(warm_start - pos, false);
        warmingOnly_ = false;
        advance(iv.start - warm_start, false);
        const Snap before = snap();
        // The user's metadata tap fires for representative slices only,
        // so tap-fed analyzers see each cluster's canonical slice
        // exactly once.
        measuring_ = !slice.probe;
        advance(slice.recLen, true);
        measuring_ = false;
        const Snap after = snap();
        slice.cycles = after.cycles - before.cycles;
        slice.counters.resize(before.counters.size());
        for (std::size_t j = 0; j < before.counters.size(); ++j)
            slice.counters[j] =
                after.counters[j] - before.counters[j];
        slice.buckets.resize(before.buckets.size());
        for (std::size_t h = 0; h < before.buckets.size(); ++h) {
            auto delta = after.buckets[h];
            for (std::size_t b = 0; b < before.buckets[h].size(); ++b)
                delta[b] -= before.buckets[h][b];
            slice.buckets[h] = std::move(delta);
        }
        simulated += (iv.start - warm_start) + slice.recLen;
        pos = iv.start + slice.recLen;
    }

    // End-of-pass audits, same as a full run: structural shadow audit
    // of every cache array plus the cross-component accounting audit
    // (whose warmup window is identically zero here — no phase snapshot
    // is ever taken on a sampled run's registry).
    for (auto &shadow : cacheShadows_)
        shadow->finalAudit();
    if (check::enabled())
        auditAccounting();

    // ---- 4. Compose weighted per-counter estimates from the slice
    // deltas. One registry, fixed attachment order: every snapshot
    // exports the same names at the same indices.
    const auto ref_export = registry_.exportAll();
    const auto &ref_counters = ref_export.counters;
    std::vector<const Slice *> rep_slice(clustering.k, nullptr);
    std::vector<const Slice *> probe_slice(clustering.k, nullptr);
    for (const auto &s : slices)
        (s.probe ? probe_slice : rep_slice)[s.cluster] = &s;
    EstimateMap est;
    const auto compose = [&](const auto &value_of) {
        std::vector<sampling::ClusterSample> cs(clustering.k);
        for (unsigned c = 0; c < clustering.k; ++c) {
            cs[c].memberRefs = member_refs[c];
            cs[c].repRefs = rep_slice[c]->recLen;
            cs[c].repCount = value_of(*rep_slice[c]);
            if (probe_slice[c]) {
                cs[c].probed = true;
                cs[c].probeRefs = probe_slice[c]->recLen;
                cs[c].probeCount = value_of(*probe_slice[c]);
            }
        }
        return sampling::composeEstimate(cs);
    };
    for (std::size_t j = 0; j < ref_counters.size(); ++j) {
        est[ref_counters[j].name] = compose([&](const Slice &s) {
            return static_cast<double>(s.counters[j]);
        });
    }
    const sampling::Estimate cycles_est = compose(
        [](const Slice &s) { return static_cast<double>(s.cycles); });

    const auto at = [&](const std::string &name) {
        const auto it = est.find(name);
        return it == est.end() ? sampling::Estimate{} : it->second;
    };
    const auto plus = [](sampling::Estimate a,
                         const sampling::Estimate &b) {
        // Bounds add: conservative for sums of correlated estimates.
        return sampling::Estimate{a.value + b.value, a.bound + b.bound};
    };

    // ---- 5. Assemble the report from composed views; the derived
    // ratios come from ratio estimates so the figure rows and the
    // bounds section agree exactly.
    RunReport report;
    report.benchmark = cfg_.benchmark;
    report.hierarchy = composedView<HierarchyStats>("hierarchy", est);
    report.instructions = report.hierarchy.instructions;
    report.refs = report.hierarchy.refs;
    report.memory =
        composedView<MemoryStats>(memory_->name(), est);

    const auto inst_est = at("hierarchy.instructions");
    const auto llc_mpki = sampling::ratioEstimate(
        at("hierarchy.llc.misses"), inst_est, 1000.0);
    report.llcMpki = llc_mpki.value;

    sampling::Estimate md_mpki, mem_per_req, md_traffic;
    if (controller_) {
        report.controller =
            composedView<ControllerStats>("secmem", est);
        report.mdCache = composedView<MetadataCacheStats>(
            "secmem.mdcache", est);
        sampling::Estimate md_missed;
        for (const char *type : {"counter", "tree", "hash"}) {
            const std::string t(type);
            md_missed = plus(md_missed,
                             at("secmem.mdcache." + t + ".misses"));
            md_missed = plus(md_missed,
                             at("secmem.mdcache." + t + ".bypasses"));
        }
        md_mpki = sampling::ratioEstimate(md_missed, inst_est, 1000.0);
        report.metadataMpki = md_mpki.value;

        sampling::Estimate mem_total, requests;
        for (const char *cat :
             {"data", "counter", "hash", "tree", "reencrypt"}) {
            const std::string c(cat);
            const auto reads = at("secmem.mem." + c + ".reads");
            const auto writes = at("secmem.mem." + c + ".writes");
            mem_total = plus(mem_total, plus(reads, writes));
            if (c != "data")
                md_traffic = plus(md_traffic, plus(reads, writes));
        }
        requests = plus(at("secmem.requests.read"),
                        at("secmem.requests.write"));
        mem_per_req = sampling::ratioEstimate(mem_total, requests);
        report.memAccessesPerRequest = mem_per_req.value;
    }

    report.cycles = roundCount(cycles_est.value);
    report.seconds = energyModel_.secondsOf(report.cycles);

    // Energy follows the full-run conventions with estimated counts.
    // l1/l2/llc dynamic energy spans both phases there; the composed
    // estimates cover the measure window, so scale them by the
    // whole-run/measure reference ratio.
    const double both_phase =
        static_cast<double>(cfg_.warmupRefs + cfg_.measureRefs) /
        static_cast<double>(cfg_.measureRefs);
    const auto level_accesses = [&](const std::string &prefix) {
        return roundCount(both_phase *
                          (at(prefix + ".hits").value +
                           at(prefix + ".misses").value));
    };
    report.energy.l1Pj = energyModel_.cacheDynamicPj(
        cfg_.hierarchy.l1Bytes, level_accesses("l1"));
    report.energy.l2Pj = energyModel_.cacheDynamicPj(
        cfg_.hierarchy.l2Bytes, level_accesses("l2"));
    report.energy.llcPj = energyModel_.cacheDynamicPj(
        cfg_.hierarchy.llcBytes, level_accesses("llc"));
    std::uint64_t sram_bytes = cfg_.hierarchy.l1Bytes +
                               cfg_.hierarchy.l2Bytes +
                               cfg_.hierarchy.llcBytes;
    if (controller_) {
        std::uint64_t md_accesses = 0;
        for (unsigned t = 0; t < kNumMetadataTypes; ++t) {
            md_accesses +=
                report.mdCache.accesses[t] - report.mdCache.bypasses[t];
        }
        if (cfg_.secure.cacheEnabled) {
            report.energy.mdCachePj = energyModel_.cacheDynamicPj(
                cfg_.secure.cache.sizeBytes, md_accesses);
            sram_bytes += cfg_.secure.cache.sizeBytes;
        }
    }
    report.energy.dramPj =
        energyModel_.dramAccessPj() *
        static_cast<double>(report.memory.accesses());
    report.energy.leakagePj =
        energyModel_.leakagePj(sram_bytes, report.seconds);
    report.ed2 =
        energyDelaySquared(report.energy.totalPj(), report.seconds);

    // ---- 6. Composed registry export: same names, same order, same
    // derived records as a full run, counters replaced by estimates
    // (warmup window empty — the pass warms for cache state, not
    // statistics). Histogram buckets are weighted per cluster.
    metrics::Registry::Export ex;
    for (const auto &c : ref_counters) {
        metrics::Registry::CounterRecord rec;
        rec.name = c.name;
        rec.measure = roundCount(est[c.name].value);
        rec.total = rec.measure;
        ex.counters.push_back(std::move(rec));
    }
    const auto derived = [&ex](std::string name, double v, int p) {
        ex.derived.push_back({std::move(name), v, p});
    };
    derived("derived.llc.mpki", report.llcMpki, 4);
    derived("derived.metadata.mpki", report.metadataMpki, 4);
    derived("derived.mem.accesses_per_request",
            report.memAccessesPerRequest, 4);
    derived("derived.cycles", static_cast<double>(report.cycles), 0);
    derived("derived.seconds", report.seconds, 9);
    derived("derived.energy.l1_pj", report.energy.l1Pj, 1);
    derived("derived.energy.l2_pj", report.energy.l2Pj, 1);
    derived("derived.energy.llc_pj", report.energy.llcPj, 1);
    derived("derived.energy.mdcache_pj", report.energy.mdCachePj, 1);
    derived("derived.energy.dram_pj", report.energy.dramPj, 1);
    derived("derived.energy.leakage_pj", report.energy.leakagePj, 1);
    derived("derived.energy.total_pj", report.energy.totalPj(), 1);
    derived("derived.ed2", report.ed2, 18);
    for (std::size_t h = 0; h < ref_export.histograms.size(); ++h) {
        metrics::Registry::HistogramRecord hr;
        hr.name = ref_export.histograms[h].name;
        for (unsigned c = 0; c < clustering.k; ++c) {
            const auto &src = rep_slice[c]->buckets[h];
            const double w =
                static_cast<double>(member_refs[c]) /
                static_cast<double>(
                    plan.intervals[clustering.representative[c]].length);
            if (hr.measureBuckets.size() < src.size())
                hr.measureBuckets.resize(src.size(), 0);
            for (std::size_t b = 0; b < src.size(); ++b)
                hr.measureBuckets[b] += roundCount(
                    w * static_cast<double>(src[b]));
        }
        hr.warmupBuckets.assign(hr.measureBuckets.size(), 0);
        for (const auto count : hr.measureBuckets)
            hr.totalCount += count;
        ex.histograms.push_back(std::move(hr));
    }
    report.metricsExport = std::move(ex);

    // ---- 7. The sampling section of the report.
    auto &s = report.sampling;
    s.enabled = true;
    s.spec = spec.str();
    s.intervalRefs = plan.intervalRefs;
    s.intervals = plan.intervals.size();
    s.k = clustering.k;
    s.simulatedRefs = simulated;
    s.fullRefs = cfg_.warmupRefs + cfg_.measureRefs;
    std::uint64_t covered = 0;
    for (const auto &iv : plan.intervals)
        covered += iv.length;
    s.coverage = static_cast<double>(covered) /
                 static_cast<double>(cfg_.measureRefs);
    for (unsigned c = 0; c < clustering.k; ++c) {
        sampling::ClusterReport cr;
        cr.cluster = c;
        cr.members = clustering.members[c];
        cr.memberRefs = member_refs[c];
        cr.weight = static_cast<double>(member_refs[c]) /
                    static_cast<double>(cfg_.measureRefs);
        cr.repStart = plan.intervals[clustering.representative[c]].start;
        cr.repLen = plan.intervals[clustering.representative[c]].length;
        cr.spread = clustering.spread[c];
        cr.probed = probed[c] != 0;
        s.clusters.push_back(cr);
    }
    const auto bound = [&s](std::string name,
                            const sampling::Estimate &e, int precision) {
        s.bounds.push_back({std::move(name), e.value, e.bound,
                            precision});
    };
    bound("hierarchy.llc.misses", at("hierarchy.llc.misses"), 0);
    bound("derived.llc.mpki", llc_mpki, 4);
    bound(memory_->name() + ".accesses",
          plus(at(memory_->name() + ".reads"),
               at(memory_->name() + ".writes")),
          0);
    if (controller_) {
        bound("derived.metadata.mpki", md_mpki, 4);
        bound("derived.mem.accesses_per_request", mem_per_req, 4);
        bound("secmem.mem.metadata_accesses", md_traffic, 0);
    }

    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    report.refsPerSec =
        report.wallSeconds > 0.0
            ? static_cast<double>(simulated) / report.wallSeconds
            : 0.0;
    return report;
}

RunReport
runBenchmark(const SimConfig &cfg)
{
    return SecureMemorySim(cfg).run();
}

} // namespace maps
