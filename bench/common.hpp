/**
 * @file
 * Shared plumbing for the figure/table benches, now a thin veneer over
 * the maps::runner experiment harness (src/core/runner.hpp): every
 * driver parses the common CLI (--quick/--full/--scale, --seed, --jobs,
 * --format, --out), declares its sweep as a grid of cells, and lets
 * ExperimentRunner execute them in parallel and render the rows through
 * the selected ResultSink.
 *
 * Scaling: the paper simulates 500M instructions per benchmark on a
 * cluster; these harnesses default to a few million references per run
 * so the whole suite finishes in minutes. Pass --quick for a fast
 * sanity sweep or --full for a larger one; shapes are stable across
 * scales (EXPERIMENTS.md records the defaults used).
 */
#ifndef MAPS_BENCH_COMMON_HPP
#define MAPS_BENCH_COMMON_HPP

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/runner.hpp"
#include "core/simulator.hpp"
#include "util/table.hpp"

namespace maps::bench {

using runner::Cell;
using runner::CellOutput;
using runner::Experiment;
using runner::ExperimentMeta;
using runner::ExperimentRunner;
using runner::Options;
using runner::Row;
using runner::SectionRow;
using runner::Value;

/**
 * Baseline configuration shared by the experiments (Table I shapes),
 * carrying the run's --sample spec.
 */
inline SimConfig
defaultConfig(const std::string &benchmark, const Options &opts,
              std::uint64_t measure_base = 800'000,
              std::uint64_t warmup_base = 250'000)
{
    SimConfig cfg;
    cfg.benchmark = benchmark;
    cfg.seed = opts.seed;
    cfg.warmupRefs = opts.refs(warmup_base);
    cfg.measureRefs = opts.refs(measure_base);
    cfg.secure.layout.protectedBytes = 256_MiB;
    cfg.useDram = true;
    cfg.sample = opts.sample;
    return cfg;
}

/**
 * Append the run's metrics-registry export to a cell's output, honoring
 * the driver's --metrics level (opts.metrics):
 *
 *   off      nothing — the default bench output (and every golden) is
 *            byte-identical to a build without the registry;
 *   summary  one "maps::metrics" row per derived metric, plus one
 *            "maps::metrics runtime" row with the cell's host
 *            wall-clock time and simulated refs/sec;
 *   full     summary plus one "maps::metrics counters" row per raw
 *            counter (warmup/measure/total windows) and one
 *            "maps::metrics histograms" row per distribution.
 *
 * The rows ride the normal CellOutput, so ordering, --resume
 * checkpoints and --jobs independence all hold for them automatically —
 * except the "maps::metrics runtime" row, whose wall-clock values are
 * nondeterministic by nature (tests/golden/metrics_identity.cmake
 * filters it before comparing runs). Call once per simulation run, from
 * the cell's work function.
 */
inline void
addMetricsRows(const Options &opts, CellOutput &out,
               const std::string &cell, const RunReport &report)
{
    // Sampled runs always disclose how their numbers were produced,
    // whatever the --metrics level: one "maps::metrics sampling" row
    // per run (schema sampling::kSchemaVersion), one "... clusters" row
    // per cluster, and one "... bounds" row per validated metric with
    // its half-width error bound. A full run emits none of these, so
    // every golden stays byte-identical.
    if (report.sampling.enabled) {
        const auto &s = report.sampling;
        {
            Row row;
            row.add("schema", sampling::kSchemaVersion)
                .add("cell", cell)
                .add("spec", s.spec)
                .add("k", static_cast<std::uint64_t>(s.k))
                .add("intervals", s.intervals)
                .add("interval_refs", s.intervalRefs)
                .add("simulated_refs", s.simulatedRefs)
                .add("full_refs", s.fullRefs)
                .add("speedup", s.speedup(), 2)
                .add("coverage", s.coverage, 4);
            out.add("maps::metrics sampling", std::move(row));
        }
        for (const auto &c : s.clusters) {
            Row row;
            row.add("schema", sampling::kSchemaVersion)
                .add("cell", cell)
                .add("cluster", static_cast<std::uint64_t>(c.cluster))
                .add("members", c.members)
                .add("member_refs", c.memberRefs)
                .add("weight", c.weight, 4)
                .add("rep_start", c.repStart)
                .add("rep_len", c.repLen)
                .add("spread", c.spread, 4)
                .add("probed", c.probed ? "yes" : "no");
            out.add("maps::metrics sampling clusters", std::move(row));
        }
        for (const auto &b : s.bounds) {
            Row row;
            row.add("schema", sampling::kSchemaVersion)
                .add("cell", cell)
                .add("name", b.name)
                .add("estimate", b.estimate, b.precision)
                .add("bound", b.bound, b.precision);
            out.add("maps::metrics sampling bounds", std::move(row));
        }
    }
    // Estimated runs disclose their tier the same way, whatever the
    // --metrics level: one "maps::metrics estimator" row per run
    // (schema estimator::kSchemaVersion) and, for analytic cells, one
    // "... bounds" row per metric with its claimed relative tolerance
    // (enforced by bench/check_estimator). Under the default
    // --estimator=sim nothing is emitted and every golden stays
    // byte-identical.
    if (report.estimator.enabled) {
        const auto &e = report.estimator;
        {
            Row row;
            row.add("schema", estimator::kSchemaVersion)
                .add("cell", cell)
                .add("mode", e.mode)
                .add("tier", e.tier)
                .add("pinned", e.pinned.empty() ? "-" : e.pinned)
                .add("pivot_llc_bytes", e.pivotLlcBytes)
                .add("pivot_md_bytes", e.pivotMdBytes)
                .add("profiled_refs", e.profiledRefs)
                .add("anchor_refs", e.anchorRefs)
                .add("md_scale", e.mdScale, 4);
            out.add("maps::metrics estimator", std::move(row));
        }
        for (const auto &b : e.bounds) {
            Row row;
            row.add("schema", estimator::kSchemaVersion)
                .add("cell", cell)
                .add("name", b.name)
                .add("estimate", b.estimate, b.precision)
                .add("tolerance", b.tolerance, 3);
            out.add("maps::metrics estimator bounds", std::move(row));
        }
    }
    const auto level = opts.metrics;
    if (level == runner::MetricsLevel::Off)
        return;
    const auto &ex = report.metricsExport;
    for (const auto &d : ex.derived) {
        Row row;
        row.add("schema", ex.schema)
            .add("cell", cell)
            .add("name", d.name)
            .add("value", d.value, d.precision);
        out.add("maps::metrics", std::move(row));
    }
    {
        // Host throughput for this cell's run. Wall-clock derived, so
        // the values vary run to run — consumers wanting determinism
        // must drop this section (goldens never see it: --metrics=off).
        Row row;
        row.add("schema", ex.schema)
            .add("cell", cell)
            .add("refs", report.refs)
            .add("wall_seconds", report.wallSeconds, 3)
            .add("refs_per_sec", report.refsPerSec, 0);
        out.add("maps::metrics runtime", std::move(row));
    }
    if (level != runner::MetricsLevel::Full)
        return;
    for (const auto &c : ex.counters) {
        Row row;
        row.add("schema", ex.schema)
            .add("cell", cell)
            .add("name", c.name)
            .add("warmup", c.warmup)
            .add("measure", c.measure)
            .add("total", c.total);
        out.add("maps::metrics counters", std::move(row));
    }
    const auto bucketText = [](const std::vector<std::uint64_t> &buckets) {
        // Sparse "bucket_index:count" pairs; buckets are log2 latency
        // bins (see util/histogram.hpp).
        std::string text;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (!buckets[i])
                continue;
            if (!text.empty())
                text += ' ';
            text += std::to_string(i) + ":" + std::to_string(buckets[i]);
        }
        return text.empty() ? std::string("-") : text;
    };
    for (const auto &h : ex.histograms) {
        Row row;
        row.add("schema", ex.schema)
            .add("cell", cell)
            .add("name", h.name)
            .add("total_count", h.totalCount)
            .add("warmup_buckets", bucketText(h.warmupBuckets))
            .add("measure_buckets", bucketText(h.measureBuckets));
        out.add("maps::metrics histograms", std::move(row));
    }
}

/**
 * Evaluate one simulation cell through the estimator seam
 * (core/estimator.hpp) under the driver's --estimator tier and append
 * its metrics/sampling/estimator rows to the cell's output under
 * @p label. This is the single helper every driver routes its sweep
 * points through, so the tier applies uniformly without per-driver
 * plumbing.
 *
 * @param kind declare grid interiors with CellKind::Interior so
 *        --estimator=auto can estimate them while the corners stay
 *        simulated; the default Corner is always exact under auto.
 */
inline RunReport
runCell(const Options &opts, const SimConfig &cfg, CellOutput &out,
        const std::string &label,
        estimator::CellKind kind = estimator::CellKind::Corner)
{
    RunReport report = estimator::runWithMode(cfg, opts.estimator, kind);
    addMetricsRows(opts, out, label, report);
    return report;
}

/**
 * First row of a cell's main ("") section — the figure row. Cells that
 * route through runCell may carry metrics/estimator rows ahead of it,
 * so cross-phase consumers must not assume rows.front().
 */
inline const Row &
mainRow(const CellOutput &out)
{
    static const Row kEmpty;
    for (const auto &sr : out.rows)
        if (sr.section.empty())
            return sr.row;
    return kEmpty;
}

} // namespace maps::bench

#endif // MAPS_BENCH_COMMON_HPP
