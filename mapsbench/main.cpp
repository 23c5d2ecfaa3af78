/**
 * @file
 * mapsbench — the MAPS benchmark harness (see README.md beside it).
 *
 *   mapsbench --workload=sim_read|sim_write|analysis|mapsd_jobs
 *             --seed=N --seconds=S --trace=0|1 --bin-dir=DIR
 *             --work-dir=DIR [--reference=FILE] [--write-reference]
 *             [--perturb]
 *
 * A run repeats the workload's fixed work ("rounds") for --seconds and
 * prints a summary, then one JSON line {correct, attempted, failed,
 * metrics}. --trace=0 reports the end-to-end metrics; --trace=1 runs
 * untraced rounds for half the time and traced rounds for the other
 * half and reports the per-layer metrics of the traced rounds.
 * Exit status: 0 when every operation succeeded and every digest
 * matched, 1 otherwise, 2 on bad usage.
 */
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <sys/resource.h>

#include "bench.hpp"
#include "core/estimator.hpp"
#include "core/runner.hpp"
#include "service/json.hpp"

using namespace maps;
using maps::service::Json;

namespace mapsbench {

namespace {

/** The seed the stored reference digests were recorded at. */
constexpr std::uint64_t kDefaultSeed = 1;
/** The runner's worker threads (fixed, under the 4-CPU target). */
constexpr unsigned kJobs = 2;
/** Set-up measurements per run; setup_s is their median. */
constexpr unsigned kSetupPasses = 7;
/** Spans kept in memory per run; further spans are only counted. */
constexpr std::size_t kMaxSpans = 200'000;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 15.0;
    bool trace = false;
    std::string binDir;
    std::string workDir;
    std::string reference;
    bool writeReference = false;
    bool perturb = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = val == "1";
            else if (key == "--bin-dir")
                a.binDir = val;
            else if (key == "--work-dir")
                a.workDir = val;
            else if (key == "--reference")
                a.reference = val;
            else if (arg == "--write-reference")
                a.writeReference = true;
            else if (arg == "--perturb")
                a.perturb = true;
            else
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0 && !a.workDir.empty();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Host time of each op in the previous round, by op id. */
using Durations = std::map<std::string, std::int64_t>;

/**
 * One round of an in-process workload through the experiment runner.
 * Ops are handed out longest-first by their previous round's time, so
 * the round's wall time does not hinge on which worker happens to pick
 * up a long cell last.
 */
Round
runOpsRound(const std::function<std::vector<Op>(const OpConfig &)> &make,
            const OpConfig &oc, Durations &last)
{
    // Every round starts with a cold estimator cache, as every driver
    // invocation does.
    estimator::resetCacheForTests();
    std::vector<Op> ops = make(oc);
    std::stable_sort(ops.begin(), ops.end(),
                     [&last](const Op &a, const Op &b) {
                         return last[a.id] > last[b.id];
                     });
    Round round;
    round.ops.resize(ops.size());
    std::vector<runner::Cell> cells;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        round.ops[i].id = ops[i].id;
        cells.push_back({ops[i].id, 0, [&, i](const runner::Cell &) {
                             OpResult &out = round.ops[i];
                             out.spans = SpanLog(oc.traced, ops[i].id);
                             const int root = out.spans.open(ops[i].id);
                             const std::int64_t t0 = nowNs();
                             ops[i].run(out);
                             out.ns = nowNs() - t0;
                             out.spans.close(root);
                             return runner::CellOutput{};
                         }});
    }
    runner::Options opts;
    opts.jobs = kJobs;
    opts.progress = false;
    opts.seed = oc.seed;
    runner::ExperimentRunner exp(opts);
    const std::int64_t t0 = nowNs();
    exp.run(cells);
    round.wallNs = nowNs() - t0;
    for (const auto &f : exp.failures())
        round.ops[f.index].error =
            f.error.empty() ? "cell failed" : f.error;
    for (const auto &op : round.ops)
        last[op.id] = op.ns;
    return round;
}

/** Rounds until @p budget_s has elapsed and at least @p min_rounds ran. */
std::vector<Round>
runPhase(const std::function<Round()> &round, double budget_s,
         unsigned min_rounds)
{
    std::vector<Round> rounds;
    const std::int64_t t0 = nowNs();
    while (rounds.size() < min_rounds ||
           seconds(nowNs() - t0) < budget_s)
        rounds.push_back(round());
    return rounds;
}

/** Correctness bookkeeping over every operation of a run. */
struct Checker
{
    std::map<std::string, std::string> reference;
    bool haveReference = false;
    /** mapsd job specs beyond the recorded set are not an error. */
    bool referenceIsSample = false;
    std::map<std::string, std::string> seen;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t unchecked = 0;
    std::vector<std::string> problems;

    void fail(const std::string &what)
    {
        ++failed;
        if (problems.size() < 20)
            problems.push_back(what);
    }

    void check(const std::vector<Round> &rounds, bool traced)
    {
        for (const auto &r : rounds) {
            for (const auto &op : r.ops) {
                ++attempted;
                if (!op.error.empty()) {
                    fail(op.id + ": " + op.error);
                    continue;
                }
                const auto [it, fresh] = seen.emplace(op.id, op.digest);
                if (!fresh && it->second != op.digest) {
                    fail(op.id + (traced
                                      ? ": traced pipeline diverged from "
                                        "the untraced run"
                                      : ": nondeterministic output"));
                    continue;
                }
                if (!haveReference)
                    continue;
                const auto ref = reference.find(op.id);
                if (ref == reference.end()) {
                    if (referenceIsSample)
                        ++unchecked;
                    else
                        fail(op.id + ": no reference digest");
                } else if (ref->second != op.digest) {
                    fail(op.id + ": digest " + op.digest +
                         " != reference " + ref->second);
                }
            }
        }
    }
};

bool
loadReference(const std::string &path, const std::string &workload,
              Checker &chk)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::stringstream ss;
    ss << is.rdbuf();
    std::string err;
    const auto doc = Json::parse(ss.str(), err);
    if (!doc)
        return false;
    const Json *w = doc->get("workloads");
    const Json *entry = w ? w->get(workload) : nullptr;
    if (!entry)
        return false;
    for (const auto &[id, digest] : entry->members())
        chk.reference[id] = digest.asString();
    chk.haveReference = true;
    return true;
}

/** Rewrite @p path with this workload's digests (one per line). */
bool
writeReference(const std::string &path, const std::string &workload,
               const std::map<std::string, std::string> &digests)
{
    std::map<std::string, std::map<std::string, std::string>> all;
    {
        std::ifstream is(path);
        std::stringstream ss;
        ss << is.rdbuf();
        std::string err;
        if (const auto doc = Json::parse(ss.str(), err)) {
            if (const Json *w = doc->get("workloads"))
                for (const auto &[name, entry] : w->members())
                    for (const auto &[id, d] : entry.members())
                        all[name][id] = d.asString();
        }
    }
    all[workload] = digests;
    std::ofstream os(path);
    os << "{\n  \"seed\": " << kDefaultSeed << ",\n  \"workloads\": {";
    bool first_w = true;
    for (const auto &[name, entry] : all) {
        os << (first_w ? "\n" : ",\n") << "    " << Json::escape(name)
           << ": {";
        bool first = true;
        for (const auto &[id, d] : entry) {
            os << (first ? "\n" : ",\n") << "      " << Json::escape(id)
               << ": " << Json::escape(d);
            first = false;
        }
        os << "\n    }";
        first_w = false;
    }
    os << "\n  }\n}\n";
    return static_cast<bool>(os);
}

/** Everything a run measured, before it becomes metrics. */
struct RunData
{
    std::vector<Round> untraced;
    std::vector<Round> traced;
    std::vector<double> setupS;
    double peakRssMb = 0.0;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::vector<double>
roundWalls(const std::vector<Round> &rounds)
{
    std::vector<double> v;
    for (const auto &r : rounds)
        v.push_back(seconds(r.wallNs));
    return v;
}

std::uint64_t
simRefs(const std::vector<Round> &rounds)
{
    std::uint64_t n = 0;
    for (const auto &r : rounds)
        for (const auto &op : r.ops)
            n += op.simRefs;
    return n;
}

double
totalWall(const std::vector<Round> &rounds)
{
    double s = 0.0;
    for (const auto &r : rounds)
        s += seconds(r.wallNs);
    return s;
}

std::vector<Metric>
endToEnd(const RunData &d, const std::string &workload,
         const Checker &chk)
{
    // Each op's median latency over the run's rounds; the percentiles
    // are taken across ops. (mapsd jobs each run once.)
    std::map<std::string, std::vector<double>> by_op;
    std::size_t ops = 0;
    for (const auto &r : d.untraced) {
        for (const auto &op : r.ops) {
            by_op[op.id].push_back(static_cast<double>(op.ns) * 1e-6);
            ++ops;
        }
    }
    std::vector<double> op_ms;
    for (const auto &[id, v] : by_op)
        op_ms.push_back(median(v));
    // Throughput of a typical round: robust to the odd round a noisy
    // host stretches, like wall_s itself.
    const double wall = median(roundWalls(d.untraced));
    const double ops_per_round =
        ratio(static_cast<double>(ops),
              static_cast<double>(d.untraced.size()));
    const std::vector<Metric> m{
        {"wall_s", wall, "s"},
        {"setup_s", median(d.setupS), "s"},
        {"peak_rss_mb", d.peakRssMb, "MiB"},
        {"op_p50_ms", quantile(op_ms, 0.5), "ms"},
        {"op_p90_ms", quantile(op_ms, 0.9), "ms"},
        {"ops_per_s", ratio(ops_per_round, wall), "1/s"},
    };
    // Human summary, with the workload-specific names of the same
    // numbers.
    const bool jobs = workload == "mapsd_jobs";
    std::printf("workload %s: %zu rounds, %zu %s, %zu distinct (all host "
                "time)\n",
                workload.c_str(), d.untraced.size(), ops,
                jobs ? "jobs" : "cells", op_ms.size());
    for (const auto &x : m)
        std::printf("  %-16s %14.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    const auto walls = roundWalls(d.untraced);
    std::printf("  round wall_s quartiles %.4g %.4g %.4g, range %.4g-%.4g\n",
                quantile(walls, 0.25), quantile(walls, 0.5),
                quantile(walls, 0.75), quantile(walls, 0.0),
                quantile(walls, 1.0));
    std::printf("  %-16s %14.6g ratio\n", "fail_frac",
                ratio(static_cast<double>(chk.failed),
                      static_cast<double>(chk.attempted)));
    if (jobs) {
        std::printf("  %-16s %14.6g ms (op_p50_ms)\n", "job_p50_ms",
                    m[3].value);
        std::printf("  %-16s %14.6g ms (op_p90_ms)\n", "job_p90_ms",
                    m[4].value);
        std::printf("  %-16s %14.6g jobs/s (ops_per_s)\n", "jobs_per_s",
                    m[5].value);
    } else {
        std::printf("  %-16s %14.6g refs/s\n", "sim_refs_per_s",
                    ratio(static_cast<double>(simRefs(d.untraced)),
                          totalWall(d.untraced)));
    }
    return m;
}

std::vector<Metric>
perLayer(const RunData &d)
{
    LayerStats L;
    double op_ns = 0.0, wall_ns = 0.0;
    std::vector<double> admit, wait, cell_wall, non_cell;
    std::size_t ops = 0;
    for (const auto &r : d.traced) {
        wall_ns += static_cast<double>(r.wallNs);
        for (const auto &op : r.ops) {
            mergeInto(L, op.layers);
            op_ns += static_cast<double>(op.ns);
            ++ops;
            const auto at = [&op](const char *k) {
                const auto it = op.layers.find(k);
                return it == op.layers.end() ? 0.0 : it->second;
            };
            if (at("service.jobs") > 0) {
                admit.push_back(at("service.admit_ns") * 1e-6);
                wait.push_back(at("service.wait_ns") * 1e-6);
                cell_wall.push_back(at("service.cell_wall_ms"));
                if (at("service.cells_run") == 1)
                    non_cell.push_back(static_cast<double>(op.ns) * 1e-6 -
                                       at("service.cell_wall_ms"));
            }
        }
    }
    const double R =
        std::max<double>(1.0, static_cast<double>(d.traced.size()));
    const auto g = [&L](const char *k) {
        const auto it = L.find(k);
        return it == L.end() ? 0.0 : it->second;
    };
    const auto per = [&](const char *k) { return g(k) / R; };
    const auto busy = [&](const char *k) { return g(k) * 1e-9 / R; };

    // Self time: a span minus its nested child spans.
    const double hier_self = g("hierarchy.ns") - g("secmem.ns");
    const double sec_self = g("secmem.ns") - g("mem.ns");
    const double requests =
        g("secmem.read_requests") + g("secmem.write_requests");
    const double jobs = g("service.jobs");
    // The sim core's spans nest secmem and mem inside the hierarchy.
    const double sim_core = g("workloads.ns") + g("hierarchy.ns");
    const double analysis_side =
        g("analysis.reuse.ns") + g("analysis.profile.ns") +
        g("analysis.eval.ns") + g("offline.oracle.build_ns") +
        g("offline.oracle.ns") + g("offline.csopt.ns") + g("estimator.ns");

    return {
        {"workloads.refs", per("workloads.refs"), "count"},
        {"workloads.busy_s", busy("workloads.ns"), "s"},
        {"workloads.ns_per_ref",
         ratio(g("workloads.ns"), g("workloads.refs")), "ns"},
        {"hierarchy.refs", per("hierarchy.refs"), "count"},
        {"hierarchy.self_s", hier_self * 1e-9 / R, "s"},
        {"hierarchy.ns_per_ref", ratio(hier_self, g("hierarchy.refs")),
         "ns"},
        {"hierarchy.llc_misses", per("hierarchy.llc_misses"), "count"},
        {"hierarchy.llc_writebacks", per("hierarchy.llc_writebacks"),
         "count"},
        {"secmem.read_requests", per("secmem.read_requests"), "count"},
        {"secmem.write_requests", per("secmem.write_requests"), "count"},
        {"secmem.self_s", sec_self * 1e-9 / R, "s"},
        {"secmem.ns_per_request", ratio(sec_self, requests), "ns"},
        {"secmem.md_accesses", per("secmem.md_accesses"), "count"},
        {"secmem.mdcache_hit_ratio",
         ratio(g("secmem.md_hits"),
               g("secmem.md_hits") + g("secmem.md_misses")),
         "ratio"},
        {"secmem.tree_levels_fetched", per("secmem.tree_levels_fetched"),
         "count"},
        {"secmem.mem_accesses_per_request",
         ratio(g("secmem.mem_accesses"), requests), "ratio"},
        {"mem.accesses", per("mem.accesses"), "count"},
        {"mem.busy_s", busy("mem.ns"), "s"},
        {"mem.ns_per_access", ratio(g("mem.ns"), g("mem.calls")), "ns"},
        {"mem.row_hit_ratio", ratio(g("mem.row_hits"), g("mem.accesses")),
         "ratio"},
        {"analysis.reuse.observations", per("analysis.reuse.observations"),
         "count"},
        {"analysis.reuse.busy_s", busy("analysis.reuse.ns"), "s"},
        {"analysis.reuse.ns_per_obs",
         ratio(g("analysis.reuse.ns"), g("analysis.reuse.observations")),
         "ns"},
        {"analysis.reuse.unique_blocks",
         per("analysis.reuse.unique_blocks"), "count"},
        {"analysis.profile.refs", per("analysis.profile.refs"), "count"},
        {"analysis.profile.busy_s", busy("analysis.profile.ns"), "s"},
        {"analysis.eval.cells", per("analysis.eval.cells"), "count"},
        {"analysis.eval.busy_s", busy("analysis.eval.ns"), "s"},
        {"offline.oracle.build_s", busy("offline.oracle.build_ns"), "s"},
        {"offline.oracle.next_use_calls",
         per("offline.oracle.next_use_calls"), "count"},
        {"offline.oracle.busy_s", busy("offline.oracle.ns"), "s"},
        {"offline.oracle.divergences", per("offline.oracle.divergences"),
         "count"},
        {"offline.itermin.iterations", per("offline.itermin.iterations"),
         "count"},
        {"offline.csopt.busy_s", busy("offline.csopt.ns"), "s"},
        {"offline.csopt.expansions", per("offline.csopt.expansions"),
         "count"},
        {"offline.csopt.peak_states", per("offline.csopt.peak_states"),
         "count"},
        {"offline.csopt.ns_per_expansion",
         ratio(g("offline.csopt.ns"), g("offline.csopt.expansions")), "ns"},
        {"offline.csopt.exact_frac",
         ratio(g("offline.csopt.exact"), g("offline.csopt.solves")),
         "ratio"},
        {"estimator.cells", per("estimator.cells"), "count"},
        {"estimator.analytic_cells", per("estimator.analytic_cells"),
         "count"},
        {"estimator.pinned_cells", per("estimator.pinned_cells"), "count"},
        {"estimator.busy_s", busy("estimator.ns"), "s"},
        {"sampling.simulated_refs_frac",
         ratio(g("sampling.simulated_refs"), g("sampling.full_refs")),
         "ratio"},
        {"core.sim.busy_s", busy("core.sim.ns"), "s"},
        {"core.sim_refs_per_s",
         ratio(static_cast<double>(simRefs(d.untraced)),
               totalWall(d.untraced)),
         "refs/s"},
        {"runner.cells", jobs > 0 ? 0.0 : static_cast<double>(ops) / R,
         "count"},
        {"runner.idle_frac",
         jobs > 0 ? 0.0 : 1.0 - ratio(op_ns, kJobs * wall_ns), "ratio"},
        {"service.admit_ms", median(admit), "ms"},
        {"service.wait_ms", median(wait), "ms"},
        {"service.cell_wall_ms", median(cell_wall), "ms"},
        {"service.non_cell_ms", median(non_cell), "ms"},
        {"service.cells_run", ratio(g("service.cells_run"), jobs), "count"},
        {"service.rounds", ratio(g("service.rounds"), jobs), "count"},
        {"service.sheds", g("service.sheds"), "count"},
        {"service.retries", g("service.retries"), "count"},
        {"share.sim_core", ratio(sim_core, op_ns), "ratio"},
        {"share.analysis_offline_estimator", ratio(analysis_side, op_ns),
         "ratio"},
        {"trace_overhead_frac",
         ratio(median(roundWalls(d.traced)),
               median(roundWalls(d.untraced))) -
             1.0,
         "ratio"},
    };
}

std::map<std::string, std::string>
digestsOf(const std::vector<Round> &rounds)
{
    std::map<std::string, std::string> digests;
    for (const auto &r : rounds)
        for (const auto &op : r.ops)
            digests.emplace(op.id, op.digest);
    return digests;
}

int
run(const Args &a)
{
    std::function<std::vector<Op>(const OpConfig &)> make;
    unsigned min_rounds = 0;
    if (a.workload == "sim_read") {
        make = simReadOps;
        min_rounds = 9; // 12 cells each: >= 100 cell samples
    } else if (a.workload == "sim_write") {
        make = simWriteOps;
        min_rounds = 9;
    } else if (a.workload == "analysis") {
        make = analysisOps;
        min_rounds = 10; // 11 cells each
    } else if (a.workload != "mapsd_jobs") {
        std::fprintf(stderr, "mapsbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }

    std::error_code ec;
    std::filesystem::create_directories(a.workDir, ec);
    Checker chk;
    if (a.seed == kDefaultSeed && !a.reference.empty() &&
        !a.writeReference) {
        if (!loadReference(a.reference, a.workload, chk)) {
            std::fprintf(stderr,
                         "mapsbench: no reference digests for %s in %s\n",
                         a.workload.c_str(), a.reference.c_str());
            return 1;
        }
        chk.referenceIsSample = !make;
    }

    // A traced run splits its time: untraced rounds (the overhead
    // baseline) then traced rounds.
    const double budget = a.trace ? a.seconds / 2 : a.seconds;
    RunData d;
    if (make) {
        const auto phase = [&](bool traced, unsigned min) {
            OpConfig oc;
            oc.seed = a.seed;
            oc.traced = traced;
            oc.perturb = a.perturb;
            Durations last;
            return runPhase([&] { return runOpsRound(make, oc, last); },
                            budget, min);
        };
        OpConfig oc;
        oc.seed = a.seed;
        const std::vector<Op> ops = make(oc);
        const bool quiet_setup = std::all_of(
            ops.begin(), ops.end(), [](const Op &op) { return !!op.setup; });
        for (unsigned pass = 0; quiet_setup && pass < kSetupPasses; ++pass) {
            std::int64_t ns = 0;
            for (const auto &op : ops)
                ns += op.setup();
            d.setupS.push_back(seconds(ns));
        }
        d.untraced = phase(false, a.trace ? 2 : min_rounds);
        if (a.trace)
            d.traced = phase(true, 2);
        for (const auto &r : d.untraced) {
            if (quiet_setup)
                break;
            std::int64_t setup = 0;
            for (const auto &op : r.ops)
                setup += op.setupNs;
            d.setupS.push_back(seconds(setup));
        }
        rusage ru{};
        ::getrusage(RUSAGE_SELF, &ru);
        d.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        chk.check(d.untraced, false);
        chk.check(d.traced, true);
    } else {
        MapsdJobs svc(a.binDir, a.workDir, a.seed);
        std::string err;
        const auto starts = svc.start(kSetupPasses, err);
        if (starts.empty()) {
            std::fprintf(stderr, "mapsbench: %s\n", err.c_str());
            return 1;
        }
        for (const auto ns : starts)
            d.setupS.push_back(seconds(ns));
        // 13 rounds x 8 jobs: >= 100 latency samples, ten beyond p90.
        d.untraced = runPhase([&] { return svc.round(false); }, budget,
                              a.trace ? 6 : 13);
        if (a.trace)
            d.traced =
                runPhase([&] { return svc.round(true); }, budget, 6);
        const std::string cross = svc.crossCheck();
        d.peakRssMb = static_cast<double>(svc.stop()) / 1024.0;
        chk.check(d.untraced, false);
        chk.check(d.traced, true);
        ++chk.attempted;
        if (!cross.empty())
            chk.fail(cross);
    }

    if (a.writeReference &&
        !writeReference(a.reference, a.workload, digestsOf(d.untraced)))
        return 1;
    if (a.seed != kDefaultSeed || a.perturb) {
        // No stored reference at this seed: print the digests so two
        // builds can be compared run against run.
        for (const auto &[id, digest] : digestsOf(d.untraced))
            std::printf("digest %s %s\n", digest.c_str(), id.c_str());
    }

    std::vector<Metric> metrics;
    if (a.trace) {
        metrics = perLayer(d);
        SpanLog spans(true);
        std::uint64_t dropped = 0;
        for (const auto &r : d.traced) {
            for (const auto &op : r.ops) {
                if (spans.spans().size() + op.spans.spans().size() <=
                    kMaxSpans)
                    spans.append(op.spans);
                else
                    dropped += op.spans.spans().size();
            }
        }
        const std::string path = a.workDir + "/trace.json";
        if (!writeTrace(path, a.workload, spans, dropped))
            chk.fail("cannot write " + path);
        std::printf("workload %s: traced %zu rounds (all host time); "
                    "%zu spans in %s, %llu dropped\n",
                    a.workload.c_str(), d.traced.size(),
                    spans.spans().size(), path.c_str(),
                    static_cast<unsigned long long>(dropped));
        for (const auto &m : metrics)
            std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    } else {
        metrics = endToEnd(d, a.workload, chk);
    }
    if (chk.haveReference)
        std::printf("reference digests (seed %llu): %s, %llu unchecked\n",
                    static_cast<unsigned long long>(kDefaultSeed),
                    chk.failed ? "MISMATCH" : "all match",
                    static_cast<unsigned long long>(chk.unchecked));
    for (const auto &p : chk.problems)
        std::printf("FAILED: %s\n", p.c_str());

    Json out = Json::object();
    out.set("correct", chk.failed == 0);
    out.set("attempted", chk.attempted);
    out.set("failed", chk.failed);
    Json mj = Json::object();
    for (const auto &m : metrics) {
        Json v = Json::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        mj.set(m.name, std::move(v));
    }
    out.set("metrics", std::move(mj));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return chk.failed == 0 ? 0 : 1;
}

} // namespace

} // namespace mapsbench

int
main(int argc, char **argv)
{
    // A fixed mmap threshold: glibc otherwise raises it after the first
    // large free, so whether a cell's large blocks are returned to the
    // system (and peak RSS) would depend on which cells ran before.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    mapsbench::Args args;
    if (!mapsbench::parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: mapsbench --workload=NAME --seed=N "
                     "--seconds=S --trace=0|1 --bin-dir=DIR "
                     "--work-dir=DIR [--reference=FILE] "
                     "[--write-reference] [--perturb]\n");
        return 2;
    }
    return mapsbench::run(args);
}
