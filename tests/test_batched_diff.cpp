/**
 * @file
 * Differential tests of the batched simulation core against the scalar
 * reference loop (SimConfig::batchRefs = 0). The contract is bit-exact
 * equivalence: for any workload, seed and replacement policy, a batched
 * run must produce the same statistics, the same full metrics export
 * and the same maps::check verdicts as the per-reference loop, for
 * every batch size — including ones that do not divide the reference
 * counts.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/check.hpp"
#include "core/simulator.hpp"
#include "util/rng.hpp"

namespace maps {
namespace {

SimConfig
diffConfig(const std::string &bench, std::uint64_t seed)
{
    SimConfig cfg;
    cfg.benchmark = bench;
    cfg.seed = seed;
    cfg.warmupRefs = 5'000;
    cfg.measureRefs = 30'000;
    cfg.secure.layout.protectedBytes = 256_MiB;
    cfg.useDram = false; // fixed latency keeps the suite fast
    return cfg;
}

void
expectSameExport(const metrics::Registry::Export &a,
                 const metrics::Registry::Export &b)
{
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].name, b.counters[i].name);
        EXPECT_EQ(a.counters[i].warmup, b.counters[i].warmup)
            << a.counters[i].name;
        EXPECT_EQ(a.counters[i].measure, b.counters[i].measure)
            << a.counters[i].name;
        EXPECT_EQ(a.counters[i].total, b.counters[i].total)
            << a.counters[i].name;
    }
    ASSERT_EQ(a.derived.size(), b.derived.size());
    for (std::size_t i = 0; i < a.derived.size(); ++i) {
        EXPECT_EQ(a.derived[i].name, b.derived[i].name);
        EXPECT_EQ(a.derived[i].value, b.derived[i].value)
            << a.derived[i].name;
    }
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (std::size_t i = 0; i < a.histograms.size(); ++i) {
        EXPECT_EQ(a.histograms[i].name, b.histograms[i].name);
        EXPECT_EQ(a.histograms[i].warmupBuckets,
                  b.histograms[i].warmupBuckets)
            << a.histograms[i].name;
        EXPECT_EQ(a.histograms[i].measureBuckets,
                  b.histograms[i].measureBuckets)
            << a.histograms[i].name;
    }
}

void
expectSameReport(const RunReport &a, const RunReport &b)
{
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.llcMpki, b.llcMpki);
    EXPECT_EQ(a.metadataMpki, b.metadataMpki);
    EXPECT_EQ(a.memAccessesPerRequest, b.memAccessesPerRequest);
    EXPECT_EQ(a.energy.totalPj(), b.energy.totalPj());
    EXPECT_EQ(a.ed2, b.ed2);
    expectSameExport(a.metricsExport, b.metricsExport);
}

/** Scalar vs batched, every replacement policy, randomized seeds. */
class BatchedDiffPolicy : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BatchedDiffPolicy, ScalarAndBatchedRunsAgree)
{
    const std::string policy = GetParam();
    // Derive per-policy workload/seed pairs from a seeded RNG so the
    // suite is randomized but reproducible.
    Rng rng(0xD1FFu ^ std::hash<std::string>{}(policy));
    static const char *kBenches[] = {"canneal", "libquantum", "mcf",
                                     "barnes"};
    for (int round = 0; round < 2; ++round) {
        const std::string bench = kBenches[rng.nextBounded(4)];
        const std::uint64_t seed = rng.nextRange(1, 1'000'000);
        SimConfig scalar_cfg = diffConfig(bench, seed);
        scalar_cfg.hierarchy.policy = policy;
        scalar_cfg.secure.cache.policy = policy;
        scalar_cfg.batchRefs = 0; // reference semantics

        SimConfig batched_cfg = scalar_cfg;
        batched_cfg.batchRefs = 1024;

        // A batch size that divides neither 5000 nor 30000: the tail
        // batch exercises the remainder path.
        SimConfig ragged_cfg = scalar_cfg;
        ragged_cfg.batchRefs = 37;

        const RunReport scalar = runBenchmark(scalar_cfg);
        const RunReport batched = runBenchmark(batched_cfg);
        const RunReport ragged = runBenchmark(ragged_cfg);

        SCOPED_TRACE(policy + "/" + bench + "/seed=" +
                     std::to_string(seed));
        expectSameReport(scalar, batched);
        expectSameReport(scalar, ragged);
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BatchedDiffPolicy,
                         ::testing::Values("lru", "plru", "random",
                                           "srrip", "eva"),
                         [](const auto &info) { return info.param; });

/** The banked DRAM model is timing-stateful; cover it explicitly. */
TEST(BatchedDiff, DramTimingAgrees)
{
    SimConfig scalar_cfg = diffConfig("leslie3d", 11);
    scalar_cfg.useDram = true;
    scalar_cfg.batchRefs = 0;
    SimConfig batched_cfg = scalar_cfg;
    batched_cfg.batchRefs = 256;

    expectSameReport(runBenchmark(scalar_cfg),
                     runBenchmark(batched_cfg));
}

/** Identical maps::check verdicts through both paths. */
TEST(BatchedDiff, CheckVerdictsAgree)
{
    check::setEnabled(true);
    check::setFailureMode(check::FailureMode::Record);

    check::resetStats();
    SimConfig scalar_cfg = diffConfig("canneal", 7);
    scalar_cfg.batchRefs = 0;
    const RunReport scalar = runBenchmark(scalar_cfg);
    const std::uint64_t scalar_failures = check::failureCount();
    const std::uint64_t scalar_checks = check::checkCount();

    check::resetStats();
    SimConfig batched_cfg = scalar_cfg;
    batched_cfg.batchRefs = 1024;
    const RunReport batched = runBenchmark(batched_cfg);
    const std::uint64_t batched_failures = check::failureCount();
    const std::uint64_t batched_checks = check::checkCount();

    check::setEnabled(false);
    check::resetStats();

    EXPECT_EQ(scalar_failures, 0u);
    EXPECT_EQ(batched_failures, 0u);
    // The shadow models audit per access, so the check *count* is also
    // a stream fingerprint: batching must not change what gets audited.
    EXPECT_EQ(scalar_checks, batched_checks);
    expectSameReport(scalar, batched);
}

/** Generator nextBatch == n successive next() calls, ragged tail. */
TEST(BatchedDiff, GeneratorBatchMatchesScalar)
{
    static const char *kBenches[] = {"canneal", "libquantum", "fft",
                                     "leslie3d", "mcf", "barnes"};
    for (const char *bench : kBenches) {
        auto scalar_gen = makeBenchmark(bench, 5);
        auto batch_gen = makeBenchmark(bench, 5);
        std::vector<MemRef> got(1000);
        for (std::size_t i = 0; i < got.size();) {
            const std::size_t n =
                std::min<std::size_t>(173, got.size() - i);
            batch_gen->nextBatch(got.data() + i, n);
            i += n;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            const MemRef want = scalar_gen->next();
            ASSERT_EQ(got[i].addr, want.addr) << bench << " ref " << i;
            ASSERT_EQ(got[i].type, want.type) << bench << " ref " << i;
            ASSERT_EQ(got[i].instGap, want.instGap)
                << bench << " ref " << i;
        }
    }
}

} // namespace
} // namespace maps
