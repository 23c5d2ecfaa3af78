/**
 * @file
 * The generator side of the batched simulation core: pulling a stream
 * in batches must yield exactly the references of successive next()
 * calls, for batch sizes that do not divide the stream length. The
 * batched loop itself is covered by the goldens, the maps::check
 * shadows and tests/test_stream_memo.cpp.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workloads/suite.hpp"

namespace maps {
namespace {

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
