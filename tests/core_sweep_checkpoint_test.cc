/**
 * @file
 * Checkpoint/resume of the sweep driver on a lattice larger than one
 * checkpoint interval, in exhaustive mode (stride 1) and adaptive mode
 * (stride 2). The abort hook must fire on the first checkpoint, before
 * the lattice is done; a resumed sweep must replay every checkpointed
 * point from the cache instead of simulating it again; and the
 * resumed result must be bitwise the uninterrupted one.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/parallel.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "support/temp_dir.h"

namespace carbonx
{
namespace
{

/** RAII guard restoring the automatic thread count. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

ExplorerConfig
ercoConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "ERCO";
    cfg.seed = 2020;
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    return cfg;
}

void
expectSameBits(const Evaluation &a, const Evaluation &b,
               const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.point.solar_mw, b.point.solar_mw);
    EXPECT_EQ(a.point.wind_mw, b.point.wind_mw);
    EXPECT_EQ(a.point.battery_mwh, b.point.battery_mwh);
    EXPECT_EQ(a.point.extra_capacity, b.point.extra_capacity);
    EXPECT_EQ(a.coverage_pct, b.coverage_pct);
    EXPECT_EQ(a.operational_kg.value(), b.operational_kg.value());
    EXPECT_EQ(a.embodiedKg().value(), b.embodiedKg().value());
    EXPECT_EQ(a.battery_cycles, b.battery_cycles);
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.renewable_excess_mwh.value(),
              b.renewable_excess_mwh.value());
}

class SweepCheckpoint : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SweepCheckpoint, AbortedSweepResumesToTheUninterruptedResult)
{
    // Two workers: a checkpoint interval of a few hundred points,
    // whatever the host's core count.
    const ThreadCountGuard threads(2);
    const size_t stride = GetParam();
    const Strategy strategy = Strategy::RenewablesOnly;
    // 49 x 49 = 2401 points; the stride-2 coarse pass alone (625
    // points) is larger than one interval.
    const DesignSpace space =
        DesignSpace::forDatacenter(19.0, 10.0, 49, 1, 1);

    CarbonExplorer explorer(ercoConfig());
    AdaptiveSweepOptions options;
    options.coarse_stride = stride;
    const AdaptiveSweeper sweeper(explorer, options);
    const AdaptiveSweepResult uninterrupted = sweeper.sweep(space, strategy);
    const size_t lattice = uninterrupted.stats.lattice_points;
    const size_t interval =
        SweepBatchEvaluator(explorer, strategy).checkpointInterval();
    ASSERT_GT(lattice, interval);

    const std::string path = testsupport::uniqueTestDir() + "stride" +
        std::to_string(stride) + ".cxrc";
    const uint64_t digest = explorer.configDigest(strategy);

    size_t checkpointed = 0;
    {
        SweepResultCache cache(path, digest);
        explorer.setSweepCache(&cache);
        explorer.setAbortAfterPoints(1);
        try {
            sweeper.sweep(space, strategy);
            ADD_FAILURE() << "the abort hook never fired";
        } catch (const SweepAborted &e) {
            checkpointed = e.simulated_points;
            EXPECT_EQ(e.cache_path, path);
        }
        explorer.setAbortAfterPoints(0);
        explorer.setSweepCache(nullptr);
    }
    // The first checkpoint comes after one interval of misses, even
    // though the first evaluate() call holds more points than that.
    EXPECT_EQ(checkpointed, interval);
    EXPECT_LT(checkpointed, lattice);

    SweepResultCache reopened(path, digest);
    EXPECT_EQ(reopened.loadedFromDisk(), checkpointed);
    explorer.setSweepCache(&reopened);
    const AdaptiveSweepResult resumed = sweeper.sweep(space, strategy);
    explorer.setSweepCache(nullptr);

    // Every checkpointed point is replayed, none simulated again.
    EXPECT_EQ(resumed.stats.cache_hits, checkpointed);
    EXPECT_EQ(resumed.stats.simulated_points + checkpointed,
              uninterrupted.stats.simulated_points);

    expectSameBits(resumed.result.best, uninterrupted.result.best,
                   "best");
    ASSERT_EQ(resumed.result.evaluated.size(),
              uninterrupted.result.evaluated.size());
    for (size_t i = 0; i < resumed.result.evaluated.size(); ++i)
        expectSameBits(resumed.result.evaluated[i],
                       uninterrupted.result.evaluated[i],
                       "evaluated/" + std::to_string(i));
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(ExhaustiveAndAdaptive, SweepCheckpoint,
                         ::testing::Values(size_t{1}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t> &p) {
                             return "stride" + std::to_string(p.param);
                         });

} // namespace
} // namespace carbonx
