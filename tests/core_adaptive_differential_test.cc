/**
 * @file
 * Differential harness for the sweep driver: over twenty seeded
 * synthetic regions spanning every balancing authority and strategy,
 * optimize() (the driver at stride 1) must equal the naive exhaustive
 * oracle (tests/support/exhaustive_oracle.h) bit-for-bit, and the
 * adaptive stride must reproduce it — best point, best total carbon,
 * and Pareto frontier — at 1, 2, and automatic thread counts, while
 * the designated budget regions prove it simulates at most half of
 * the lattice. A warm result cache must serve a repeat sweep entirely
 * from disk, and the adaptive sweepRefined must land exactly where
 * optimizeRefined does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/adaptive_sweep.h"
#include "core/explorer.h"
#include "obs/metrics.h"
#include "support/exhaustive_oracle.h"
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

/** One synthetic region of the differential suite. */
struct Region
{
    const char *ba;
    uint64_t seed;
    double power_mw;
    double reach;
    Strategy strategy;
    size_t renewable_steps;
    size_t battery_steps;
    size_t extra_steps;
};

/**
 * Twenty regions: every balancing authority under RenewablesOnly on
 * a 13x13 lattice (varied seed and datacenter size), plus battery,
 * carbon-aware-scheduling, and combined strategies on 3- and 4-axis
 * lattices.
 */
const std::vector<Region> &
regions()
{
    static const std::vector<Region> all = {
        {"BPAT", 1, 19.0, 10.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"MISO", 2, 23.0, 9.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"SWPP", 3, 17.0, 11.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"DUK", 4, 21.0, 8.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"SOCO", 5, 29.0, 10.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"TVA", 6, 13.0, 9.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"ERCO", 7, 19.0, 10.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"PACE", 8, 25.0, 8.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"PJM", 9, 31.0, 10.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"PNM", 10, 15.0, 11.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"ERCO", 11, 19.0, 10.0, Strategy::RenewableBattery, 7, 4, 1},
        {"BPAT", 12, 23.0, 9.0, Strategy::RenewableBattery, 7, 4, 1},
        {"MISO", 13, 17.0, 8.0, Strategy::RenewableBattery, 7, 4, 1},
        {"PACE", 14, 21.0, 10.0, Strategy::RenewableBattery, 7, 4, 1},
        {"ERCO", 15, 19.0, 10.0, Strategy::RenewableCas, 7, 1, 3},
        {"TVA", 16, 25.0, 9.0, Strategy::RenewableCas, 7, 1, 3},
        {"PJM", 17, 15.0, 10.0, Strategy::RenewableCas, 7, 1, 3},
        {"BPAT", 18, 19.0, 9.0, Strategy::RenewableBatteryCas, 5, 3,
         3},
        {"ERCO", 19, 27.0, 10.0, Strategy::RenewableBatteryCas, 5, 3,
         3},
        {"PACE", 20, 13.0, 8.0, Strategy::RenewableBatteryCas, 5, 3,
         3},
    };
    return all;
}

ExplorerConfig
configFor(const Region &r)
{
    ExplorerConfig cfg;
    cfg.ba_code = r.ba;
    cfg.seed = r.seed;
    cfg.avg_dc_power_mw = MegaWatts(r.power_mw);
    return cfg;
}

DesignSpace
spaceFor(const Region &r)
{
    return DesignSpace::forDatacenter(r.power_mw, r.reach,
                                      r.renewable_steps,
                                      r.battery_steps, r.extra_steps);
}

void
expectEvalIdentical(const Evaluation &a, const Evaluation &b,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.point.solar_mw, b.point.solar_mw);
    EXPECT_EQ(a.point.wind_mw, b.point.wind_mw);
    EXPECT_EQ(a.point.battery_mwh, b.point.battery_mwh);
    EXPECT_EQ(a.point.extra_capacity, b.point.extra_capacity);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.coverage_pct, b.coverage_pct);
    EXPECT_EQ(a.operational_kg.value(), b.operational_kg.value());
    EXPECT_EQ(a.embodied_solar_kg.value(),
              b.embodied_solar_kg.value());
    EXPECT_EQ(a.embodied_wind_kg.value(), b.embodied_wind_kg.value());
    EXPECT_EQ(a.embodied_battery_kg.value(),
              b.embodied_battery_kg.value());
    EXPECT_EQ(a.embodied_server_kg.value(),
              b.embodied_server_kg.value());
    EXPECT_EQ(a.battery_cycles, b.battery_cycles);
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.renewable_excess_mwh.value(),
              b.renewable_excess_mwh.value());
}

/** Every evaluation, in order, plus the best: bit for bit. */
void
expectResultIdentical(const OptimizationResult &a,
                      const OptimizationResult &b, const std::string &what)
{
    expectEvalIdentical(a.best, b.best, what + "/best");
    ASSERT_EQ(a.evaluated.size(), b.evaluated.size()) << what;
    for (size_t i = 0; i < a.evaluated.size(); ++i)
        expectEvalIdentical(a.evaluated[i], b.evaluated[i],
                            what + "/" + std::to_string(i));
}

/**
 * The exhaustive reference of one region: the oracle, after checking
 * that optimize() reproduces it exactly.
 */
OptimizationResult
exhaustiveReference(const CarbonExplorer &explorer, const Region &r)
{
    const OptimizationResult oracle =
        testsupport::exhaustiveOracle(explorer, spaceFor(r), r.strategy);
    expectResultIdentical(explorer.optimize(spaceFor(r), r.strategy),
                          oracle,
                          std::string(r.ba) + "/seed" +
                              std::to_string(r.seed) + "/optimize");
    return oracle;
}

/**
 * The core differential check: adaptive vs exhaustive on one region
 * at one thread count. Returns the adaptive stats for aggregation.
 */
AdaptiveSweepStats
checkRegion(const Region &r, const OptimizationResult &exhaustive,
            size_t threads)
{
    ThreadCountGuard guard(threads);
    const CarbonExplorer explorer(configFor(r));
    const AdaptiveSweepResult adaptive =
        AdaptiveSweeper(explorer).sweep(spaceFor(r), r.strategy);

    const std::string what = std::string(r.ba) + "/seed" +
        std::to_string(r.seed) + "/threads" + std::to_string(threads);
    expectEvalIdentical(adaptive.result.best, exhaustive.best,
                        what + "/best");
    EXPECT_EQ(adaptive.result.best.totalKg().value(),
              exhaustive.best.totalKg().value())
        << what;

    const std::vector<Evaluation> front_a = adaptive.result.paretoSet();
    const std::vector<Evaluation> front_e = exhaustive.paretoSet();
    EXPECT_EQ(front_a.size(), front_e.size()) << what;
    if (front_a.size() == front_e.size()) {
        for (size_t i = 0; i < front_a.size(); ++i)
            expectEvalIdentical(front_a[i], front_e[i],
                                what + "/front" + std::to_string(i));
    }

    // The skipped points really were skipped: evaluated is a strict
    // subset whenever anything was excluded.
    EXPECT_EQ(adaptive.result.evaluated.size() +
                  adaptive.stats.points_skipped,
              exhaustive.evaluated.size())
        << what;
    return adaptive.stats;
}

class AdaptiveDifferential
    : public ::testing::TestWithParam<size_t>
{
};

TEST(AdaptiveDifferentialSuite, TwentyRegionsBitIdenticalAtOneTwoAndAutoThreads)
{
    for (const Region &r : regions()) {
        const CarbonExplorer explorer(configFor(r));
        const OptimizationResult exhaustive =
            exhaustiveReference(explorer, r);
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{0}})
            checkRegion(r, exhaustive, threads);
    }
}

TEST(AdaptiveDifferentialSuite, BudgetRegionsSimulateAtMostHalfTheLattice)
{
    // Mixed-resource regions where the dominated share of the lattice
    // is large; solar-monotone authorities (e.g. DUK) legitimately
    // evaluate everything because their whole lattice is
    // Pareto-optimal, so they prove correctness above, not savings.
    const std::vector<Region> budget = {
        {"ERCO", 2020, 19.0, 10.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"BPAT", 2020, 19.0, 10.0, Strategy::RenewablesOnly, 13, 1, 1},
        {"TVA", 2020, 19.0, 10.0, Strategy::RenewablesOnly, 13, 1, 1},
    };
    const uint64_t skipped_before =
        obs::counter("sweep.points_skipped").value();

    size_t simulated = 0;
    size_t lattice = 0;
    for (const Region &r : budget) {
        const CarbonExplorer explorer(configFor(r));
        const OptimizationResult exhaustive =
            exhaustiveReference(explorer, r);
        const AdaptiveSweepStats stats = checkRegion(r, exhaustive, 0);
        simulated += stats.simulated_points;
        lattice += stats.lattice_points;
        EXPECT_GT(stats.points_skipped, 0u) << r.ba;
    }
    EXPECT_LE(2 * simulated, lattice)
        << "adaptive sweep simulated " << simulated << " of "
        << lattice << " lattice points — more than half";

    // The savings are visible through the observability layer too.
    EXPECT_GT(obs::counter("sweep.points_skipped").value(),
              skipped_before);
}

TEST(AdaptiveDifferentialSuite, WarmCacheServesRepeatSweepWithoutSimulating)
{
    const Region r{"ERCO", 2020, 19.0, 10.0, Strategy::RenewablesOnly,
                   13, 1, 1};
    CarbonExplorer explorer(configFor(r));
    const std::string path = testsupport::uniqueTestDir() +
        "adaptive_differential_cache.cxrc";
    std::remove(path.c_str());

    SweepResultCache cache(path, explorer.configDigest(r.strategy));
    explorer.setSweepCache(&cache);
    const AdaptiveSweepResult cold =
        AdaptiveSweeper(explorer).sweep(spaceFor(r), r.strategy);
    EXPECT_GT(cold.stats.simulated_points, 0u);
    EXPECT_EQ(cold.stats.cache_hits, 0u);
    explorer.setSweepCache(nullptr);

    // Reopen the file as a fresh process would; the repeat sweep must
    // be bit-identical and never touch the simulator.
    SweepResultCache reopened(path,
                              explorer.configDigest(r.strategy));
    EXPECT_EQ(reopened.loadedFromDisk(), cold.stats.simulated_points);
    explorer.setSweepCache(&reopened);
    const AdaptiveSweepResult warm =
        AdaptiveSweeper(explorer).sweep(spaceFor(r), r.strategy);
    explorer.setSweepCache(nullptr);
    EXPECT_EQ(warm.stats.simulated_points, 0u);
    EXPECT_EQ(warm.stats.cache_hits,
              cold.stats.cache_hits + cold.stats.simulated_points);
    expectEvalIdentical(warm.result.best, cold.result.best,
                        "warm/best");
    ASSERT_EQ(warm.result.evaluated.size(),
              cold.result.evaluated.size());
    std::remove(path.c_str());
}

TEST(AdaptiveDifferentialSuite, SweepRefinedMatchesOptimizeRefined)
{
    const std::vector<Region> sample = {
        {"ERCO", 2020, 19.0, 8.0, Strategy::RenewablesOnly, 7, 1, 1},
        {"BPAT", 41, 23.0, 9.0, Strategy::RenewableBattery, 5, 3, 1},
    };
    for (const Region &r : sample) {
        const CarbonExplorer explorer(configFor(r));
        const OptimizationResult refined =
            explorer.optimizeRefined(spaceFor(r), r.strategy);
        const AdaptiveSweepResult adaptive =
            AdaptiveSweeper(explorer).sweepRefined(spaceFor(r),
                                                   r.strategy);
        expectEvalIdentical(adaptive.result.best, refined.best,
                            std::string(r.ba) + "/refined-best");
    }
}

TEST(AdaptiveDifferentialSuite, StrideOneDegeneratesToExhaustive)
{
    const Region r{"PACE", 2020, 19.0, 8.0, Strategy::RenewablesOnly,
                   9, 1, 1};
    const CarbonExplorer explorer(configFor(r));
    const OptimizationResult oracle =
        testsupport::exhaustiveOracle(explorer, spaceFor(r), r.strategy);
    AdaptiveSweepOptions opts;
    opts.coarse_stride = 1;
    const AdaptiveSweepResult adaptive =
        AdaptiveSweeper(explorer, opts).sweep(spaceFor(r), r.strategy);
    EXPECT_EQ(adaptive.stats.points_skipped, 0u);
    EXPECT_EQ(adaptive.stats.simulated_points, oracle.evaluated.size());
    expectResultIdentical(adaptive.result, oracle, "stride1");
}

} // namespace
} // namespace carbonx
