/**
 * @file
 * Determinism contract of the parallel design-space sweep: optimize()
 * and optimizeRefined() must produce bit-identical results at any
 * thread count, the allocation-free workspace paths (supplyFor into a
 * buffer, run into a reused result, ClcBattery::setCapacity) must
 * match their allocating counterparts exactly, and sweep progress
 * must report monotone throttled milestones ending at the total.
 */

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "battery/clc_battery.h"
#include "common/parallel.h"
#include "core/explorer.h"
#include "obs/profiler.h"
#include "support/simulation_engine.h"

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
utahConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
}

const CarbonExplorer &
utahExplorer()
{
    static const CarbonExplorer explorer(utahConfig());
    return explorer;
}

DesignSpace
smallSpace()
{
    return DesignSpace::forDatacenter(19.0, 6.0, 3, 3, 2);
}

void
expectEvalIdentical(const Evaluation &a, const Evaluation &b)
{
    EXPECT_EQ(a.point.solar_mw, b.point.solar_mw);
    EXPECT_EQ(a.point.wind_mw, b.point.wind_mw);
    EXPECT_EQ(a.point.battery_mwh, b.point.battery_mwh);
    EXPECT_EQ(a.point.extra_capacity, b.point.extra_capacity);
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.coverage_pct, b.coverage_pct);
    EXPECT_EQ(a.operational_kg.value(), b.operational_kg.value());
    EXPECT_EQ(a.embodied_solar_kg.value(), b.embodied_solar_kg.value());
    EXPECT_EQ(a.embodied_wind_kg.value(), b.embodied_wind_kg.value());
    EXPECT_EQ(a.embodied_battery_kg.value(), b.embodied_battery_kg.value());
    EXPECT_EQ(a.embodied_server_kg.value(), b.embodied_server_kg.value());
    EXPECT_EQ(a.battery_cycles, b.battery_cycles);
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.renewable_excess_mwh.value(), b.renewable_excess_mwh.value());
}

void
expectResultIdentical(const OptimizationResult &a,
                      const OptimizationResult &b)
{
    expectEvalIdentical(a.best, b.best);
    ASSERT_EQ(a.evaluated.size(), b.evaluated.size());
    for (size_t i = 0; i < a.evaluated.size(); ++i) {
        SCOPED_TRACE("evaluated[" + std::to_string(i) + "]");
        expectEvalIdentical(a.evaluated[i], b.evaluated[i]);
    }
}

TEST(ParallelSweep, OptimizeBitIdenticalAcrossThreadCounts)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignSpace space = smallSpace();
    const Strategy strategy = Strategy::RenewableBatteryCas;

    OptimizationResult serial;
    {
        const ThreadCountGuard guard(1);
        serial = ex.optimize(space, strategy);
    }
    for (size_t threads : {size_t{2}, hardwareThreads()}) {
        const ThreadCountGuard guard(threads);
        const OptimizationResult parallel = ex.optimize(space, strategy);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectResultIdentical(serial, parallel);
    }
}

TEST(ParallelSweep, OptimizeBitIdenticalWithProfilerEnabled)
{
    // The profiler's non-interference contract: enabling it only
    // reads clocks, so a profiled sweep must stay bit-identical to an
    // unprofiled serial one at any thread count.
    const CarbonExplorer &ex = utahExplorer();
    const DesignSpace space = smallSpace();
    const Strategy strategy = Strategy::RenewableBatteryCas;

    OptimizationResult unprofiled;
    {
        const ThreadCountGuard guard(1);
        unprofiled = ex.optimize(space, strategy);
    }

    struct ProfilerGuard
    {
        ProfilerGuard()
        {
            auto &p = obs::PhaseProfiler::instance();
            p.reset();
            p.setEnabled(true);
        }
        ~ProfilerGuard()
        {
            auto &p = obs::PhaseProfiler::instance();
            p.setEnabled(false);
            p.reset();
        }
    };
    const ProfilerGuard profiling;
    for (size_t threads : {size_t{1}, size_t{2}, hardwareThreads()}) {
        const ThreadCountGuard guard(threads);
        const OptimizationResult profiled = ex.optimize(space, strategy);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        expectResultIdentical(unprofiled, profiled);
    }

    // And the sweep really was profiled, not silently disabled.
    const obs::ProfileNode merged =
        obs::PhaseProfiler::instance().merged();
    const obs::ProfileNode *pass = merged.find("sweep/pass");
    ASSERT_NE(pass, nullptr);
    EXPECT_GE(pass->count, 3u);
}

TEST(ParallelSweep, OptimizeRefinedBitIdenticalAcrossThreadCounts)
{
    const CarbonExplorer &ex = utahExplorer();
    const DesignSpace space = smallSpace();
    const Strategy strategy = Strategy::RenewableBattery;

    OptimizationResult serial;
    {
        const ThreadCountGuard guard(1);
        serial = ex.optimizeRefined(space, strategy, 1);
    }
    const ThreadCountGuard guard(hardwareThreads());
    const OptimizationResult parallel =
        ex.optimizeRefined(space, strategy, 1);
    expectResultIdentical(serial, parallel);
}

TEST(ParallelSweep, SupplyBufferOverloadMatchesAllocating)
{
    const CoverageAnalyzer &cov = utahExplorer().coverageAnalyzer();
    const TimeSeries fresh = cov.supplyFor(MegaWatts(123.0), MegaWatts(45.0));
    TimeSeries buffer(fresh.year(), 99.0); // Pre-filled with garbage.
    cov.supplyFor(MegaWatts(123.0), MegaWatts(45.0), buffer);
    for (size_t h = 0; h < fresh.size(); ++h)
        ASSERT_EQ(fresh[h], buffer[h]) << "hour " << h;
}

TEST(ParallelSweep, RunIntoReusedResultMatchesAllocating)
{
    const CarbonExplorer &ex = utahExplorer();
    const TimeSeries supply = ex.coverageAnalyzer().supplyFor(MegaWatts(80.0), MegaWatts(40.0));
    const SimulationEngine engine(ex.dcPower(), supply);

    SimulationConfig with_cas;
    with_cas.capacity_cap_mw = MegaWatts(ex.dcPeakPowerMw() * 1.2);
    with_cas.flexible_ratio = Fraction(0.4);

    ClcBattery battery(MegaWattHours(150.0), BatteryChemistry::lithiumIronPhosphate());
    SimulationConfig with_batt;
    with_batt.capacity_cap_mw = MegaWatts(ex.dcPeakPowerMw());
    with_batt.battery = &battery;

    // One reused result/scratch across two different configs: the
    // second run must be unaffected by the first (reset correctness).
    SimulationResult reused(ex.dcPower().year());
    SimulationScratch scratch;
    for (const SimulationConfig *config : {&with_cas, &with_batt}) {
        const SimulationResult fresh = engine.run(*config);
        engine.run(*config, reused, scratch);
        EXPECT_EQ(fresh.load_energy_mwh.value(), reused.load_energy_mwh.value());
        EXPECT_EQ(fresh.served_energy_mwh.value(), reused.served_energy_mwh.value());
        EXPECT_EQ(fresh.grid_energy_mwh.value(), reused.grid_energy_mwh.value());
        EXPECT_EQ(fresh.renewable_used_mwh.value(), reused.renewable_used_mwh.value());
        EXPECT_EQ(fresh.renewable_excess_mwh.value(),
                  reused.renewable_excess_mwh.value());
        EXPECT_EQ(fresh.deferred_mwh.value(), reused.deferred_mwh.value());
        EXPECT_EQ(fresh.max_backlog_mwh.value(), reused.max_backlog_mwh.value());
        EXPECT_EQ(fresh.residual_backlog_mwh.value(),
                  reused.residual_backlog_mwh.value());
        EXPECT_EQ(fresh.slo_violation_mwh.value(), reused.slo_violation_mwh.value());
        EXPECT_EQ(fresh.peak_power_mw.value(), reused.peak_power_mw.value());
        EXPECT_EQ(fresh.battery_cycles, reused.battery_cycles);
        EXPECT_EQ(fresh.coverage_pct, reused.coverage_pct);
        for (size_t h = 0; h < fresh.served_power.size(); ++h) {
            ASSERT_EQ(fresh.served_power[h], reused.served_power[h]);
            ASSERT_EQ(fresh.grid_power[h], reused.grid_power[h]);
            ASSERT_EQ(fresh.battery_soc[h], reused.battery_soc[h]);
            ASSERT_EQ(fresh.battery_flow[h], reused.battery_flow[h]);
        }
    }
}

TEST(ParallelSweep, SetCapacityMatchesFreshBattery)
{
    const BatteryChemistry chem =
        BatteryChemistry::lithiumIronPhosphate();
    ClcBattery reused(MegaWattHours(50.0), chem);
    // Dirty the state, then re-purpose as a 120 MWh battery.
    reused.charge(MegaWatts(20.0), Hours(1.0));
    reused.discharge(MegaWatts(5.0), Hours(1.0));
    reused.setCapacity(MegaWattHours(120.0));

    const ClcBattery fresh(MegaWattHours(120.0), chem);
    EXPECT_EQ(reused.capacityMwh().value(), fresh.capacityMwh().value());
    EXPECT_EQ(reused.energyContentMwh().value(),
              fresh.energyContentMwh().value());
    EXPECT_EQ(reused.stateOfCharge().value(),
              fresh.stateOfCharge().value());
    EXPECT_EQ(reused.totalChargedMwh(), fresh.totalChargedMwh());
    EXPECT_EQ(reused.totalDischargedMwh(), fresh.totalDischargedMwh());
}

TEST(ParallelSweep, ProgressMilestonesAreMonotoneAndEndAtTotal)
{
    CarbonExplorer explorer(utahConfig());
    const DesignSpace space = smallSpace();

    std::mutex mutex;
    std::vector<obs::SweepProgress> snapshots;
    const size_t max_updates = 7;
    explorer.setProgressCallback(
        [&](const obs::SweepProgress &p) {
            const std::lock_guard<std::mutex> lock(mutex);
            snapshots.push_back(p);
        },
        max_updates);

    const ThreadCountGuard guard(hardwareThreads());
    const Strategy strategy = Strategy::RenewableBattery;
    explorer.optimize(space, strategy);

    const size_t total = space.sizeFor(strategy);
    ASSERT_FALSE(snapshots.empty());
    EXPECT_LE(snapshots.size(), max_updates + 1);
    for (size_t i = 0; i < snapshots.size(); ++i) {
        EXPECT_EQ(snapshots[i].pass, 0);
        EXPECT_EQ(snapshots[i].points_total, total);
        EXPECT_GT(snapshots[i].best_total_kg, 0.0);
        EXPECT_GE(snapshots[i].eta_seconds, 0.0);
        if (i > 0) {
            EXPECT_GT(snapshots[i].points_done,
                      snapshots[i - 1].points_done);
        }
    }
    EXPECT_EQ(snapshots.back().points_done, total);
}

} // namespace
} // namespace carbonx
