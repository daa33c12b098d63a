/**
 * @file
 * Differential tests of the batched SoA simulation kernel: for every
 * lane configuration, BatchedSimulationEngine::run must reproduce the
 * scalar oracle SimulationEngine::run (plus
 * OperationalCarbonModel::gridEmissions) bit for bit — across
 * randomized configs, batch sizes, re-runs, profiled runs, recorded
 * runs, and the parallel sweep at several thread counts. Also covers
 * the allocation-freedom contract of the hot loop, the kernel
 * fingerprint canary, and the SimulationScratch pushFront head==0
 * regression.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <optional>
#include <vector>

#include "battery/clc_battery.h"
#include "carbon/operational.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/explorer.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "scheduler/batched_engine.h"
#include "scheduler/simulation_batch.h"
#include "support/differential.h"
#include "support/simulation_engine.h"

// ---------------------------------------------------------------------------
// Allocation counting. One test executable per source file (see
// tests/CMakeLists.txt), so replacing the global allocation functions
// here is confined to this binary. The replacements forward to malloc
// and only bump a counter while a measurement window is open.
// ---------------------------------------------------------------------------

namespace
{
std::atomic<std::uint64_t> g_allocation_count{0};
std::atomic<bool> g_count_allocations{false};

void
noteAllocation()
{
    if (g_count_allocations.load(std::memory_order_relaxed))
        g_allocation_count.fetch_add(1, std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    noteAllocation();
    void *p = std::malloc(size ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    noteAllocation();
    if (align < sizeof(void *))
        align = sizeof(void *);
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : 1) != 0)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    noteAllocation();
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    noteAllocation();
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}
void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

namespace carbonx
{
namespace
{

constexpr int kYear = 2021;

/** RAII guard restoring the automatic thread count. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(size_t n) { setThreadCount(n); }
    ~ThreadCountGuard() { setThreadCount(0); }
};

/** Chemistry exercising DoD < 1, asymmetric efficiencies, sub-1C. */
BatteryChemistry
conservativeChemistry()
{
    BatteryChemistry chem = BatteryChemistry::lithiumIronPhosphate();
    chem.name = "LFP-conservative";
    chem.charge_efficiency = 0.9;
    chem.discharge_efficiency = 0.88;
    chem.max_charge_c_rate = 0.5;
    chem.max_discharge_c_rate = 0.7;
    chem.depth_of_discharge = 0.8;
    return chem;
}

struct SyntheticTraces
{
    TimeSeries load{kYear};
    TimeSeries solar_shape{kYear};
    TimeSeries wind_shape{kYear};
    TimeSeries intensity{kYear};
};

SyntheticTraces
makeTraces(uint64_t seed)
{
    Rng rng(seed, "batched-engine-traces");
    SyntheticTraces t;
    for (size_t h = 0; h < t.load.size(); ++h) {
        t.load[h] = rng.uniform(8.0, 12.0);
        const size_t hour_of_day = h % 24;
        t.solar_shape[h] = (hour_of_day >= 7 && hour_of_day <= 17)
                               ? rng.uniform(0.3, 1.0)
                               : 0.0;
        t.wind_shape[h] = rng.uniform(0.0, 1.0);
        t.intensity[h] = rng.uniform(50.0, 800.0);
    }
    return t;
}

double
peakOf(const TimeSeries &load)
{
    double peak = 0.0;
    for (size_t h = 0; h < load.size(); ++h)
        peak = std::max(peak, load[h]);
    return peak;
}

/**
 * A random lane drawing from every configuration axis: with/without
 * battery (two chemistries), CAS on/off, short/long SLO windows,
 * explicit initial SoC, and grid-charging policies.
 */
BatchLaneConfig
randomLane(Rng &rng, double peak, const BatteryChemistry *lfp,
           const BatteryChemistry *conservative)
{
    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(rng.uniform(0.0, 40.0));
    lane.wind_mw = MegaWatts(rng.uniform(0.0, 40.0));
    lane.capacity_cap_mw = MegaWatts(peak * rng.uniform(1.0, 1.5));
    if (rng.bernoulli(0.7))
        lane.flexible_ratio = Fraction(rng.uniform(0.0, 0.6));
    lane.slo_window_hours = Hours(1.0 + static_cast<double>(rng.uniformInt(48)));
    if (rng.bernoulli(0.6)) {
        lane.chemistry = rng.bernoulli(0.5) ? lfp : conservative;
        lane.battery_capacity_mwh = MegaWattHours(rng.uniform(0.0, 200.0));
        if (rng.bernoulli(0.3))
            lane.initial_soc = rng.uniform(0.2, 1.0);
        if (rng.bernoulli(0.3)) {
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh =
                GramsPerKwh(rng.uniform(100.0, 500.0));
        }
    }
    return lane;
}

struct ScalarOutcome
{
    SimulationResult sim{kYear};
    KilogramsCo2 operational_kg;
};

/**
 * Reference pipeline: expand the lane's supply with the exact
 * expression CoverageAnalyzer::supplyFor uses, run the scalar engine,
 * and derive operational carbon via gridEmissions — the path the
 * batched kernel must reproduce bit for bit.
 */
ScalarOutcome
runScalar(const SyntheticTraces &t, const BatchLaneConfig &lane)
{
    TimeSeries supply(kYear);
    for (size_t h = 0; h < supply.size(); ++h) {
        supply[h] = t.solar_shape[h] * lane.solar_mw.value() +
                    t.wind_shape[h] * lane.wind_mw.value();
    }
    const SimulationEngine engine(t.load, supply);

    SimulationConfig cfg;
    cfg.capacity_cap_mw = lane.capacity_cap_mw;
    cfg.flexible_ratio = lane.flexible_ratio;
    cfg.slo_window_hours = lane.slo_window_hours;
    std::optional<ClcBattery> battery;
    if (lane.chemistry != nullptr) {
        battery.emplace(lane.battery_capacity_mwh, *lane.chemistry,
                        lane.initial_soc);
        cfg.battery = &*battery;
    }
    cfg.grid_charge_policy = lane.grid_charge_policy;
    cfg.grid_charge_threshold_gkwh = lane.grid_charge_threshold_gkwh;
    if (lane.grid_charge_policy != GridChargePolicy::Never)
        cfg.grid_intensity = &t.intensity;

    ScalarOutcome out;
    out.sim = engine.run(cfg);
    out.operational_kg =
        OperationalCarbonModel::gridEmissions(out.sim.grid_power,
                                              t.intensity);
    return out;
}

void
expectLaneMatchesScalar(const BatchLaneResult &lane,
                        const ScalarOutcome &ref)
{
    const SimulationResult &sim = ref.sim;
    EXPECT_EQ(lane.load_energy_mwh.value(), sim.load_energy_mwh.value());
    EXPECT_EQ(lane.served_energy_mwh.value(),
              sim.served_energy_mwh.value());
    EXPECT_EQ(lane.grid_energy_mwh.value(), sim.grid_energy_mwh.value());
    EXPECT_EQ(lane.renewable_used_mwh.value(),
              sim.renewable_used_mwh.value());
    EXPECT_EQ(lane.renewable_excess_mwh.value(),
              sim.renewable_excess_mwh.value());
    EXPECT_EQ(lane.deferred_mwh.value(), sim.deferred_mwh.value());
    EXPECT_EQ(lane.max_backlog_mwh.value(), sim.max_backlog_mwh.value());
    EXPECT_EQ(lane.residual_backlog_mwh.value(),
              sim.residual_backlog_mwh.value());
    EXPECT_EQ(lane.slo_violation_mwh.value(),
              sim.slo_violation_mwh.value());
    EXPECT_EQ(lane.peak_power_mw.value(), sim.peak_power_mw.value());
    EXPECT_EQ(lane.battery_cycles, sim.battery_cycles);
    EXPECT_EQ(lane.grid_charge_mwh.value(), sim.grid_charge_mwh.value());
    EXPECT_EQ(lane.coverage_pct, sim.coverage_pct);
    EXPECT_EQ(lane.operational_kg.value(), ref.operational_kg.value());
}

TEST(BatchedEngine, RandomizedLanesMatchScalarBitForBit)
{
    const SyntheticTraces t = makeTraces(0xC0FFEE);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const double peak = peakOf(t.load);
    Rng rng(7, "batched-engine-lanes");

    const size_t lanes = 48;
    std::vector<BatchLaneConfig> configs;
    for (size_t i = 0; i < lanes; ++i)
        configs.push_back(randomLane(rng, peak, &lfp, &conservative));

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(64);
    for (const BatchLaneConfig &lane : configs)
        batch.addLane(lane);
    engine.run(batch);

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectLaneMatchesScalar(batch.result(i), runScalar(t, configs[i]));
    }
}

TEST(BatchedEngine, BatchSizeInvariance)
{
    // The same lane set chunked through batch capacities 1, 2, 7, 64,
    // and one full wave must produce identical results: lanes are
    // independent, so where the wave boundaries fall cannot matter.
    const SyntheticTraces t = makeTraces(0xBEEF);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const double peak = peakOf(t.load);
    Rng rng(11, "batched-size-lanes");

    const size_t lanes = 30;
    std::vector<BatchLaneConfig> configs;
    std::vector<ScalarOutcome> refs;
    for (size_t i = 0; i < lanes; ++i) {
        configs.push_back(randomLane(rng, peak, &lfp, &conservative));
        refs.push_back(runScalar(t, configs.back()));
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    for (size_t chunk : {size_t{1}, size_t{2}, size_t{7}, size_t{64},
                         lanes}) {
        SimulationBatch batch(chunk);
        for (size_t begin = 0; begin < lanes; begin += chunk) {
            const size_t end = std::min(begin + chunk, lanes);
            batch.clear();
            for (size_t i = begin; i < end; ++i)
                batch.addLane(configs[i]);
            engine.run(batch);
            for (size_t i = begin; i < end; ++i) {
                SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                             " lane=" + std::to_string(i));
                expectLaneMatchesScalar(batch.result(i - begin), refs[i]);
            }
        }
    }
}

TEST(BatchedEngine, SingleLaneBatchDegeneracy)
{
    // A capacity-1 batch is the scalar engine with extra steps; it
    // must agree exactly, and re-running the same batch must be a
    // no-op on the outcome (run-state reset correctness).
    const SyntheticTraces t = makeTraces(0xABBA);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();

    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(25.0);
    lane.wind_mw = MegaWatts(15.0);
    lane.capacity_cap_mw = MegaWatts(peakOf(t.load) * 1.2);
    lane.flexible_ratio = Fraction(0.4);
    lane.chemistry = &lfp;
    lane.battery_capacity_mwh = MegaWattHours(120.0);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch);
    const ScalarOutcome ref = runScalar(t, lane);
    expectLaneMatchesScalar(batch.result(0), ref);

    engine.run(batch);
    expectLaneMatchesScalar(batch.result(0), ref);
}

TEST(BatchedEngine, SloPressureLanesExerciseBacklogDrain)
{
    // A tight capacity cap, large flexible share, and short SLO
    // windows force deferred work to its deadline every day — the
    // deadline-forced drain path the sunny-day sweeps rarely touch.
    // Note violations themselves stay zero by construction: one
    // deferred chunk (at most fwr * load) matures per hour, so the
    // mandatory work (1 - fwr) * load[h] + fwr * load[h - W] never
    // exceeds the peak, and the cap must be at least the peak. The
    // kernel must agree with the scalar engine on that invariant too.
    const SyntheticTraces t = makeTraces(0xD00D);
    const double peak = peakOf(t.load);

    std::vector<BatchLaneConfig> configs;
    for (double window : {1.0, 2.0, 4.0}) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(5.0);
        lane.wind_mw = MegaWatts(2.0);
        lane.capacity_cap_mw = MegaWatts(peak);
        lane.flexible_ratio = Fraction(0.6);
        lane.slo_window_hours = Hours(window);
        configs.push_back(lane);
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(configs.size());
    for (const BatchLaneConfig &lane : configs)
        batch.addLane(lane);
    engine.run(batch);

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectLaneMatchesScalar(batch.result(i), runScalar(t, configs[i]));
        // The configuration really drove the backlog machinery.
        EXPECT_GT(batch.result(i).deferred_mwh.value(), 0.0);
        EXPECT_GT(batch.result(i).max_backlog_mwh.value(), 0.0);
        EXPECT_EQ(batch.result(i).slo_violation_mwh.value(), 0.0);
    }
}

TEST(BatchedEngine, MixedGridChargingLanesMatchScalar)
{
    // Lanes with different grid-charging policies side by side in one
    // batch: the per-lane policy flags must not bleed across lanes,
    // and at least one arbitrage lane must actually charge.
    const SyntheticTraces t = makeTraces(0xFACE);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const double peak = peakOf(t.load);

    std::vector<BatchLaneConfig> configs;
    for (int i = 0; i < 6; ++i) {
        BatchLaneConfig lane;
        // Even lanes: zero renewables, so only grid charging can move
        // energy through the battery. Odd lanes: renewables, Never.
        if (i % 2 == 0) {
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh =
                GramsPerKwh(150.0 + 100.0 * i);
        } else {
            lane.solar_mw = MegaWatts(20.0);
            lane.wind_mw = MegaWatts(10.0);
        }
        lane.capacity_cap_mw = MegaWatts(peak * 1.1);
        lane.chemistry = &lfp;
        lane.battery_capacity_mwh = MegaWattHours(60.0 + 20.0 * i);
        configs.push_back(lane);
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(configs.size());
    for (const BatchLaneConfig &lane : configs)
        batch.addLane(lane);
    engine.run(batch);

    double charged = 0.0;
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        expectLaneMatchesScalar(batch.result(i), runScalar(t, configs[i]));
        charged += batch.result(i).grid_charge_mwh.value();
        if (i % 2 == 1) {
            EXPECT_EQ(batch.result(i).grid_charge_mwh.value(), 0.0);
        }
    }
    EXPECT_GT(charged, 0.0);
}

TEST(BatchedEngine, RefillAfterClearIsStateless)
{
    // clear() keeps storage but must not leak state: running lanes A,
    // then lanes B, then lanes A again must reproduce the first run.
    const SyntheticTraces t = makeTraces(0x1DEA);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const double peak = peakOf(t.load);
    Rng rng(23, "batched-refill-lanes");

    std::vector<BatchLaneConfig> first, second;
    for (int i = 0; i < 9; ++i) {
        first.push_back(randomLane(rng, peak, &lfp, &conservative));
        second.push_back(randomLane(rng, peak, &lfp, &conservative));
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(16);
    auto runSet = [&](const std::vector<BatchLaneConfig> &set) {
        batch.clear();
        for (const BatchLaneConfig &lane : set)
            batch.addLane(lane);
        engine.run(batch);
        std::vector<BatchLaneResult> out;
        for (size_t i = 0; i < set.size(); ++i)
            out.push_back(batch.result(i));
        return out;
    };

    const std::vector<BatchLaneResult> before = runSet(first);
    runSet(second);
    const std::vector<BatchLaneResult> after = runSet(first);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        EXPECT_EQ(before[i].grid_energy_mwh.value(),
                  after[i].grid_energy_mwh.value());
        EXPECT_EQ(before[i].battery_cycles, after[i].battery_cycles);
        EXPECT_EQ(before[i].operational_kg.value(),
                  after[i].operational_kg.value());
        EXPECT_EQ(before[i].residual_backlog_mwh.value(),
                  after[i].residual_backlog_mwh.value());
    }
}

TEST(BatchedEngine, ValidationMatchesScalarContracts)
{
    const SyntheticTraces t = makeTraces(0xBAD);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const double peak = peakOf(t.load);

    EXPECT_THROW(SimulationBatch(0), UserError);

    SimulationBatch batch(2);
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(peak * 1.1);

    BatchLaneConfig negative = lane;
    negative.solar_mw = MegaWatts(-1.0);
    EXPECT_THROW(batch.addLane(negative), UserError);

    BatchLaneConfig bad_ratio = lane;
    bad_ratio.flexible_ratio = Fraction(1.5);
    EXPECT_THROW(batch.addLane(bad_ratio), UserError);

    BatchLaneConfig orphan_battery = lane;
    orphan_battery.battery_capacity_mwh = MegaWattHours(10.0);
    EXPECT_THROW(batch.addLane(orphan_battery), UserError);

    // Capacity cap below the load peak is an engine-side error, like
    // the scalar engine's check.
    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    BatchLaneConfig low_cap = lane;
    low_cap.capacity_cap_mw = MegaWatts(peak * 0.5);
    batch.addLane(low_cap);
    EXPECT_THROW(engine.run(batch), UserError);
    batch.clear();

    // Grid charging needs an intensity series on the engine.
    const BatchedSimulationEngine no_intensity(t.load, t.solar_shape,
                                               t.wind_shape);
    BatchLaneConfig arb = lane;
    arb.chemistry = &lfp;
    arb.battery_capacity_mwh = MegaWattHours(10.0);
    arb.grid_charge_policy = GridChargePolicy::BelowIntensityThreshold;
    arb.grid_charge_threshold_gkwh = GramsPerKwh(200.0);
    batch.addLane(arb);
    EXPECT_THROW(no_intensity.run(batch), UserError);
    batch.clear();

    // A full batch rejects further lanes.
    batch.addLane(lane);
    batch.addLane(lane);
    EXPECT_THROW(batch.addLane(lane), UserError);
}

TEST(BatchedEngine, NoAllocationsAfterWarmup)
{
    // The allocation-freedom contract: once a batch's working set has
    // been run (queues grown to their high-water mark, metric handles
    // registered), refilling and re-running the same lanes performs
    // zero heap allocations.
    const SyntheticTraces t = makeTraces(0x50C);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const double peak = peakOf(t.load);

    std::vector<BatchLaneConfig> configs;
    for (int i = 0; i < 8; ++i) {
        BatchLaneConfig lane;
        lane.solar_mw = MegaWatts(5.0 * i);
        lane.wind_mw = MegaWatts(3.0 * i);
        lane.capacity_cap_mw =
            MegaWatts(peak * (i % 2 == 0 ? 1.0 : 1.3));
        lane.flexible_ratio = Fraction(i % 2 == 0 ? 0.6 : 0.3);
        lane.slo_window_hours = Hours(i % 2 == 0 ? 2.0 : 24.0);
        if (i % 3 != 0) {
            lane.chemistry = &lfp;
            lane.battery_capacity_mwh = MegaWattHours(40.0 + 10.0 * i);
        }
        if (i == 4) {
            lane.grid_charge_policy =
                GridChargePolicy::BelowIntensityThreshold;
            lane.grid_charge_threshold_gkwh = GramsPerKwh(300.0);
        }
        configs.push_back(lane);
    }

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(configs.size());
    auto fill = [&] {
        batch.clear();
        for (const BatchLaneConfig &lane : configs)
            batch.addLane(lane);
    };
    // Warm-up: two full fill+run rounds grow every backlog queue to
    // its working-set size and register the static metric handles.
    for (int round = 0; round < 2; ++round) {
        fill();
        engine.run(batch);
    }

    g_allocation_count.store(0);
    g_count_allocations.store(true);
    fill();
    engine.run(batch);
    g_count_allocations.store(false);
    EXPECT_EQ(g_allocation_count.load(), 0u)
        << "warm fill+run of the batched kernel must not allocate";
}

TEST(BatchedEngine, ProfiledRunIsBitIdenticalAndRecordsPhases)
{
    const SyntheticTraces t = makeTraces(0xF00D);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();

    BatchLaneConfig lane;
    lane.solar_mw = MegaWatts(18.0);
    lane.wind_mw = MegaWatts(12.0);
    lane.capacity_cap_mw = MegaWatts(peakOf(t.load) * 1.2);
    lane.flexible_ratio = Fraction(0.4);
    lane.chemistry = &lfp;
    lane.battery_capacity_mwh = MegaWattHours(80.0);

    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(1);
    batch.addLane(lane);
    engine.run(batch);
    const BatchLaneResult unprofiled = batch.result(0);

    auto &profiler = obs::PhaseProfiler::instance();
    profiler.reset();
    profiler.setEnabled(true);
    engine.run(batch);
    profiler.setEnabled(false);
    const obs::ProfileNode merged = profiler.merged();
    profiler.reset();

    EXPECT_EQ(batch.result(0).grid_energy_mwh.value(),
              unprofiled.grid_energy_mwh.value());
    EXPECT_EQ(batch.result(0).operational_kg.value(),
              unprofiled.operational_kg.value());
    EXPECT_EQ(batch.result(0).battery_cycles, unprofiled.battery_cycles);

    // The engine's phases must show up in the merged tree (at any
    // depth — nesting depends on the caller's enclosing phases).
    auto findDeep = [](const obs::ProfileNode &node,
                       const std::string &name,
                       auto &&self) -> const obs::ProfileNode * {
        if (node.name == name)
            return &node;
        for (const obs::ProfileNode &child : node.children) {
            if (const obs::ProfileNode *hit = self(child, name, self))
                return hit;
        }
        return nullptr;
    };
    EXPECT_NE(findDeep(merged, "sim/batch_step", findDeep), nullptr);
    EXPECT_NE(findDeep(merged, "sim/batch_drain", findDeep), nullptr);
}

TEST(BatchedEngine, RecordingObserverMatchesOracleRecorder)
{
    // On randomized lanes, plus SLO-pressure and grid-charging lanes,
    // a 1-lane kernel run under the recording observer must reproduce
    // the oracle's four hourly series and flight-recorder rows exactly
    // (runBoth checks every column bit for bit).
    const SyntheticTraces t = makeTraces(0xC0DE);
    const BatteryChemistry lfp = BatteryChemistry::lithiumIronPhosphate();
    const BatteryChemistry conservative = conservativeChemistry();
    const double peak = peakOf(t.load);
    Rng rng(31, "recorded-lanes");

    std::vector<BatchLaneConfig> configs;
    for (int i = 0; i < 12; ++i)
        configs.push_back(randomLane(rng, peak, &lfp, &conservative));
    for (const double window : {1.0, 3.0}) {
        BatchLaneConfig slo;
        slo.solar_mw = MegaWatts(5.0);
        slo.wind_mw = MegaWatts(2.0);
        slo.capacity_cap_mw = MegaWatts(peak);
        slo.flexible_ratio = Fraction(0.6);
        slo.slo_window_hours = Hours(window);
        slo.chemistry = &conservative;
        slo.battery_capacity_mwh = MegaWattHours(15.0);
        configs.push_back(slo);
    }
    BatchLaneConfig arb;
    arb.capacity_cap_mw = MegaWatts(peak * 1.1);
    arb.flexible_ratio = Fraction(0.3);
    arb.chemistry = &lfp;
    arb.battery_capacity_mwh = MegaWattHours(80.0);
    arb.grid_charge_policy = GridChargePolicy::BelowIntensityThreshold;
    arb.grid_charge_threshold_gkwh = GramsPerKwh(300.0);
    configs.push_back(arb);

    size_t deferring = 0;
    size_t grid_charging = 0;
    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        const SimulationResult r = testsupport::runBoth(
            {t.load, t.solar_shape, t.wind_shape, &t.intensity},
            configs[i]);
        deferring += r.deferred_mwh.value() > 0.0 ? 1 : 0;
        grid_charging += r.grid_charge_mwh.value() > 0.0 ? 1 : 0;
    }
    EXPECT_GT(deferring, 0u);
    EXPECT_GT(grid_charging, 0u);
}

TEST(BatchedEngine, RecordingObserverRequiresOneLane)
{
    const SyntheticTraces t = makeTraces(0x1A7E);
    BatchLaneConfig lane;
    lane.capacity_cap_mw = MegaWatts(peakOf(t.load));
    const BatchedSimulationEngine engine(t.load, t.solar_shape,
                                         t.wind_shape, &t.intensity);
    SimulationBatch batch(2);
    batch.addLane(lane);
    batch.addLane(lane);
    SimulationResult result(kYear);
    RecordingObserver observer(result);
    EXPECT_THROW(engine.run(batch, observer), UserError);
}

TEST(BatchedEngine, CanaryExercisesEveryBranchWithoutMetrics)
{
    // The kernel fingerprint hashes the canary's result bits, so the
    // canary must reach every branch whose arithmetic it guards, give
    // the same bits on every run, and stay invisible to the work
    // counters (it runs inside cache opens mid-study).
    const uint64_t lanes_before = obs::counter("sim.batch_lanes").value();
    const uint64_t hours_before =
        obs::counter("sim.hours_simulated").value();
    const BatchLaneResult r = BatchedSimulationEngine::canaryResult();
    EXPECT_EQ(obs::counter("sim.batch_lanes").value(), lanes_before);
    EXPECT_EQ(obs::counter("sim.hours_simulated").value(), hours_before);

    EXPECT_GT(r.battery_cycles, 0.0);
    EXPECT_GT(r.deferred_mwh.value(), 0.0);
    EXPECT_GT(r.slo_violation_mwh.value(), 0.0);
    EXPECT_GT(r.grid_charge_mwh.value(), 0.0);
    EXPECT_GT(r.operational_kg.value(), 0.0);

    const BatchLaneResult again = BatchedSimulationEngine::canaryResult();
    EXPECT_EQ(again.grid_energy_mwh.value(), r.grid_energy_mwh.value());
    EXPECT_EQ(again.operational_kg.value(), r.operational_kg.value());
    EXPECT_EQ(BatchedSimulationEngine::kernelFingerprint(),
              BatchedSimulationEngine::kernelFingerprint());
}

// ---------------------------------------------------------------------------
// Sweep-level differential: the batched evaluator inside optimize()
// against the single-point evaluate() path.
// ---------------------------------------------------------------------------

ExplorerConfig
utahConfig()
{
    ExplorerConfig cfg;
    cfg.ba_code = "PACE";
    cfg.avg_dc_power_mw = MegaWatts(19.0);
    cfg.flexible_ratio = Fraction(0.4);
    return cfg;
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
    EXPECT_EQ(a.embodied_battery_kg.value(),
              b.embodied_battery_kg.value());
    EXPECT_EQ(a.embodied_server_kg.value(), b.embodied_server_kg.value());
    EXPECT_EQ(a.battery_cycles, b.battery_cycles);
    EXPECT_EQ(a.deferred_mwh.value(), b.deferred_mwh.value());
    EXPECT_EQ(a.renewable_excess_mwh.value(),
              b.renewable_excess_mwh.value());
}

TEST(BatchedSweep, OptimizeMatchesScalarEvaluateAcrossThreadCounts)
{
    // optimize() runs every design point in 64-lane waves on the
    // thread pool; evaluate() runs one point in a 1-lane batch. The
    // two must agree bit for bit on every point of the lattice, at
    // any worker count.
    const CarbonExplorer explorer(utahConfig());
    const DesignSpace space = DesignSpace::forDatacenter(19.0, 6.0, 3, 3, 2);

    for (const Strategy strategy :
         {Strategy::RenewablesOnly, Strategy::RenewableBatteryCas}) {
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{5}}) {
            const ThreadCountGuard guard(threads);
            const OptimizationResult swept =
                explorer.optimize(space, strategy);
            SCOPED_TRACE("threads=" + std::to_string(threads));
            for (const Evaluation &eval : swept.evaluated) {
                const Evaluation scalar =
                    explorer.evaluate(eval.point, strategy);
                expectEvalIdentical(eval, scalar);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SimulationScratch pushFront regression.
// ---------------------------------------------------------------------------

TEST(BatchedScratch, PushFrontWithNoHeadroomPreservesOrder)
{
    // Regression: pushFront at head == 0 used to fall back to an
    // O(n) insert-at-begin per push; it now opens a proportional gap
    // in one move. Either way the queue order must be exact.
    SimulationScratch scratch;
    // No headroom at all: first push lands at the front.
    scratch.pushFront({7, MegaWattHours(1.5)});
    ASSERT_FALSE(scratch.empty());
    EXPECT_EQ(scratch.front().deadline_hour, 7u);
    EXPECT_EQ(scratch.front().mwh.value(), 1.5);

    // Exhaust the headroom the growth opened, then keep pushing: the
    // head == 0 path must trigger again without corrupting order.
    for (size_t i = 0; i < 100; ++i)
        scratch.pushFront({i, MegaWattHours(static_cast<double>(i))});
    for (size_t i = 0; i < 100; ++i) {
        ASSERT_FALSE(scratch.empty());
        EXPECT_EQ(scratch.front().deadline_hour, 99 - i);
        scratch.popFront();
    }
    EXPECT_EQ(scratch.front().deadline_hour, 7u);
    scratch.popFront();
    EXPECT_TRUE(scratch.empty());
}

TEST(BatchedScratch, RandomizedOpsMatchDequeModel)
{
    Rng rng(99, "scratch-model");
    SimulationScratch scratch;
    std::deque<SimulationScratch::Entry> model;
    for (int op = 0; op < 20000; ++op) {
        const double roll = rng.uniform();
        SimulationScratch::Entry e{static_cast<size_t>(op),
                                   MegaWattHours(rng.uniform())};
        if (roll < 0.35) {
            scratch.pushBack(e);
            model.push_back(e);
        } else if (roll < 0.7) {
            scratch.pushFront(e);
            model.push_front(e);
        } else if (!model.empty()) {
            ASSERT_FALSE(scratch.empty());
            EXPECT_EQ(scratch.front().deadline_hour,
                      model.front().deadline_hour);
            EXPECT_EQ(scratch.front().mwh.value(),
                      model.front().mwh.value());
            scratch.popFront();
            model.pop_front();
        } else {
            EXPECT_TRUE(scratch.empty());
        }
    }
    while (!model.empty()) {
        ASSERT_FALSE(scratch.empty());
        EXPECT_EQ(scratch.front().deadline_hour,
                  model.front().deadline_hour);
        scratch.popFront();
        model.pop_front();
    }
    EXPECT_TRUE(scratch.empty());
}

} // namespace
} // namespace carbonx
